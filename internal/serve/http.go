package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"mfsynth/internal/obs/export"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit (assay text or case name + options + faults)
//	GET    /v1/jobs/{id}        job status / result JSON
//	GET    /v1/jobs/{id}/events live progress as server-sent events
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/stats            queue/cache/admission counters
//	GET    /metrics             the same counters, Prometheus text format
//	GET    /healthz             liveness ("ok", or "draining" with 503)
//
// The rate-limit client identity is the X-Client header when present,
// else the remote address's host part.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleMetrics serves the server-level obs registry in Prometheus text
// exposition format. Stats reads the same registry, so /metrics and
// /v1/stats always agree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := export.WriteProm(w, m); err != nil {
		// Headers are gone by the time a write fails; nothing to salvage.
		return
	}
}

func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// submitResponse is the POST /v1/jobs success body: the job view plus
// how the submission was satisfied ("queued", "coalesced", "cached").
type submitResponse struct {
	JobView
	Via string `json:"via"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req); err != nil {
		s.CountBadRequest()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeProblem(w, Problem{Type: "too-large", Title: "request body too large",
				Status: http.StatusRequestEntityTooLarge, Detail: err.Error()})
			return
		}
		writeProblem(w, Problem{Type: "bad-request", Title: "malformed JSON body",
			Status: http.StatusBadRequest, Detail: err.Error()})
		return
	}
	a, opts, deadline, err := req.resolve()
	if err != nil {
		s.CountBadRequest()
		var rangeErr *rangeError
		if errors.As(err, &rangeErr) {
			writeProblem(w, Problem{Type: "out-of-range", Title: "request value out of range",
				Status: http.StatusUnprocessableEntity, Detail: err.Error()})
			return
		}
		writeProblem(w, Problem{Type: "bad-request", Title: "invalid synthesis request",
			Status: http.StatusBadRequest, Detail: err.Error()})
		return
	}
	j, outcome, retry, err := s.Submit(clientID(r), a, opts, deadline)
	if err != nil {
		writeProblem(w, Problem{Type: "bad-request", Title: "invalid synthesis request",
			Status: http.StatusBadRequest, Detail: err.Error()})
		return
	}
	switch outcome {
	case SubmitShedRateLimited:
		writeProblem(w, Problem{Type: "rate-limited", Title: "client over submission rate",
			Status: http.StatusTooManyRequests, Detail: "token bucket empty; slow down",
			RetryAfterSeconds: int(retry.Seconds())})
	case SubmitShedQueueFull:
		writeProblem(w, Problem{Type: "queue-full", Title: "job queue full",
			Status: http.StatusTooManyRequests, Detail: "the server is at capacity; retry later",
			RetryAfterSeconds: int(retry.Seconds())})
	case SubmitShedDraining:
		writeProblem(w, Problem{Type: "draining", Title: "server is draining",
			Status: http.StatusServiceUnavailable, Detail: "shutting down; resubmit elsewhere"})
	default:
		via := map[SubmitOutcome]string{
			SubmitQueued: "queued", SubmitCoalesced: "coalesced", SubmitCached: "cached",
		}[outcome]
		status := http.StatusAccepted
		if outcome == SubmitCached {
			status = http.StatusOK // the result is already in the body
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(submitResponse{JobView: j.View(), Via: via})
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeProblem(w, Problem{Type: "not-found", Title: "no such job",
			Status: http.StatusNotFound})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	_, found := s.Cancel(r.PathValue("id"))
	if !found {
		writeProblem(w, Problem{Type: "not-found", Title: "no such job",
			Status: http.StatusNotFound})
		return
	}
	j, _ := s.Job(r.PathValue("id"))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.View())
}

// handleEvents streams the job's live progress as server-sent events:
// one "progress" event per bus snapshot (drop-oldest on slow clients),
// then a final "done" event carrying the terminal JobView. Cached or
// already-finished jobs go straight to "done".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeProblem(w, Problem{Type: "not-found", Title: "no such job",
			Status: http.StatusNotFound})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := j.Progress().Subscribe(64)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sendDone := func() {
		data, err := json.Marshal(j.View())
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			sendDone()
			return
		case snap, ok := <-ch:
			if !ok {
				sendDone()
				return
			}
			data, err := json.Marshal(snap)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Stats().Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

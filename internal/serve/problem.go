package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"mfsynth/internal/synerr"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) recorded for jobs cancelled by the client's own DELETE:
// the outcome is no one's error, but it is not a success either.
const StatusClientClosedRequest = 499

// Problem is a structured HTTP error body (application/problem+json,
// RFC 9457 shape). Synthesis failures map through the internal/synerr
// taxonomy:
//
//	ErrInfeasible  → 422 unprocessable (the instance has no solution)
//	ErrUnroutable  → 422 unprocessable (no admissible channel path)
//	ErrDeadline    → 504 gateway timeout (budget exhausted server-side)
//	client cancel  → 499 client closed request
//
// Admission failures use 429 (rate limit / queue full, with Retry-After)
// and 503 (draining); malformed requests use 400, an oversized body 413
// and a value outside the request bounds 422.
type Problem struct {
	Type   string `json:"type"`
	Title  string `json:"title"`
	Status int    `json:"status"`
	Detail string `json:"detail,omitempty"`
	// Phase is the pipeline phase a synthesis error originated in
	// ("schedule", "place", "milp", "route"), when known.
	Phase string `json:"phase,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// problemFor classifies a synthesis error. clientCancelled marks jobs the
// client itself cancelled, which outrank the generic deadline mapping.
func problemFor(err error, clientCancelled bool) Problem {
	p := Problem{Phase: synerr.Phase(err)}
	switch {
	case clientCancelled:
		p.Type, p.Title, p.Status = "cancelled", "job cancelled by client", StatusClientClosedRequest
	case errors.Is(err, synerr.ErrInfeasible):
		p.Type, p.Title, p.Status = "infeasible", "synthesis infeasible", http.StatusUnprocessableEntity
	case errors.Is(err, synerr.ErrUnroutable):
		p.Type, p.Title, p.Status = "unroutable", "transport unroutable", http.StatusUnprocessableEntity
	case errors.Is(err, synerr.ErrDeadline):
		p.Type, p.Title, p.Status = "deadline", "synthesis deadline exceeded", http.StatusGatewayTimeout
	default:
		p.Type, p.Title, p.Status = "internal", "synthesis failed", http.StatusInternalServerError
	}
	if err != nil {
		p.Detail = err.Error()
	}
	return p
}

// writeProblem sends p as application/problem+json, setting Retry-After
// when the problem carries one.
func writeProblem(w http.ResponseWriter, p Problem) {
	w.Header().Set("Content-Type", "application/problem+json")
	if p.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(p.RetryAfterSeconds))
	}
	w.WriteHeader(p.Status)
	json.NewEncoder(w).Encode(p)
}

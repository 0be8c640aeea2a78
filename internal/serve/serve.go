// Package serve is the synthesis-as-a-service tier: it composes the
// deterministic synthesis engine (core.SynthesizeCtx), the canonical
// request fingerprints of internal/verify and the live progress bus of
// internal/obs into a long-running HTTP daemon (cmd/mfserved).
//
// Architecture — one Server owns four cooperating pieces:
//
//	admission   per-client token buckets; empty bucket → 429 + Retry-After
//	queue       bounded FIFO; full queue sheds with 429 instead of collapsing
//	workers     a fixed fleet of goroutines running SynthesizeCtx; in-flight
//	            synthesis never exceeds the worker count
//	cache       LRU of completed results keyed by the canonical request
//	            fingerprint — safe because the engine is deterministic:
//	            equal fingerprints imply bit-identical results
//
// Identical concurrent submissions coalesce onto one Job (one synthesis,
// N waiters); identical later submissions hit the cache. Both paths
// return the same bytes a fresh run would, provable via the result
// fingerprint in every response.
//
// Lifecycle: New starts the fleet; Drain stops intake (new submissions
// get 503), lets queued and running jobs finish within the drain grace,
// then cancels stragglers through their contexts; Close is an immediate
// drain with no grace.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/par"
	"mfsynth/internal/verify"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the synthesis fleet size (0 = runtime.GOMAXPROCS). Each
	// worker runs one job at a time with Workers=1 synthesis-internal
	// parallelism, so the fleet size is the process's synthesis budget.
	Workers int
	// QueueDepth bounds the job queue (default 64). A full queue sheds
	// new work with 429 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 512; 0 disables).
	CacheEntries int
	// RatePerSec is the per-client token refill rate (0 = no limiting).
	RatePerSec float64
	// Burst is the per-client bucket size (default 16 when limiting).
	Burst int
	// MaxJobRecords bounds retained job metadata, completed jobs
	// included (default 4096); the oldest finished jobs are forgotten
	// first. Queued or running jobs are never evicted.
	MaxJobRecords int
	// DefaultDeadline caps each job's synthesis wall-clock when the
	// request does not set one (0 = unbounded).
	DefaultDeadline time.Duration
	// OnJobDone, when set, observes every job that reaches a terminal
	// state (done, failed or cancelled — cache-hit jobs included). It is
	// called from worker goroutines and must be safe for concurrent use;
	// cmd/mfserved points it at the job-log sink.
	OnJobDone func(JobView)
}

func (c Config) withDefaults() Config {
	c.Workers = par.Workers(c.Workers)
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.Burst == 0 {
		c.Burst = 16
	}
	if c.MaxJobRecords == 0 {
		c.MaxJobRecords = 4096
	}
	return c
}

// Stats is the /v1/stats payload. Counter identities the load harness
// asserts: Submitted = Accepted + ShedQueueFull + ShedRateLimited +
// ShedDraining + BadRequests, Accepted = Fresh + Coalesced + CacheHits,
// and PeakRunning ≤ Workers.
type Stats struct {
	Workers     int  `json:"workers"`
	QueueDepth  int  `json:"queue_depth"`
	QueueCap    int  `json:"queue_cap"`
	Running     int  `json:"running"`
	PeakRunning int  `json:"peak_running"`
	Draining    bool `json:"draining"`

	Submitted      int64 `json:"submitted"`
	Accepted       int64 `json:"accepted"`
	Fresh          int64 `json:"fresh"`
	Coalesced      int64 `json:"coalesced"`
	CacheHits      int64 `json:"cache_hits"`
	CacheEntries   int   `json:"cache_entries"`
	CacheCap       int   `json:"cache_cap"`
	CacheEvictions int64 `json:"cache_evictions"`

	ShedQueueFull   int64 `json:"shed_queue_full"`
	ShedRateLimited int64 `json:"shed_rate_limited"`
	ShedDraining    int64 `json:"shed_draining"`
	BadRequests     int64 `json:"bad_requests"`

	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// Server is one synthesis service instance.
type Server struct {
	cfg     Config
	queue   *jobQueue
	cache   *resultCache
	limiter *rateLimiter

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string // creation order, for bounded retention
	inflight map[string]*Job
	nextID   int64
	draining bool

	// metrics is the one store of the server's counters: Stats and
	// GET /metrics both read it. running is the live serve_running gauge;
	// its high-water mark is Stats.PeakRunning.
	metrics *obs.Metrics
	running *obs.Gauge

	submitted, accepted, fresh           *obs.Counter
	coalesced, cacheHits, cacheEvictions *obs.Counter
	shedQueueFull, shedRateLimited       *obs.Counter
	shedDraining, badRequests            *obs.Counter
	completed, failed, cancelled         *obs.Counter
}

// New builds a Server and starts its worker fleet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := obs.NewMetrics()
	s := &Server{
		cfg:        cfg,
		queue:      newJobQueue(cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheEntries),
		limiter:    newRateLimiter(cfg.RatePerSec, cfg.Burst),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),

		metrics:         m,
		running:         m.Gauge("serve_running"),
		submitted:       m.Counter("serve_submitted_total"),
		accepted:        m.Counter("serve_accepted_total"),
		fresh:           m.Counter("serve_fresh_total"),
		coalesced:       m.Counter("serve_coalesced_total"),
		cacheHits:       m.Counter("serve_cache_hits_total"),
		cacheEvictions:  m.Counter("serve_cache_evictions_total"),
		shedQueueFull:   m.Counter("serve_shed_queue_full_total"),
		shedRateLimited: m.Counter("serve_shed_rate_limited_total"),
		shedDraining:    m.Counter("serve_shed_draining_total"),
		badRequests:     m.Counter("serve_bad_requests_total"),
		completed:       m.Counter("serve_completed_total"),
		failed:          m.Counter("serve_failed_total"),
		cancelled:       m.Counter("serve_cancelled_total"),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SubmitOutcome classifies what happened to a submission.
type SubmitOutcome int

// Submission outcomes.
const (
	// SubmitQueued: a fresh job was enqueued.
	SubmitQueued SubmitOutcome = iota
	// SubmitCoalesced: an identical job is already queued or running;
	// the submission shares it.
	SubmitCoalesced
	// SubmitCached: the result cache held the answer; the returned job
	// is already done.
	SubmitCached
	// SubmitShedQueueFull: the queue is full; retry later.
	SubmitShedQueueFull
	// SubmitShedRateLimited: the client is over its rate; retry later.
	SubmitShedRateLimited
	// SubmitShedDraining: the server is shutting down.
	SubmitShedDraining
)

// Submit runs admission control and either returns the job the
// submission landed on (queued, coalesced or cached) or a shed outcome
// with a Retry-After hint. client identifies the rate-limit bucket.
func (s *Server) Submit(client string, a *graph.Assay, opts core.Options, deadline time.Duration) (*Job, SubmitOutcome, time.Duration, error) {
	s.submitted.Add(1)
	if ok, retry := s.limiter.Allow(client); !ok {
		s.shedRateLimited.Add(1)
		return nil, SubmitShedRateLimited, retry, nil
	}
	fp, err := verify.RequestFingerprint(a, opts)
	if err != nil {
		s.badRequests.Add(1)
		return nil, SubmitQueued, 0, fmt.Errorf("serve: unfingerprintable request: %w", err)
	}
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shedDraining.Add(1)
		return nil, SubmitShedDraining, 0, nil
	}
	// Coalesce onto an identical in-flight job: one synthesis, N waiters.
	// A job already cancelled while queued is skipped — a new submission
	// should not inherit someone else's cancellation.
	if j, ok := s.inflight[fp]; ok && !j.State().Terminal() {
		j.attach()
		s.mu.Unlock()
		s.accepted.Add(1)
		s.coalesced.Add(1)
		return j, SubmitCoalesced, 0, nil
	}
	// Result cache: a completed identical request answers instantly with
	// the bit-identical result (equal fingerprints ⇒ equal results).
	if res, ok := s.cache.Get(fp); ok {
		id := s.newJobIDLocked()
		j := newJob(s.baseCtx, id, fp, a, opts, 0)
		j.cacheHit = true
		s.rememberLocked(j)
		s.mu.Unlock()
		j.finish(StateDone, res, nil)
		s.accepted.Add(1)
		s.cacheHits.Add(1)
		s.completed.Add(1)
		s.notifyDone(j)
		return j, SubmitCached, 0, nil
	}
	id := s.newJobIDLocked()
	j := newJob(s.baseCtx, id, fp, a, opts, deadline)
	s.inflight[fp] = j
	s.rememberLocked(j)
	s.mu.Unlock()

	ok, closed := s.queue.TryPush(j)
	if !ok {
		s.forgetJob(j, fp)
		if closed {
			s.shedDraining.Add(1)
			return nil, SubmitShedDraining, 0, nil
		}
		s.shedQueueFull.Add(1)
		return nil, SubmitShedQueueFull, time.Second, nil
	}
	s.accepted.Add(1)
	s.fresh.Add(1)
	return j, SubmitQueued, 0, nil
}

// newJobIDLocked mints the next job id; callers hold s.mu.
func (s *Server) newJobIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j%06d", s.nextID)
}

// rememberLocked records the job and evicts the oldest finished records
// beyond MaxJobRecords; callers hold s.mu.
func (s *Server) rememberLocked(j *Job) {
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	if len(s.jobOrder) <= s.cfg.MaxJobRecords {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - s.cfg.MaxJobRecords
	for _, id := range s.jobOrder {
		if excess > 0 {
			if old, ok := s.jobs[id]; ok && old.State().Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// forgetJob removes a job that never entered the queue (shed after
// reservation), undoing its registration.
func (s *Server) forgetJob(j *Job, fp string) {
	s.mu.Lock()
	if s.inflight[fp] == j {
		delete(s.inflight, fp)
	}
	delete(s.jobs, j.ID)
	for i, id := range s.jobOrder {
		if id == j.ID {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job by id. The second result reports whether the job
// exists, the first whether the cancel had any effect.
func (s *Server) Cancel(id string) (cancelled, found bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	return j.Cancel(), true
}

// worker is one fleet goroutine: it drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.Chan() {
		s.runJob(j)
	}
}

// runJob executes one job end to end and publishes its terminal state.
func (s *Server) runJob(j *Job) {
	if !j.start() {
		// Cancelled while queued (or already terminal); account for it.
		s.cancelled.Add(1)
		j.finish(StateCancelled, nil, context.Cause(j.ctx))
		s.dropInflight(j)
		s.notifyDone(j)
		return
	}
	s.running.Add(1)
	opts := j.opts
	opts.Workers = 1 // the fleet, not one synthesis, owns the parallelism budget
	res, err := core.SynthesizeCtx(j.ctx, j.assay, opts)
	s.running.Add(-1)

	// Each terminal state is counted before the job publishes it, so a
	// client that sees the job finish also sees it in Stats.
	switch {
	case err == nil:
		view := viewOf(res)
		s.cacheEvictions.Add(int64(s.cache.Put(j.Fingerprint, view)))
		s.dropInflight(j)
		s.completed.Add(1)
		j.finish(StateDone, view, nil)
	case j.clientCancelled():
		s.dropInflight(j)
		s.cancelled.Add(1)
		j.finish(StateCancelled, nil, err)
	default:
		s.dropInflight(j)
		s.failed.Add(1)
		j.finish(StateFailed, nil, err)
	}
	s.notifyDone(j)
}

// notifyDone delivers the terminal JobView to the configured observer.
func (s *Server) notifyDone(j *Job) {
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone(j.View())
	}
}

// dropInflight unregisters the job from the coalescing table.
func (s *Server) dropInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Fingerprint] == j {
		delete(s.inflight, j.Fingerprint)
	}
	s.mu.Unlock()
}

// viewOf flattens a core.Result into the wire form, stamping the result
// fingerprint that proves bit-identity across cache and coalesce paths.
func viewOf(res *core.Result) *ResultView {
	v := &ResultView{
		Fingerprint:    verify.Fingerprint(res),
		Makespan:       res.Schedule.Makespan,
		VsMax1:         res.VsMax1,
		VsPump1:        res.VsPump1,
		VsMax2:         res.VsMax2,
		VsPump2:        res.VsPump2,
		UsedValves:     res.UsedValves,
		RuntimeSeconds: res.Runtime.Seconds(),
		PhaseSeconds:   res.PhaseSeconds,
		Backend:        res.Backend,
		Race:           res.Race,
	}
	if res.Degraded() {
		v.Degraded = true
		v.Degradation = res.Degradation.String()
	}
	return v
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		Workers:         s.cfg.Workers,
		QueueDepth:      s.queue.Len(),
		QueueCap:        s.queue.Cap(),
		Running:         int(s.running.Value()),
		PeakRunning:     int(s.running.Max()),
		Draining:        draining,
		Submitted:       s.submitted.Value(),
		Accepted:        s.accepted.Value(),
		Fresh:           s.fresh.Value(),
		Coalesced:       s.coalesced.Value(),
		CacheHits:       s.cacheHits.Value(),
		CacheEntries:    s.cache.Len(),
		CacheCap:        s.cache.Cap(),
		CacheEvictions:  s.cacheEvictions.Value(),
		ShedQueueFull:   s.shedQueueFull.Value(),
		ShedRateLimited: s.shedRateLimited.Value(),
		ShedDraining:    s.shedDraining.Value(),
		BadRequests:     s.badRequests.Value(),
		Completed:       s.completed.Value(),
		Failed:          s.failed.Value(),
		Cancelled:       s.cancelled.Value(),
	}
}

// Metrics returns the server-level obs registry backing GET /metrics. The
// counters and the running gauge live in it and are the same instruments
// Stats reads, so the two endpoints can never disagree; the state gauges
// (workers, queue, cache, draining, running peak) are refreshed on each
// call. Per-job traces (which feed the /events SSE stream) are
// deliberately separate.
func (s *Server) Metrics() *obs.Metrics {
	st := s.Stats()
	m := s.metrics
	m.Gauge("serve_workers").Set(int64(st.Workers))
	m.Gauge("serve_queue_depth").Set(int64(st.QueueDepth))
	m.Gauge("serve_queue_cap").Set(int64(st.QueueCap))
	m.Gauge("serve_running_peak").Set(int64(st.PeakRunning))
	m.Gauge("serve_cache_entries").Set(int64(st.CacheEntries))
	m.Gauge("serve_cache_cap").Set(int64(st.CacheCap))
	var draining int64
	if st.Draining {
		draining = 1
	}
	m.Gauge("serve_draining").Set(draining)
	return m
}

// CountBadRequest records a request rejected before Submit (parse errors
// in the HTTP layer), keeping the Submitted identity intact.
func (s *Server) CountBadRequest() {
	s.submitted.Add(1)
	s.badRequests.Add(1)
}

// Drain gracefully shuts the fleet down: stop accepting, let queued and
// running jobs finish, and when ctx expires cancel the stragglers through
// their contexts and wait for the workers to exit. It returns nil when
// every job finished on its own, or ctx.Err() when the grace ran out
// (jobs were then cancelled, each still receiving a structured
// cancellation response).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cut every job context; workers wind down
		<-done
		return ctx.Err()
	}
}

// Close is an immediate Drain: intake stops and every job is cancelled.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.Close()
	s.baseCancel()
	s.wg.Wait()
}

package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → one of {done, failed, cancelled}; a queued job may
// also go straight to cancelled.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ResultView is the JSON-marshalable summary of a completed synthesis —
// the paper's Table 1 metrics, the degradation report, and the canonical
// result fingerprint that proves cached and coalesced responses are
// bit-identical to a fresh run.
type ResultView struct {
	// Fingerprint is verify.Fingerprint of the full result: the SHA-256
	// over every decision (schedule, placement, routing, events, metrics).
	Fingerprint string `json:"fingerprint"`

	Makespan   int `json:"makespan"`
	VsMax1     int `json:"vs_max1"`
	VsPump1    int `json:"vs_pump1"`
	VsMax2     int `json:"vs_max2"`
	VsPump2    int `json:"vs_pump2"`
	UsedValves int `json:"used_valves"`

	Degraded    bool   `json:"degraded,omitempty"`
	Degradation string `json:"degradation,omitempty"`

	// Backend names the producer of the result's mapping; Race itemises
	// the nominal candidates when two or more ran.
	Backend string           `json:"backend,omitempty"`
	Race    *core.RaceReport `json:"race,omitempty"`

	// RuntimeSeconds is this job's synthesis wall-clock; zero when the
	// response was served from the result cache.
	RuntimeSeconds float64            `json:"runtime_seconds,omitempty"`
	PhaseSeconds   map[string]float64 `json:"phase_seconds,omitempty"`
}

// Job is one synthesis submission moving through the queue. Coalesced
// duplicate submissions share a single Job (and hence a single synthesis);
// a cache hit produces a Job born directly in StateDone.
type Job struct {
	// Immutable after creation.
	ID          string
	Fingerprint string
	assay       *graph.Assay
	opts        core.Options
	trace       *obs.Trace // per-job trace: its progress bus feeds /events
	ctx         context.Context
	cancel      context.CancelCauseFunc

	mu         sync.Mutex
	state      State
	result     *ResultView
	err        error
	cacheHit   bool
	coalesced  int64 // extra submissions sharing this job
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	done       chan struct{} // closed exactly once, on the terminal transition
}

// errClientCancelled is the cancellation cause of a DELETE /v1/jobs/{id}:
// it distinguishes "the client gave up" (499) from a server-side deadline
// (504) in the problem mapping.
var errClientCancelled = errors.New("cancelled by client")

// newJob builds a queued job owning its own cancellable context (derived
// from base, so a server drain can cut every job at once) and a per-job
// trace with the progress bus enabled for the /events SSE stream.
func newJob(base context.Context, id, fp string, a *graph.Assay, opts core.Options, deadline time.Duration) *Job {
	ctx, cancelCause := context.WithCancelCause(base)
	stop := func() {}
	if deadline > 0 {
		ctx, stop = context.WithTimeout(ctx, deadline)
	}
	cancel := func(cause error) {
		cancelCause(cause)
		stop()
	}
	tr := obs.New()
	tr.EnableProgress()
	opts.Trace = tr
	return &Job{
		ID:          id,
		Fingerprint: fp,
		assay:       a,
		opts:        opts,
		trace:       tr,
		ctx:         ctx,
		cancel:      cancel,
		state:       StateQueued,
		queuedAt:    time.Now(),
		done:        make(chan struct{}),
	}
}

// Progress exposes the job's live progress bus (never nil).
func (j *Job) Progress() *obs.ProgressBus { return j.trace.ProgressBus() }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start moves queued → running; it reports false when the job was
// cancelled while waiting in the queue (the worker must skip it).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.ctx.Err() != nil {
		return false
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	return true
}

// finish records the terminal state exactly once; later calls no-op, so a
// racing cancel and worker completion cannot double-close done.
func (j *Job) finish(state State, res *ResultView, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.err = err
	j.finishedAt = time.Now()
	close(j.done)
	j.mu.Unlock()
	j.cancel(nil)
}

// Cancel requests cancellation: a queued job is finished as cancelled on
// the spot, a running one has its context cut (the worker then records the
// terminal state). Reports whether the request had any effect.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return false
	case j.state == StateQueued:
		j.state = StateCancelled
		j.err = context.Canceled
		j.finishedAt = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel(errClientCancelled)
		return true
	default: // running
		j.mu.Unlock()
		j.cancel(errClientCancelled)
		return true
	}
}

// clientCancelled reports whether the job's context was cut by Cancel (as
// opposed to a deadline or a server drain).
func (j *Job) clientCancelled() bool {
	return context.Cause(j.ctx) == errClientCancelled && j.ctx.Err() != nil
}

// attach registers one more coalesced submission sharing this job.
func (j *Job) attach() {
	j.mu.Lock()
	j.coalesced++
	j.mu.Unlock()
}

// JobView is the JSON representation of a job's current state.
type JobView struct {
	ID          string      `json:"id"`
	State       State       `json:"state"`
	Fingerprint string      `json:"fingerprint"`
	CacheHit    bool        `json:"cache_hit,omitempty"`
	Coalesced   int64       `json:"coalesced,omitempty"`
	QueuedAt    time.Time   `json:"queued_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Result      *ResultView `json:"result,omitempty"`
	Error       *Problem    `json:"error,omitempty"`
}

// View snapshots the job for JSON serialisation.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		State:       j.state,
		Fingerprint: j.Fingerprint,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		QueuedAt:    j.queuedAt,
		Result:      j.result,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.err != nil {
		p := problemFor(j.err, j.state == StateCancelled)
		v.Error = &p
	}
	return v
}

// Package par is the shared deterministic parallelism layer of the
// synthesis engine: a bounded fork/join worker pool with ordered fan-out
// and fan-in.
//
// Map and MapCtx take an explicit worker count (resolve a user knob with
// Workers first; a count of 1 or less runs inline with no goroutines) and
// return results in input-index order, so callers that merge results by
// scanning the returned slice front to back observe exactly the order a
// serial loop would have produced. Determinism of the *merge* is
// therefore the caller's only obligation; the scheduling of the work
// itself is free to be arbitrary.
//
// A panicking task does not crash the pool or deadlock it: panics are
// recovered per task, the remaining tasks still run, and after the join
// the panic surfaces as a *TaskPanic error return. When several tasks fail
// (by error or panic) the lowest index wins — the same index a serial loop
// would have died on, so the surfaced failure is deterministic regardless
// of worker count. Callers that must not continue past a panic match it
// with errors.As(err, &taskPanic).
//
// Pools are observable: attach an Observer with WithObserver to receive
// lifecycle callbacks (pool start/done, per-task start/done with the
// executing slot). The observability layer uses this to draw parallel
// work on per-worker tracks of the Chrome trace and to export queue-depth
// and busy-time metrics; with no observer attached the callbacks cost one
// nil check.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
)

// Workers resolves a worker-count knob: n if positive, otherwise
// runtime.GOMAXPROCS(0). A result of 1 means "run serially".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Observer receives worker-pool lifecycle callbacks. PoolStart is called
// once before any task with the resolved worker count (after clamping to
// the task count) and the number of tasks; TaskStart/TaskDone bracket
// each task on its executing worker goroutine (calls with equal slot
// never overlap); PoolDone is called once after the join, even when a
// task panicked.
//
// mfsynth/internal/obs.PoolObserver implements this interface.
type Observer interface {
	PoolStart(workers, tasks int)
	TaskStart(slot, i int)
	TaskDone(slot, i int)
	PoolDone()
}

// observerKey keys the Observer in a context.
type observerKey struct{}

// WithObserver attaches an Observer to the context for MapCtx.
// Callers holding a concrete observer pointer must guard against typed
// nils themselves (`if po != nil { ctx = par.WithObserver(ctx, po) }`) —
// a non-nil interface wrapping a nil pointer would be called.
func WithObserver(ctx context.Context, o Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, o)
}

// TaskPanic wraps a panic that escaped a pool task. It is returned as the
// pool's error after the join (never re-panicked), so a crashing task
// degrades into an ordinary error at the fan-in point instead of killing
// the process; Value is the original panic value and Stack the panicking
// task's stack trace.
type TaskPanic struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (p *TaskPanic) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", p.Index, p.Value)
}

// Map applies fn to every index in [0, n) using at most workers
// concurrent goroutines and returns the n results in index order.
//
// All indices are attempted even when some fail; the returned error is
// the lowest-index error (deterministic regardless of scheduling), with
// the full results slice still returned so callers can salvage partial
// work. With workers <= 1 (after Workers resolution the caller applies)
// everything runs inline on the calling goroutine.
func Map[R any](workers, n int, fn func(i int) (R, error)) ([]R, error) {
	return MapCtx[R](context.Background(), workers, n, fn)
}

// MapCtx is Map with context cancellation and observer support: indices
// not yet started when ctx is cancelled are skipped (their results stay
// zero) and the context error is returned unless an earlier per-index
// error takes precedence.
func MapCtx[R any](ctx context.Context, workers, n int, fn func(i int) (R, error)) ([]R, error) {
	results := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}
	if workers > n {
		workers = n
	}
	obs, _ := ctx.Value(observerKey{}).(Observer)
	panics := make([]*TaskPanic, n)
	run := func(slot, i int) {
		if obs != nil {
			obs.TaskStart(slot, i)
		}
		defer func() {
			if r := recover(); r != nil {
				panics[i] = &TaskPanic{Index: i, Value: r, Stack: debug.Stack()}
			}
			if obs != nil {
				obs.TaskDone(slot, i)
			}
		}()
		results[i], errs[i] = fn(i)
	}
	if obs != nil {
		obs.PoolStart(workers, n)
		defer obs.PoolDone()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				mergePanics(errs, panics)
				return results, firstError(errs, err)
			}
			run(0, i)
		}
		mergePanics(errs, panics)
		return results, firstError(errs, nil)
	}

	// One goroutine per slot pulling indices from a shared feed. The feed
	// is a plain channel of indices: order of *execution* is arbitrary,
	// order of *results* is fixed by the index-addressed slices. Each
	// worker runs under an mf_worker pprof label (on top of any labels
	// already on ctx, e.g. core's mf_phase), so CPU profiles attribute
	// samples to worker goroutines by slot.
	feed := make(chan int)
	done := make(chan struct{}, workers)
	for slot := 0; slot < workers; slot++ {
		go func(slot int) {
			defer func() { done <- struct{}{} }()
			pprof.Do(ctx, pprof.Labels("mf_worker", strconv.Itoa(slot)), func(context.Context) {
				for i := range feed {
					run(slot, i)
				}
			})
		}(slot)
	}
	var ctxErr error
feedLoop:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feedLoop
		}
	}
	close(feed)
	for slot := 0; slot < workers; slot++ {
		<-done
	}
	mergePanics(errs, panics)
	return results, firstError(errs, ctxErr)
}

// mergePanics folds recovered panics into the per-index error slice so the
// normal lowest-index-wins selection applies. A panicking fn never reached
// its return, so errs[i] is guaranteed nil where panics[i] is set.
func mergePanics(errs []error, panics []*TaskPanic) {
	for i, p := range panics {
		if p != nil {
			errs[i] = p
		}
	}
}

// firstError returns the lowest-index non-nil error, falling back to tail
// (typically a context error) when every index succeeded.
func firstError(errs []error, tail error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return tail
}

package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d", got)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		want := errors.New("boom-3")
		_, err := Map(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, want
			case 7:
				return 0, errors.New("boom-7")
			}
			return i, nil
		})
		if err != want {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
	}
}

func TestMapAllIndicesRunDespiteError(t *testing.T) {
	var mu sync.Mutex
	ran := make(map[int]bool)
	_, err := Map(4, 20, func(i int) (int, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 0 {
			return 0, fmt.Errorf("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if len(ran) != 20 {
		t.Fatalf("only %d/20 indices ran", len(ran))
	}
}

// slotObserver checks the Observer contract the per-worker trace tracks
// rely on: TaskStart/TaskDone calls with equal slot never overlap, and
// every slot lies in [0, workers).
type slotObserver struct {
	mu      sync.Mutex
	workers int
	busy    []bool
	err     error
}

func (o *slotObserver) PoolStart(workers, tasks int) {
	o.workers = workers
	o.busy = make([]bool, workers)
}

func (o *slotObserver) TaskStart(slot, i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case slot < 0 || slot >= o.workers:
		o.fail(fmt.Errorf("task %d on slot %d outside [0, %d)", i, slot, o.workers))
	case o.busy[slot]:
		o.fail(fmt.Errorf("slot %d reentered by task %d", slot, i))
	default:
		o.busy[slot] = true
	}
}

func (o *slotObserver) TaskDone(slot, i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if slot >= 0 && slot < o.workers {
		o.busy[slot] = false
	}
}

func (o *slotObserver) PoolDone() {}

// fail records the first violation; o.mu must be held.
func (o *slotObserver) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

func TestMapSlotExclusive(t *testing.T) {
	const workers = 4
	o := &slotObserver{}
	var inFlight atomic.Int32
	all := make(chan struct{})
	_, err := MapCtx(WithObserver(context.Background(), o), workers, 200, func(i int) (int, error) {
		if i < workers {
			// The first tasks wait until all of them run at once, so every
			// worker holds one and their slots must differ.
			if inFlight.Add(1) == workers {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				return 0, fmt.Errorf("task %d: only %d of %d tasks ran at once", i, inFlight.Load(), workers)
			}
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.workers != workers {
		t.Fatalf("PoolStart saw %d workers, want %d", o.workers, workers)
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
}

func TestMapCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	_, err := MapCtx(ctx, 1, 1000, cancelAfter(&started, cancel))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started >= 1000 {
		t.Fatalf("cancellation did not stop the feed (started %d)", started)
	}
}

// cancelAfter builds a work fn that cancels the context after 5 items.
func cancelAfter(started *int, cancel context.CancelFunc) func(int) (int, error) {
	return func(i int) (int, error) {
		*started++
		if *started == 5 {
			cancel()
		}
		return i, nil
	}
}

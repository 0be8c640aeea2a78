package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapEmptyInput covers the n=0 edge: no goroutines, no results, no
// error, regardless of the worker knob.
func TestMapEmptyInput(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		out, err := Map(workers, 0, func(i int) (int, error) {
			t.Fatal("fn called for empty input")
			return 0, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 0 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
	}
}

// TestPanicPropagation verifies the pool's panic contract: a panicking task
// neither crashes the worker goroutines nor deadlocks the join, never
// re-panics on the caller, every other task still runs, and after the join
// the panic surfaces as a *TaskPanic error with the lowest panicking index
// — the index a serial loop would have died on.
func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("workers=%d: Map re-panicked with %v, want error return", workers, r)
					done <- nil
				}
			}()
			_, err := Map(workers, 20, func(i int) (int, error) {
				ran.Add(1)
				if i == 7 || i == 13 {
					panic(i)
				}
				return i, nil
			})
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: pool deadlocked after task panic", workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: Map returned nil error despite panicking tasks", workers)
		}
		var tp *TaskPanic
		if !errors.As(err, &tp) {
			t.Fatalf("workers=%d: error %T (%v) does not unwrap to *TaskPanic", workers, err, err)
		}
		if tp.Index != 7 || tp.Value != 7 {
			t.Fatalf("workers=%d: TaskPanic{Index:%d, Value:%v}, want index 7",
				workers, tp.Index, tp.Value)
		}
		if len(tp.Stack) == 0 || !strings.Contains(tp.Error(), "task 7 panicked") {
			t.Fatalf("workers=%d: incomplete TaskPanic: %q (stack %d bytes)",
				workers, tp.Error(), len(tp.Stack))
		}
		if got := ran.Load(); got != 20 {
			t.Fatalf("workers=%d: only %d/20 tasks ran", workers, got)
		}
	}
}

// BenchmarkMapFanout measures the pool's per-task overhead against the
// inline (workers=1) path on a tiny CPU-bound work function.
func BenchmarkMapFanout(b *testing.B) {
	work := func(i int) (int, error) {
		s := 0
		for k := 0; k < 256; k++ {
			s += k * i
		}
		return s, nil
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers4"}[workers], func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := Map(workers, 64, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

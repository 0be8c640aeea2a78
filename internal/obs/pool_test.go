package obs

// The pool tests exercise the PoolObserver against the real worker pool:
// importing par here is cycle-free because par never imports obs — the
// adapter satisfies par.Observer structurally.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"mfsynth/internal/par"
)

// runPool runs no-op tasks through the worker pool.
func runPool(ctx context.Context, workers, tasks int) error {
	_, err := par.MapCtx(ctx, workers, tasks, func(i int) (struct{}, error) {
		return struct{}{}, nil
	})
	return err
}

// poolShape runs tasks through an observed pool and returns the span tree
// as sorted "name<-parentName" edges — the scheduling-independent shape.
func poolShape(t *testing.T, workers, tasks int) []string {
	t.Helper()
	tr := New()
	root := tr.Start("synthesize")
	ctx := context.Background()
	if po := tr.Pool(root, "variant"); po != nil {
		ctx = par.WithObserver(ctx, po)
	}
	if err := runPool(ctx, workers, tasks); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, _, _ := tr.snapshot()
	byID := map[int]*Span{}
	for _, sp := range spans {
		byID[sp.id] = sp
	}
	var edges []string
	for _, sp := range spans {
		parent := "-"
		if p, ok := byID[sp.parent]; ok {
			parent = p.name
		}
		edges = append(edges, sp.name+"<-"+parent)
	}
	sort.Strings(edges)
	return edges
}

// TestPoolSpanShapeDeterministic: the span tree shape (names and parent
// edges) is identical across worker counts and repeated runs — only which
// wN track a task lands on may differ.
func TestPoolSpanShapeDeterministic(t *testing.T) {
	const tasks = 24
	want := poolShape(t, 1, tasks)
	// tasks + pool + root spans in every run.
	if len(want) != tasks+2 {
		t.Fatalf("serial run produced %d spans, want %d", len(want), tasks+2)
	}
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			got := poolShape(t, workers, tasks)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d rep=%d: span shape diverged\ngot  %v\nwant %v",
					workers, rep, got, want)
			}
		}
	}
}

// TestPoolMetrics: the observer's queue gauge drains to zero with the task
// count as high-water mark, and busy-time counters exist per used slot.
func TestPoolMetrics(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	po := tr.Pool(root, "task")
	if po == nil {
		t.Fatal("Pool returned nil for a live trace")
	}
	ctx := par.WithObserver(context.Background(), po)
	if err := runPool(ctx, 2, 9); err != nil {
		t.Fatal(err)
	}
	root.End()

	m := tr.Metrics()
	if q := m.Gauge("par_queue_depth"); q.Value() != 0 || q.Max() != 9 {
		t.Fatalf("queue gauge value=%d max=%d, want 0 and 9", q.Value(), q.Max())
	}
	if n := m.Counter("par_tasks_total").Value(); n != 9 {
		t.Fatalf("par_tasks_total = %d, want 9", n)
	}
	// Which slots ran tasks is scheduling-dependent (a fast worker may
	// drain the whole feed), but every task accrues into some wN counter.
	snap := m.Snapshot()
	found := false
	for name := range snap.Counters {
		if len(name) > 5 && name[:5] == "par_w" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-worker busy-time counter in %v", snap.Counters)
	}
}

// TestPoolTaskTracks: with more than one worker the task spans land on
// per-worker wN tracks, nested under the pool span.
func TestPoolTaskTracks(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	ctx := par.WithObserver(context.Background(), tr.Pool(root, "task"))
	if err := runPool(ctx, 3, 12); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, _, tracks := tr.snapshot()
	byID := map[int]*Span{}
	for _, sp := range spans {
		byID[sp.id] = sp
	}
	workerTracks := map[string]bool{}
	taskSpans := 0
	for _, sp := range spans {
		// Task spans are the ones nested under the pool span (which shares
		// their label but hangs off the root).
		p, ok := byID[sp.parent]
		if !ok || p.name != "task" {
			continue
		}
		taskSpans++
		name := tracks[sp.track]
		if len(name) < 2 || name[0] != 'w' {
			t.Fatalf("task span on track %q, want wN", name)
		}
		workerTracks[name] = true
	}
	if taskSpans != 12 || len(workerTracks) == 0 {
		t.Fatalf("%d task spans on %d worker tracks", taskSpans, len(workerTracks))
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/grid"
	"mfsynth/internal/milp"
	"mfsynth/internal/place"
	"mfsynth/internal/route"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// cancelled returns an already-dead context.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestSynthesizeCtxCancelled: a pre-cancelled context must return promptly
// with an ErrDeadline-compatible error from the first phase, not burn
// through the fallback tiers or produce a partial result.
func TestSynthesizeCtxCancelled(t *testing.T) {
	c := assays.PCR()
	res, err := SynthesizeCtx(cancelled(), c.Assay, Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
	})
	if err == nil {
		t.Fatal("cancelled synthesis returned a result")
	}
	if res != nil {
		t.Fatal("cancelled synthesis returned a non-nil result alongside the error")
	}
	if !errors.Is(err, synerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline compatibility", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
	if ph := synerr.Phase(err); ph != "schedule" {
		t.Errorf("phase = %q, want %q (the first phase must notice)", ph, "schedule")
	}
}

// TestPhaseCancellation checks each pipeline phase in isolation: schedule,
// place, the branch-and-bound solver, and routing all return an
// ErrDeadline-compatible error from an already-cancelled context.
func TestPhaseCancellation(t *testing.T) {
	c := assays.PCR()
	opts := Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
	}

	t.Run("schedule", func(t *testing.T) {
		_, err := schedule.ListCtx(cancelled(), c.Assay, schedule.Options{Resources: opts.Policy})
		if !errors.Is(err, synerr.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
	})

	sched, err := schedule.List(c.Assay, schedule.Options{Resources: opts.Policy})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("place", func(t *testing.T) {
		_, err := place.MapCtx(cancelled(), sched, opts.Place)
		if !errors.Is(err, synerr.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
	})

	t.Run("milp", func(t *testing.T) {
		m := milp.NewModel()
		x := m.AddBinary("x", 1)
		y := m.AddBinary("y", 1)
		m.AddRow([]milp.Term{milp.T(x, 1), milp.T(y, 1)}, milp.GE, 1)
		_, err := m.Solve(milp.Options{Ctx: cancelled()})
		if !errors.Is(err, synerr.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
	})

	t.Run("route", func(t *testing.T) {
		full, err := SynthesizeCtx(context.Background(), c.Assay, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{
			Assay:    full.Assay,
			Schedule: full.Schedule,
			Mapping:  full.Mapping,
			Grid:     full.Grid,
			opts:     full.opts,
		}
		err = res.routeAndSimulate(cancelled(), nil)
		if !errors.Is(err, synerr.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		if ph := synerr.Phase(err); ph != "route" {
			t.Errorf("phase = %q, want %q", ph, "route")
		}
	})
}

// TestRouteNetMaxRipups: the rip-up budget must come from Options.MaxRipups
// — a budget of one attempt fails on a net that needs a rip-up, while the
// default (8) succeeds with a detour.
func TestRouteNetMaxRipups(t *testing.T) {
	mkNet := func(r *Result, id int) net {
		return net{
			t:    r.Mapping.Windows[id][0] + 1,
			from: []grid.Point{{X: 0, Y: 4}}, to: []grid.Point{{X: 9, Y: 4}},
			fromName: "left", toName: "right", fromID: -1, toID: -1,
			exclude: map[int]bool{},
		}
	}

	// Budget 1: the only attempt crosses the full storage and is ripped
	// up; there is no second attempt.
	r, pl := fullStorageResult(t)
	id := opID(t, r, "mC")
	r.opts.MaxRipups = 1
	router := route.New(grid.RectWH(0, 0, 10, 10))
	router.AddStorage(id, pl.Footprint())
	n := mkNet(r, id)
	if _, err := r.routeNet(router, n, n.t, &routeObs{}); !errors.Is(err, route.ErrNoPath) {
		t.Fatalf("MaxRipups=1: err = %v, want ErrNoPath", err)
	}

	// Default options: the budget of 8 lets the rip-up succeed with a
	// detour around the storage.
	r2, pl2 := fullStorageResult(t)
	id2 := opID(t, r2, "mC")
	router2 := route.New(grid.RectWH(0, 0, 10, 10))
	router2.AddStorage(id2, pl2.Footprint())
	n2 := mkNet(r2, id2)
	path, err := r2.routeNet(router2, n2, n2.t, &routeObs{})
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	for _, cell := range path {
		if pl2.Footprint().Contains(cell) {
			t.Fatalf("path crosses the full storage at %v", cell)
		}
	}
}

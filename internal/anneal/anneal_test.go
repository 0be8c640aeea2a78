package anneal_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mfsynth/internal/anneal"
	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
	"mfsynth/internal/verify"
)

// problemFor schedules a seeded random assay with one mixer per volume —
// the same policy the ablation sweep uses.
func problemFor(t *testing.T, seed int64, mixOps int) (*graph.Assay, *schedule.Result, schedule.Resources) {
	t.Helper()
	a := assays.Random(seed, assays.RandomOptions{MixOps: mixOps, Detects: 1})
	mixers := map[int]int{}
	for _, id := range a.MixOps() {
		mixers[a.Volume(id)] = 1
	}
	policy := schedule.Resources{Mixers: mixers, Detectors: 1}
	sched, err := schedule.List(a, schedule.Options{Resources: policy})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return a, sched, policy
}

// TestSeedDeterminismAcrossWorkers is the determinism contract: the same
// seed yields a bit-identical mapping and identical work counters whether
// the replicates run serially or on four workers, and across repeated
// serial runs.
func TestSeedDeterminismAcrossWorkers(t *testing.T) {
	_, sched, _ := problemFor(t, 7, 8)
	cfg := anneal.Config{
		Place:      place.Config{Grid: 12},
		Seed:       42,
		Replicates: 4,
		Iters:      400,
	}

	type run struct {
		m     *place.Mapping
		stats anneal.Stats
	}
	runAt := func(workers int) run {
		c := cfg
		c.Workers = workers
		m, stats, err := anneal.Map(sched, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return run{m, stats}
	}

	serial := runAt(1)
	again := runAt(1)
	parallel := runAt(4)

	for _, tc := range []struct {
		name  string
		other run
	}{
		{"serial rerun", again},
		{"workers=4", parallel},
	} {
		if !reflect.DeepEqual(serial.m.Placements, tc.other.m.Placements) {
			t.Errorf("%s: placements differ from the serial run", tc.name)
		}
		if serial.m.MaxPumpOps != tc.other.m.MaxPumpOps {
			t.Errorf("%s: MaxPumpOps = %d, serial %d",
				tc.name, tc.other.m.MaxPumpOps, serial.m.MaxPumpOps)
		}
		if !reflect.DeepEqual(serial.m.Dropped, tc.other.m.Dropped) {
			t.Errorf("%s: dropped sets differ", tc.name)
		}
		if serial.stats != tc.other.stats {
			t.Errorf("%s: stats = %+v, serial %+v", tc.name, tc.other.stats, serial.stats)
		}
	}
	if serial.stats.Iters == 0 || serial.stats.Improved == 0 {
		t.Errorf("degenerate run: stats = %+v", serial.stats)
	}
	if serial.stats.CutShort {
		t.Errorf("uncancelled run reports CutShort")
	}
}

// TestAcceptedStatesConformant replays accepted annealing states through
// the downstream pipeline: every state the walk ever accepts — the initial
// construction included — must finish into a mapping with zero storage
// violations and pass the full conformance catalogue after routing.
// Admissible-built states promise this by construction; the test is the
// promise's audit.
func TestAcceptedStatesConformant(t *testing.T) {
	a, sched, policy := problemFor(t, 3, 5)
	pcfg := place.Config{Grid: 10}

	var accepted []map[int]arch.Placement
	_, stats, err := anneal.Map(sched, anneal.Config{
		Place:      pcfg,
		Seed:       9,
		Replicates: 1,
		Iters:      150,
		Workers:    1, // AcceptHook requires serial replicates
		AcceptHook: func(fixed map[int]arch.Placement) {
			cl := make(map[int]arch.Placement, len(fixed))
			for k, v := range fixed {
				cl[k] = v
			}
			accepted = append(accepted, cl)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(accepted) == 0 {
		t.Fatal("AcceptHook never fired")
	}
	if int64(len(accepted)) != stats.Accepted+1 {
		// One hook call per acceptance plus the initial construction.
		t.Errorf("hook fired %d times, want %d accepted + 1 initial",
			len(accepted), stats.Accepted)
	}

	inst, err := place.NewInstance(sched, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Auditing every state would route the assay hundreds of times; an
	// evenly spaced sample including the first and last state keeps the
	// test fast while still covering the walk end to end.
	sample := accepted
	if len(sample) > 16 {
		step := len(accepted) / 15
		sample = nil
		for i := 0; i < len(accepted); i += step {
			sample = append(sample, accepted[i])
		}
		sample = append(sample, accepted[len(accepted)-1])
	}
	for i, fixed := range sample {
		m := inst.Finish(fixed, place.Stats{})
		if n := inst.StorageViolations(m); n > 0 {
			t.Fatalf("state %d: %d storage violations", i, n)
		}
		res, err := core.Complete(context.Background(), a, sched, m, core.Options{
			Policy: policy,
			Place:  pcfg,
		})
		if err != nil {
			t.Fatalf("state %d: complete: %v", i, err)
		}
		if rep := verify.Conformance(res); !rep.Clean() {
			t.Fatalf("state %d fails conformance:\n%s", i, rep)
		}
	}
}

// TestCostAgreesWithReport fuzzes 200 small assays and checks the
// annealer's internal objective against the downstream accounting: the
// winning Cost must equal the finished Mapping's MaxPumpOps, and the
// report-level pump figure must be exactly MaxPump × PumpActuations —
// the identity that ties the anneal objective to Table 1's VsPump1.
func TestCostAgreesWithReport(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	infeasible := 0
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		a, sched, policy := problemFor(t, seed, 3+i%4)
		m, stats, err := anneal.Map(sched, anneal.Config{
			Place:      place.Config{Grid: 12},
			Seed:       int64(i + 1),
			Replicates: 1,
			Iters:      40,
		})
		if errors.Is(err, synerr.ErrInfeasible) {
			// A drawn assay that does not fit the chip is a legitimate
			// outcome, not a cost disagreement — but it must stay rare or
			// the fuzz loses its teeth.
			infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("assay %d: %v", seed, err)
		}
		if stats.Best.MaxPump != m.MaxPumpOps {
			t.Fatalf("assay %d: Cost.MaxPump = %d, Mapping.MaxPumpOps = %d",
				seed, stats.Best.MaxPump, m.MaxPumpOps)
		}
		if stats.Best.Dropped != len(m.Dropped) {
			t.Fatalf("assay %d: Cost.Dropped = %d, len(Dropped) = %d",
				seed, stats.Best.Dropped, len(m.Dropped))
		}
		res, err := core.Complete(context.Background(), a, sched, m, core.Options{
			Policy: policy,
			Place:  place.Config{Grid: 12},
		})
		if err != nil {
			t.Fatalf("assay %d: complete: %v", seed, err)
		}
		if want := stats.Best.MaxPump * core.DefaultPumpActuations; res.VsPump1 != want {
			t.Fatalf("assay %d: VsPump1 = %d, want MaxPump %d × %d = %d",
				seed, res.VsPump1, stats.Best.MaxPump, core.DefaultPumpActuations, want)
		}
	}
	if infeasible > n/10 {
		t.Fatalf("%d/%d fuzz assays infeasible — the corpus no longer exercises the cost identity", infeasible, n)
	}
}

// TestCancelledBeforeStart exercises the anytime error path: a context
// dead before any replicate constructs a state yields an
// ErrDeadline-compatible error, not a mapping.
func TestCancelledBeforeStart(t *testing.T) {
	_, sched, _ := problemFor(t, 7, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := anneal.MapCtx(ctx, sched, anneal.Config{Place: place.Config{Grid: 12}})
	if m != nil {
		t.Fatalf("got a mapping from a dead context")
	}
	if !errors.Is(err, synerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestCostLess pins the lexicographic order of the objective: completeness
// dominates the pump load, which dominates every tie-break.
func TestCostLess(t *testing.T) {
	base := anneal.Cost{Dropped: 0, MaxPump: 3, RCRelaxed: 1, UsedCells: 40, SumSq: 200}
	cases := []struct {
		name string
		a, b anneal.Cost
		less bool
	}{
		{"equal", base, base, false},
		{"dropped dominates", anneal.Cost{Dropped: 0, MaxPump: 9}, anneal.Cost{Dropped: 1, MaxPump: 1}, true},
		{"pump before cells", anneal.Cost{MaxPump: 2, UsedCells: 99}, anneal.Cost{MaxPump: 3, UsedCells: 1}, true},
		{"rc before cells", anneal.Cost{MaxPump: 3, RCRelaxed: 0, UsedCells: 99}, anneal.Cost{MaxPump: 3, RCRelaxed: 1, UsedCells: 1}, true},
		{"sumsq last", anneal.Cost{MaxPump: 3, SumSq: 1}, anneal.Cost{MaxPump: 3, SumSq: 2}, true},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("%s: Less = %v, want %v", tc.name, got, tc.less)
		}
		if tc.less && tc.b.Less(tc.a) {
			t.Errorf("%s: Less not antisymmetric", tc.name)
		}
	}
}

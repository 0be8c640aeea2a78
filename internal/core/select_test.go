package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
	"mfsynth/internal/verify"
)

// racePolicy builds the one-mixer-per-volume scheduling policy for a
// generated assay.
func racePolicy(a *graph.Assay) schedule.Resources {
	mixers := map[int]int{}
	for _, id := range a.MixOps() {
		mixers[a.Volume(id)] = 1
	}
	return schedule.Resources{Mixers: mixers, Detectors: 1}
}

// TestRaceDeadlineReturnsIncumbent is the anytime contract under a binding
// deadline: the ILP lane is configured so the monolithic branch-and-bound
// cannot finish (a huge node budget on a large instance), the deadline
// expires under it, and the race still returns the heuristic lanes' best
// incumbent instead of failing — never nil when greedy succeeded.
func TestRaceDeadlineReturnsIncumbent(t *testing.T) {
	a := assays.Random(21, assays.RandomOptions{MixOps: 9, Detects: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := core.SynthesizeCtx(ctx, a, core.Options{
		Policy: racePolicy(a),
		Place: place.Config{
			Grid:         10,
			Mode:         place.Monolithic,
			MaxNodes:     1 << 30, // never binds: the deadline must cut the lane
			SolveTimeout: time.Hour,
		},
		Backends: []core.Backend{core.BackendILP, core.BackendGreedy, core.BackendAnneal},
		Anneal:   core.AnnealOptions{Seed: 5, Replicates: 2, Iters: 300},
	})
	if err != nil {
		t.Fatalf("race returned no incumbent: %v", err)
	}
	if res == nil || res.Race == nil {
		t.Fatal("nil result or race report")
	}
	if len(res.Race.Lanes) != 3 {
		t.Fatalf("lanes = %d, want 3", len(res.Race.Lanes))
	}
	var greedyOk bool
	for _, l := range res.Race.Lanes {
		if l.Backend == string(core.BackendGreedy) && l.Ok {
			greedyOk = true
		}
		if l.Won && l.Backend != res.Backend {
			t.Errorf("won lane %s != result backend %s", l.Backend, res.Backend)
		}
	}
	if !greedyOk {
		t.Fatalf("greedy lane failed; lanes: %+v", res.Race.Lanes)
	}
	if res.Backend == string(core.BackendILP) {
		// The ILP cannot legitimately crack 2^30 nodes in half a second; it
		// winning would mean the deadline never reached the lane.
		t.Errorf("ilp lane won under a deadline it cannot meet")
	}
	ilp := res.Race.Lanes[0]
	if ilp.Backend != string(core.BackendILP) {
		t.Fatalf("lane order does not follow priority: %+v", res.Race.Lanes)
	}
	if ilp.Ok {
		t.Errorf("ilp lane finished a 2^30-node search in 500ms")
	} else if ilp.Err == "" {
		t.Errorf("losing ilp lane carries no error")
	}
}

// TestRaceAllLanesCancelled: a context dead on arrival fails every lane,
// and the race surfaces an ErrDeadline-compatible error rather than a
// result.
func TestRaceAllLanesCancelled(t *testing.T) {
	a := assays.Random(4, assays.RandomOptions{MixOps: 6, Detects: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.SynthesizeCtx(ctx, a, core.Options{
		Policy:   racePolicy(a),
		Place:    place.Config{Grid: 12},
		Backends: []core.Backend{core.BackendGreedy, core.BackendAnneal},
	})
	if res != nil {
		t.Fatal("got a result from a dead context")
	}
	if !errors.Is(err, synerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestSingleBackendPinsPipeline: one entry in Backends runs that backend
// alone (no race report) and stamps the result with its name; the
// annealer's mapping is not a place mode's.
func TestSingleBackendPinsPipeline(t *testing.T) {
	a := assays.Random(4, assays.RandomOptions{MixOps: 6, Detects: 1})
	res, err := core.SynthesizeCtx(context.Background(), a, core.Options{
		Policy:   racePolicy(a),
		Place:    place.Config{Grid: 12},
		Backends: []core.Backend{core.BackendAnneal},
		Anneal:   core.AnnealOptions{Replicates: 2, Iters: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != string(core.BackendAnneal) {
		t.Errorf("Backend = %q, want anneal", res.Backend)
	}
	if res.Race != nil {
		t.Errorf("single backend produced a race report")
	}
	if res.Mapping.Stats.ILPSolves != 0 {
		t.Errorf("anneal mapping reports %d ILP solves", res.Mapping.Stats.ILPSolves)
	}
}

// TestPortfolioRescuesNoIncumbent is the issue's acceptance criterion: on
// a generated assay whose node-capped monolithic branch-and-bound ends
// with no incumbent (place.Stats.NoIncumbent > 0), the portfolio still
// returns a conformance-clean mapping before the deadline, and does so
// deterministically for a fixed seed.
func TestPortfolioRescuesNoIncumbent(t *testing.T) {
	pcfg := place.Config{Grid: 10, Mode: place.Monolithic, MaxNodes: 4}

	// Find a seeded assay that actually defeats the capped search. Its
	// greedy mapping must miss the counting bound, or the model is never
	// built. The generator and the solver are deterministic, so the
	// known-good seed (6, listed first) always hits on the current corpus;
	// the loop keeps the test honest if either evolves.
	var hard *graph.Assay
	for _, seed := range []int64{6, 5, 2, 1, 3, 4, 7, 8} {
		a := assays.Random(seed, assays.RandomOptions{MixOps: 10, Detects: 1})
		sched, err := schedule.List(a, schedule.Options{Resources: racePolicy(a)})
		if err != nil {
			continue
		}
		m, err := place.Map(sched, pcfg)
		if err == nil && m.Stats.NoIncumbent > 0 {
			hard = a
			break
		}
	}
	if hard == nil {
		t.Fatal("no probed seed drives the capped B&B to NoIncumbent > 0; pick a new corpus")
	}

	run := func() (*core.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return core.SynthesizeCtx(ctx, hard, core.Options{
			Policy:   racePolicy(hard),
			Place:    pcfg,
			Backends: []core.Backend{core.BackendILP, core.BackendGreedy, core.BackendAnneal},
			Anneal:   core.AnnealOptions{Seed: 11, Replicates: 3, Iters: 500},
		})
	}

	// The determinism check's two runs are independent. Each keeps about
	// one core busy for minutes under the race detector, so they run at
	// once.
	var again *core.Result
	var againErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		again, againErr = run()
	}()
	res, err := run()
	<-done
	for _, err := range []error{err, againErr} {
		if err != nil {
			t.Fatalf("portfolio failed on the no-incumbent instance: %v", err)
		}
	}
	if res.Backend == "" || res.Race == nil {
		t.Fatal("portfolio result carries no backend/race report")
	}
	if rep := verify.Conformance(res); !rep.Clean() {
		t.Fatalf("portfolio result fails conformance:\n%s", rep)
	}

	if verify.Fingerprint(res) != verify.Fingerprint(again) {
		t.Errorf("portfolio result not deterministic for a fixed seed")
	}
	if res.Backend != again.Backend {
		t.Errorf("winner flapped: %s vs %s", res.Backend, again.Backend)
	}
}

// TestDefaultRollingRunsILPAndGreedy: with no Backends the rolling-horizon
// mode's nominal tier is ilp,greedy, both reported in Race, and the
// result names the winning producer. Place and route seconds cover both
// candidates and still sum to at most the call's runtime.
func TestDefaultRollingRunsILPAndGreedy(t *testing.T) {
	a := assays.Random(4, assays.RandomOptions{MixOps: 6, Detects: 1})
	res, err := core.Synthesize(a, core.Options{Policy: racePolicy(a), Place: place.Config{Grid: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race == nil || len(res.Race.Lanes) != 2 ||
		res.Race.Lanes[0].Backend != "ilp" || res.Race.Lanes[1].Backend != "greedy" {
		t.Fatalf("race report: %+v", res.Race)
	}
	won := 0
	for _, l := range res.Race.Lanes {
		if !l.Ok {
			t.Errorf("lane %s failed: %s", l.Backend, l.Err)
		}
		if l.Won {
			won++
			if l.Backend != res.Backend || res.Race.Winner != res.Backend {
				t.Errorf("won lane %s, winner %s, result backend %s", l.Backend, res.Race.Winner, res.Backend)
			}
		}
	}
	if won != 1 {
		t.Errorf("%d lanes won", won)
	}
	if res.Degraded() {
		t.Errorf("nominal run degraded: %s", res.Degradation)
	}
	sum := 0.0
	for _, k := range []string{"schedule", "place", "route"} {
		if _, ok := res.PhaseSeconds[k]; !ok {
			t.Errorf("phase %q missing: %v", k, res.PhaseSeconds)
		}
		sum += res.PhaseSeconds[k]
	}
	if sum > res.Runtime.Seconds() {
		t.Errorf("phases sum to %.6fs, above the runtime %.6fs", sum, res.Runtime.Seconds())
	}
	if rep := verify.Conformance(res); !rep.Clean() {
		t.Fatalf("conformance:\n%s", rep)
	}
}

// TestFallbackTierReportsEarlierFailures: a tier runs only when the whole
// earlier tier failed, and the result lists those failures. On an 8×8
// chip the interpolating dilution defeats greedy and relaxed greedy; the
// best-effort tier answers with a partial result that names both.
func TestFallbackTierReportsEarlierFailures(t *testing.T) {
	c := assays.InterpolatingDilution()
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: 8, Mode: place.Greedy},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Degradation
	if d == nil || d.Level != core.DegradePartial {
		t.Fatalf("degradation = %s, want partial", d)
	}
	var rungs []string
	for _, at := range d.Attempts {
		rungs = append(rungs, at.Rung)
		if at.Err == "" {
			t.Errorf("attempt %s carries no error", at.Rung)
		}
	}
	if strings.Join(rungs, ",") != "greedy,greedy-relaxed" {
		t.Errorf("attempts = %v, want greedy,greedy-relaxed", rungs)
	}
	if res.Backend != "greedy" || res.Race != nil {
		t.Errorf("backend %q, race %+v", res.Backend, res.Race)
	}
}

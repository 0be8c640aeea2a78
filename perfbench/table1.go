package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/verify"
)

// cellID names one Table 1 cell: a benchmark under one mixer policy.
type cellID struct {
	name   string
	policy int
}

func (c cellID) String() string { return fmt.Sprintf("%s p%d", c.name, c.policy) }

// quality is a cell's Table 1 columns vs1max, vs2max and #v.
type quality struct{ vs1, vs2, valves int }

// ilpGolden holds the rows of the committed BENCH_table1.json (default
// rolling-horizon ILP) for the table1-ilp cells.
var ilpGolden = map[cellID]quality{
	{"PCR", 2}:        {46, 36, 74},
	{"MixingTree", 3}: {88, 53, 132},
}

// table1Spec is one Table 1 workload.
type table1Spec struct {
	cells   []cellID
	mode    place.Mode
	workers int // core.Options.Workers
	golden  map[cellID]quality
}

// runTable1ILP runs the default rolling-horizon ILP on PCR p2 and on
// MixingTree p3, where the node cap bites; the smoke size keeps PCR p2
// only. The worker count is pinned to 1, as in BENCH_table1.json: the
// engine's default (one per CPU) makes MixingTree p3's resident memory
// grow with the host's CPU count (2.9 GB at 1 worker, 5.3 GB at 2).
func runTable1ILP(cfg config) (*outcome, error) {
	cells := []cellID{{"PCR", 2}, {"MixingTree", 3}}
	if cfg.smoke {
		cells = cells[:1]
	}
	return runTable1(cfg, table1Spec{cells: cells, mode: place.RollingHorizon, workers: 1, golden: ilpGolden})
}

// runTable1Greedy runs all twelve Table 1 cells with the greedy mapper and
// one worker, the `mfbench -table1 -fast` path.
func runTable1Greedy(cfg config) (*outcome, error) {
	var cells []cellID
	for _, name := range assays.Names() {
		for p := 1; p <= 3; p++ {
			cells = append(cells, cellID{name, p})
		}
	}
	return runTable1(cfg, table1Spec{cells: cells, mode: place.Greedy, workers: 1})
}

// cellInput is one cell's synthesis input, built during set-up.
type cellInput struct {
	id    cellID
	assay *graph.Assay
	opts  core.Options
}

// setupTable1 builds every cell's input, deriving its scheduling policy
// from the traditional baseline design, then warms up with one greedy
// synthesis per benchmark. It returns the inputs and the baseline seconds.
func setupTable1(spec table1Spec) ([]cellInput, float64, error) {
	var cells []cellInput
	var baselineS float64
	warmed := map[string]bool{}
	for _, id := range spec.cells {
		c, err := assays.ByName(id.name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		des, err := baseline.Traditional(c, id.policy, baseline.DefaultCost)
		baselineS += time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: baseline: %w", id, err)
		}
		in := cellInput{id: id, assay: c.Assay, opts: core.Options{
			Policy:  schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:   place.Config{Grid: c.GridSize, Mode: spec.mode},
			Workers: spec.workers,
		}}
		cells = append(cells, in)
		if !warmed[id.name] {
			warmed[id.name] = true
			warm := in.opts
			warm.Place.Mode, warm.Workers = place.Greedy, 1
			if _, err := core.SynthesizeCtx(context.Background(), in.assay, warm); err != nil {
				return nil, 0, fmt.Errorf("%s: warm-up: %w", id, err)
			}
		}
	}
	return cells, baselineS, nil
}

// passes is what a series of passes over the cells measured.
type passes struct {
	secs     []float64            // per pass: the summed wall time of its synthesis calls
	synthMS  map[cellID][]float64 // per cell: each call's milliseconds
	phases   phaseSum
	counters map[string]int64 // obs counters summed over traced passes
}

// runTable1 measures passes over the spec's cells, in a seeded order per
// pass, until the run's seconds are spent. End-to-end numbers come from
// the untraced passes, per-layer numbers from the traced ones.
func runTable1(cfg config, spec table1Spec) (*outcome, error) {
	out := &outcome{endToEnd: map[string]float64{}, perLayer: newLayers()}
	var baselineS float64
	cells, setupS, err := medianSetup(setupRounds, func() ([]cellInput, error) {
		c, b, err := setupTable1(spec)
		baselineS = b
		return c, err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.endToEnd["setup_s"] = setupS
	resetPeakRSS()

	records := map[cellID]*cellRecord{}
	check := func(in cellInput, res *core.Result) {
		if rep := verify.Conformance(res); !rep.Clean() {
			out.fail("%s: %s", in.id, rep)
		}
		fp := verify.Fingerprint(res)
		if rec, ok := records[in.id]; ok {
			if rec.Fingerprint != fp {
				out.fail("%s: fingerprint %s differs from the first pass's %s", in.id, fp, rec.Fingerprint)
			}
			return
		}
		records[in.id] = &cellRecord{Name: in.id.String(), VsMax1: res.VsMax1, VsMax2: res.VsMax2,
			UsedValves: res.UsedValves, Fingerprint: fp}
		got := quality{res.VsMax1, res.VsMax2, res.UsedValves}
		if want, ok := spec.golden[in.id]; ok && got != want {
			out.fail("%s: vs1/vs2/#v = %d/%d/%d, BENCH_table1.json has %d/%d/%d",
				in.id, got.vs1, got.vs2, got.valves, want.vs1, want.vs2, want.valves)
		}
	}

	plain, traced := measurePasses(cells, rand.New(rand.NewSource(cfg.seed)), cfg.seconds, cfg.trace, out, check)
	pass := quantile(plain.secs, 0.5)
	out.endToEnd["pass_s"] = pass
	// Percentiles run over the cells, each cell's time being its median
	// over the passes: pooled calls would put the median in the gap between
	// the fast and the slow benchmarks, where it reads the extremes of both.
	var cellMS []float64
	for _, in := range cells {
		cellMS = append(cellMS, quantile(plain.synthMS[in.id], 0.5))
	}
	out.endToEnd["synth_p50_ms"] = quantile(cellMS, 0.5)
	out.endToEnd["synth_p95_ms"] = quantile(cellMS, 0.95)
	// Each cell is one job of a single closed-loop caller.
	out.endToEnd["job_p50_ms"] = out.endToEnd["synth_p50_ms"]
	out.endToEnd["job_p95_ms"] = out.endToEnd["synth_p95_ms"]
	out.endToEnd["fresh_jobs_per_s"] = float64(len(cells)*len(plain.secs)) / sum(plain.secs)

	for _, in := range cells {
		if rec := records[in.id]; rec != nil {
			out.cells = append(out.cells, *rec)
			out.endToEnd["vs1_max_sum"] += float64(rec.VsMax1)
			out.endToEnd["vs2_max_sum"] += float64(rec.VsMax2)
			out.endToEnd["valves_sum"] += float64(rec.UsedValves)
		}
	}

	if cfg.trace {
		n := float64(len(traced.secs))
		traced.phases.fill(out.perLayer, n)
		addCounters(out.perLayer, traced.counters, n)
		out.perLayer["baseline.s"] = baselineS
		out.perLayer["trace.overhead_pct"] = 100 * (quantile(traced.secs, 0.5)/pass - 1)
	}
	return out, nil
}

// measurePasses runs passes over the cells until the next pass would end
// past budget seconds of wall time, at least one pass. With trace, passes
// alternate untraced and traced, at least one of each, so both kinds see
// the same machine conditions. Checks run between the timed calls.
func measurePasses(cells []cellInput, rng *rand.Rand, budget float64, trace bool, out *outcome, check func(cellInput, *core.Result)) (plain, traced *passes) {
	plain = &passes{synthMS: map[cellID][]float64{}}
	traced = &passes{synthMS: map[cellID][]float64{}, counters: map[string]int64{}}
	minPasses := 1
	if trace {
		minPasses = 2
	}
	start := time.Now()
	var walls []float64 // per pass, checks included
	for k := 0; k < minPasses || time.Since(start).Seconds()+quantile(walls, 0.5) <= budget; k++ {
		passStart := time.Now()
		p, tr := plain, (*obs.Trace)(nil)
		if trace && k%2 == 1 {
			p, tr = traced, obs.New()
		}
		var secs float64
		for _, i := range rng.Perm(len(cells)) {
			in := cells[i]
			opts := in.opts
			opts.Trace = tr
			t0 := time.Now()
			res, err := core.SynthesizeCtx(context.Background(), in.assay, opts)
			wall := time.Since(t0)
			secs += wall.Seconds()
			p.synthMS[in.id] = append(p.synthMS[in.id], ms(wall))
			out.attempted++
			if err != nil {
				out.fail("%s: synthesis: %v", in.id, err)
				continue
			}
			if err := p.phases.add(wall.Seconds(), res.PhaseSeconds); err != nil {
				out.fail("%s: attribution: %v", in.id, err)
			}
			check(in, res)
		}
		p.secs = append(p.secs, secs)
		if snap := tr.Metrics().Snapshot(); snap != nil {
			for name, v := range snap.Counters {
				p.counters[name] += v
			}
		}
		walls = append(walls, time.Since(passStart).Seconds())
	}
	return plain, traced
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

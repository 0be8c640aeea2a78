package report

import (
	"context"
	"fmt"
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

// AblationOptions tunes the backend-ablation sweep: every instance is
// synthesised once per backend, in isolation, under the same per-run
// deadline — the experiment behind EXPERIMENTS.md's "Backend ablation"
// table and the BENCH_ablation.json gate artefact.
type AblationOptions struct {
	// Backends lists the backends to ablate (default ilp, greedy, anneal).
	Backends []core.Backend
	// Sizes lists the mix-op counts of the seeded random assays (default
	// 6, 9, 12); Seed seeds their generation (default 1).
	Sizes []int
	Seed  int64
	// Cases additionally ablates the named paper benchmarks at policy 1;
	// empty means generated assays only (the benchmarks dominate the
	// sweep's wall-clock, so the CI smoke leaves them out).
	Cases []string
	// Grid is the chip edge for generated assays (default 12); benchmark
	// cases keep their own grid.
	Grid int
	// Deadline caps each backend run's wall-clock (default 20s); an
	// expired exact solve is an "ok=false" cell, not a sweep failure.
	Deadline time.Duration
	// Anneal tunes the anneal backend (zero fields = anneal defaults).
	Anneal core.AnnealOptions
	// Workers bounds each run's internal parallelism.
	Workers int
	// Verify audits every successful run against the conformance
	// catalogue; a violation fails the sweep (it would poison the gate).
	Verify bool
	// Trace, when non-nil, records every run under one trace.
	Trace *obs.Trace
}

func (o AblationOptions) withDefaults() AblationOptions {
	if len(o.Backends) == 0 {
		o.Backends = core.Backends()
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{6, 9, 12}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Grid == 0 {
		o.Grid = 12
	}
	if o.Deadline == 0 {
		o.Deadline = 20 * time.Second
	}
	return o
}

// AblationCell is one backend's outcome on one instance.
type AblationCell struct {
	Backend string `json:"backend"`
	// Ok marks a run that produced a result; Err carries the failure
	// otherwise (typically a deadline-expired exact solve).
	Ok  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Quality of the result, for Ok cells. Complete is true when nothing
	// was dropped and every net routed — only complete cells are
	// comparable on VsMax1 (an incomplete mapping pumps less because it
	// does less).
	Complete     bool    `json:"complete"`
	VsMax1       int     `json:"vs_max1"`
	VsMax2       int     `json:"vs_max2"`
	UsedValves   int     `json:"used_valves"`
	Dropped      int     `json:"dropped"`
	FailedRoutes int     `json:"failed_routes"`
	Degraded     bool    `json:"degraded,omitempty"`
	Seconds      float64 `json:"seconds"`
}

// AblationRow is one instance's sweep across all backends, cells in
// backend order.
type AblationRow struct {
	Instance string         `json:"instance"`
	Ops      int            `json:"ops"`
	Grid     int            `json:"grid"`
	Cells    []AblationCell `json:"cells"`
}

// Cell returns the named backend's cell, nil when absent.
func (r *AblationRow) Cell(b string) *AblationCell {
	for i := range r.Cells {
		if r.Cells[i].Backend == b {
			return &r.Cells[i]
		}
	}
	return nil
}

// ablationInstance is one problem of the sweep.
type ablationInstance struct {
	name  string
	assay *graph.Assay
	opts  core.Options
}

// Ablation runs the backend-ablation sweep. Instances run sequentially
// (each backend already spends the worker budget internally) and every
// backend sees the identical problem; ctx bounds the whole sweep while
// AblationOptions.Deadline bounds each run.
func Ablation(ctx context.Context, opts AblationOptions) ([]*AblationRow, error) {
	opts = opts.withDefaults()

	var instances []ablationInstance
	for _, size := range opts.Sizes {
		a := assays.Random(opts.Seed, assays.RandomOptions{MixOps: size, Detects: 1})
		mixers := map[int]int{}
		for _, id := range a.MixOps() {
			mixers[a.Volume(id)] = 1
		}
		instances = append(instances, ablationInstance{
			name:  fmt.Sprintf("random%d-m%d", opts.Seed, size),
			assay: a,
			opts: core.Options{
				Policy: schedule.Resources{Mixers: mixers, Detectors: 1},
				Place:  place.Config{Grid: opts.Grid},
			},
		})
	}
	for _, name := range opts.Cases {
		c, err := assays.ByName(name)
		if err != nil {
			return nil, err
		}
		des, err := baselineFor(c, 1)
		if err != nil {
			return nil, err
		}
		instances = append(instances, ablationInstance{
			name:  c.Assay.Name + "-p1",
			assay: c.Assay,
			opts: core.Options{
				Policy: schedule.Resources{Mixers: des, Detectors: c.Detectors},
				Place:  place.Config{Grid: c.GridSize},
			},
		})
	}

	var rows []*AblationRow
	for _, inst := range instances {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := &AblationRow{
			Instance: inst.name,
			Ops:      len(inst.assay.Ops()),
			Grid:     inst.opts.Place.Grid,
		}
		for _, b := range opts.Backends {
			runOpts := inst.opts
			runOpts.Backends = []core.Backend{b}
			runOpts.Anneal = opts.Anneal
			runOpts.Workers = opts.Workers
			runOpts.Trace = opts.Trace
			runCtx, cancel := context.WithTimeout(ctx, opts.Deadline)
			t0 := time.Now()
			res, err := core.SynthesizeCtx(runCtx, inst.assay, runOpts)
			cancel()
			cell := AblationCell{Backend: string(b), Seconds: time.Since(t0).Seconds()}
			if err != nil {
				cell.Err = err.Error()
			} else {
				if opts.Verify {
					if rep := verify.Conformance(res); !rep.Clean() {
						return nil, fmt.Errorf("%s/%s fails conformance: %s", inst.name, b, rep)
					}
				}
				cell.Ok = true
				cell.VsMax1 = res.VsMax1
				cell.VsMax2 = res.VsMax2
				cell.UsedValves = res.UsedValves
				cell.Dropped = len(res.Mapping.Dropped)
				cell.FailedRoutes = res.FailedRoutes
				cell.Degraded = res.Degraded()
				cell.Complete = cell.Dropped == 0 && cell.FailedRoutes == 0
			}
			row.Cells = append(row.Cells, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// baselineFor resolves a benchmark case's traditional mixer policy.
func baselineFor(c assays.Case, policy int) (map[int]int, error) {
	des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
	if err != nil {
		return nil, err
	}
	return des.Mixers, nil
}

package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/obs"
	"mfsynth/internal/par"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/verify"
)

// Row is one line of Table 1: a benchmark under one policy, comparing the
// optimal binding for the traditional design with our method in both
// settings.
type Row struct {
	Case   string
	Ops    string // #op, e.g. "15(7)"
	Policy int

	// Traditional design columns.
	NumDevices int    // #d
	MixVector  string // #m4-6-8-10
	VsTmax     int    // largest actuations, optimal binding
	TradValves int    // #v (traditional)

	// Our method columns.
	Vs1Max, Vs1Pump int     // setting 1: total (pump-only)
	Imp1            float64 // improvement vs VsTmax, percent
	Vs2Max, Vs2Pump int     // setting 2
	Imp2            float64
	OurValves       int     // #v (ours)
	ImpV            float64 // valve-count improvement, percent
	// LB is the counting lower bound on Vs1Pump (core.Result.PumpBound in
	// setting-1 actuations) and Gap is Vs1Pump's distance above it.
	LB, Gap int
	// Backend names the producer whose mapping the row reports.
	Backend string
	// FailedRoutes counts transports the row's chip leaves unrouted; a
	// non-zero count marks an incomplete row.
	FailedRoutes int
	Runtime      time.Duration
	// Phases is the wall-clock split of Runtime over the synthesis
	// pipeline phases ("schedule", "place", "route").
	Phases map[string]float64
}

// RowOptions tunes the synthesis side of a row.
type RowOptions struct {
	// Mode selects the mapper (default rolling horizon).
	Mode place.Mode
	// Grid overrides the case's grid size when positive.
	Grid int
	// Workers bounds the parallelism (0 = runtime.GOMAXPROCS, 1 = legacy
	// serial). For a single row it is the mapper-internal worker count;
	// Table1 instead spends the budget across its twelve case × policy
	// cells and runs each cell's mapper serially. Either way the reported
	// metrics are bit-identical to a serial run.
	Workers int
	// Trace, when non-nil, records every synthesis run of the evaluation
	// under one trace (one root span per cell). Concurrent Table1 cells land
	// on separate root tracks of the Chrome export.
	Trace *obs.Trace
	// Verify audits every synthesis result against the full conformance
	// catalogue; a cell with violations fails with an error carrying the
	// report.
	Verify bool
	// Faults injects a valve defect set into every synthesis run (nil =
	// healthy chip). The mapper and router work around the defects; the
	// conformance audit (with Verify) proves no faulty valve is used.
	Faults *fault.Set
	// FaultSeed and FaultRate, when Faults is nil and FaultRate > 0, draw
	// a seeded random defect set sized to each cell's grid (ports kept
	// healthy) — the per-cell form of Faults for multi-grid sweeps.
	FaultSeed int64
	FaultRate float64
	// Backends lists the nominal producers of every cell; empty means
	// Mode's default list (see core.Options.Backends). Anneal tunes the
	// anneal backend when it is listed.
	Backends []core.Backend
	Anneal   core.AnnealOptions
	// Deadline caps each cell's synthesis wall-clock (0 = none) — the
	// candidates' anytime bound.
	Deadline time.Duration
}

// Table1Row evaluates one benchmark × policy cell of Table 1.
func Table1Row(c assays.Case, policy int, opts RowOptions) (*Row, error) {
	return Table1RowCtx(context.Background(), c, policy, opts)
}

// Table1RowCtx is Table1Row with cancellation: the synthesis run checks
// ctx between phases and inside the solvers, so an interrupted evaluation
// returns promptly with an error matching synerr.ErrDeadline.
func Table1RowCtx(ctx context.Context, c assays.Case, policy int, opts RowOptions) (*Row, error) {
	des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
	if err != nil {
		return nil, err
	}
	grid := c.GridSize
	if opts.Grid > 0 {
		grid = opts.Grid
	}
	if opts.Faults == nil && opts.FaultRate > 0 {
		opts.Faults = fault.Generate(opts.FaultSeed, fault.GenOptions{
			Grid: grid, Rate: opts.FaultRate, KeepPorts: true,
		})
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	res, err := core.SynthesizeCtx(ctx, c.Assay, core.Options{
		Policy:   schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
		Place:    place.Config{Grid: grid, Mode: opts.Mode},
		Workers:  opts.Workers,
		Trace:    opts.Trace,
		Faults:   opts.Faults,
		Backends: opts.Backends,
		Anneal:   opts.Anneal,
	})
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if rep := verify.Conformance(res); !rep.Clean() {
			return nil, fmt.Errorf("%s p%d fails conformance: %s", c.Assay.Name, policy, rep)
		}
	}
	row := &Row{
		Case:         c.Assay.Name,
		Ops:          c.Assay.Stats().String(),
		Policy:       policy,
		NumDevices:   des.NumDevices,
		MixVector:    des.MixVector(),
		VsTmax:       des.VsTmax,
		TradValves:   des.Valves,
		Vs1Max:       res.VsMax1,
		Vs1Pump:      res.VsPump1,
		Vs2Max:       res.VsMax2,
		Vs2Pump:      res.VsPump2,
		OurValves:    res.UsedValves,
		Backend:      res.Backend,
		FailedRoutes: res.FailedRoutes,
		Runtime:      res.Runtime,
		Phases:       res.PhaseSeconds,
	}
	n := res.Options().PumpActuations
	row.LB, row.Gap = res.PumpBound*n, res.PumpGap*n
	row.Imp1 = improvement(des.VsTmax, res.VsMax1)
	row.Imp2 = improvement(des.VsTmax, res.VsMax2)
	row.ImpV = improvement(des.Valves, res.UsedValves)
	return row, nil
}

// improvement returns the percentage reduction from base to ours.
func improvement(base, ours int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-ours) / float64(base)
}

// Table1 evaluates all four benchmarks under policies p1..p3. The twelve
// case × policy cells are independent synthesis runs, so with Workers > 1
// they are evaluated concurrently; the row order (and every metric) is the
// same as in a serial run.
func Table1(opts RowOptions) ([]*Row, error) {
	return Table1Ctx(context.Background(), opts)
}

// Table1Ctx is Table1 with cancellation: pending cells are skipped once
// ctx is cut and in-flight cells return early, so an interrupted
// evaluation fails promptly instead of finishing the sweep.
func Table1Ctx(ctx context.Context, opts RowOptions) ([]*Row, error) {
	type cell struct {
		c      assays.Case
		policy int
	}
	var cells []cell
	for _, name := range assays.Names() {
		c, err := assays.ByName(name)
		if err != nil {
			return nil, err
		}
		for p := 1; p <= 3; p++ {
			cells = append(cells, cell{c, p})
		}
	}
	workers := par.Workers(opts.Workers)
	rowOpts := opts
	if workers > 1 {
		// The worker budget is spent across cells; each cell's mapper runs
		// serially to avoid oversubscribing the machine.
		rowOpts.Workers = 1
	}
	rows, err := par.MapCtx(ctx, workers, len(cells), func(_, i int) (*Row, error) {
		row, err := Table1RowCtx(ctx, cells[i].c, cells[i].policy, rowOpts)
		if err != nil {
			return nil, fmt.Errorf("%s p%d: %w", cells[i].c.Assay.Name, cells[i].policy, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Averages returns the mean improvements over the rows (the paper's bottom
// line: 55.76%, 72.97%, 10.62%).
func Averages(rows []*Row) (imp1, imp2, impV float64) {
	if len(rows) == 0 {
		return 0, 0, 0
	}
	for _, r := range rows {
		imp1 += r.Imp1
		imp2 += r.Imp2
		impV += r.ImpV
	}
	n := float64(len(rows))
	return imp1 / n, imp2 / n, impV / n
}

// Render formats the rows as a text table in the layout of Table 1, with
// each row's producer; a row whose chip leaves transports unrouted is
// marked with * and counted in a footnote.
func Render(rows []*Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-8s %-3s %3s %-24s %8s %5s | %9s %8s %9s %8s %5s %7s %4s %4s %8s %s\n",
		"case", "#op", "po.", "#d", "#m4-6-8-10", "vs_tmax", "#v",
		"vs1max", "imp1", "vs2max", "imp2", "#v", "impv", "lb", "gap", "T", "by")
	incomplete := 0
	for _, r := range rows {
		mark := ""
		if r.FailedRoutes > 0 {
			mark = "*"
			incomplete++
		}
		fmt.Fprintf(&sb, "%-22s %-8s p%-2d %3d %-24s %8d %5d | %4d(%3d) %7.2f%% %4d(%3d) %7.2f%% %5d %6.2f%% %4d %4d %7.1fs %s%s\n",
			r.Case, r.Ops, r.Policy, r.NumDevices, r.MixVector, r.VsTmax, r.TradValves,
			r.Vs1Max, r.Vs1Pump, r.Imp1, r.Vs2Max, r.Vs2Pump, r.Imp2,
			r.OurValves, r.ImpV, r.LB, r.Gap, r.Runtime.Seconds(), r.Backend, mark)
	}
	i1, i2, iv := Averages(rows)
	fmt.Fprintf(&sb, "%-22s %68s | %9s %7.2f%% %9s %7.2f%% %5s %6.2f%%\n",
		"average", "", "", i1, "", i2, "", iv)
	if incomplete > 0 {
		fmt.Fprintf(&sb, "* %d row(s) leave transports unrouted\n", incomplete)
	}
	return sb.String()
}

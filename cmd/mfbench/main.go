// Command mfbench regenerates the paper's evaluation artefacts: the
// actuation comparison of Figs. 2-3, the PCR schedule of Fig. 9, the chip
// snapshots of Fig. 10, and Table 1.
//
// Usage:
//
//	mfbench                        # everything (Table 1 takes a few minutes)
//	mfbench -figures               # only the figures
//	mfbench -table1 -fast          # Table 1 with the greedy mapper (quick)
//	mfbench -table1 -workers 4     # four-way parallel Table 1, same numbers
//	mfbench -table1 -json BENCH_table1.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mfsynth"
	"mfsynth/internal/par"
	"mfsynth/internal/report"
)

// cellsFailed records evaluation cells that errored; main exits non-zero
// when any did, so CI catches partial artefacts.
var cellsFailed int

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfbench: ")

	var (
		figures    = flag.Bool("figures", false, "only regenerate the figures")
		table1     = flag.Bool("table1", false, "only regenerate Table 1")
		extensions = flag.Bool("extensions", false, "only run the extension experiments (speedup, wear, control)")
		fast       = flag.Bool("fast", false, "use the greedy mapper (quick, slightly weaker)")
		workers    = flag.Int("workers", 0, "worker count (0 = all CPUs, 1 = serial; results are identical)")
		jsonOut    = flag.String("json", "", "write Table 1 as machine-readable JSON to this file (e.g. BENCH_table1.json)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of every synthesis run to this file (load in chrome://tracing or Perfetto)")
		eventsOut  = flag.String("events", "", "write the span/metric event stream as JSON lines to this file")
		stats      = flag.Bool("stats", false, "print the span tree and metrics summary to stderr")
		httpAddr   = flag.String("http", "", "serve live debug endpoints on this address while running: /metrics, /progress (SSE), /debug/pprof, /debug/vars (e.g. :8080)")
		profDir    = flag.String("profile-dir", "", "capture continuous profiles into this directory: whole-run cpu.pprof plus per-phase heap snapshots")
		progLog    = flag.String("progress-log", "", "write live progress snapshots as JSON lines to this file (validate with tracecheck -progress)")
		doVerify   = flag.Bool("verify", false, "audit every Table 1 synthesis result against the conformance catalogue")
		faultFile  = flag.String("faults", "", "fault-spec file injected into every Table 1 synthesis run")
		faultSeed  = flag.Int64("fault-seed", 0, "generate a random fault set with this seed (with -fault-rate)")
		faultRate  = flag.Float64("fault-rate", 0, "per-valve defect probability for -fault-seed / -campaign (e.g. 0.05)")
		campaign   = flag.Int("campaign", 0, "run a fault-injection campaign with this many seeded runs per benchmark")
		minSuccess = flag.Float64("min-success", 0, "fail (non-zero exit) when a campaign's success rate drops below this fraction")

		ablation         = flag.Bool("ablation", false, "run the backend-ablation sweep: every instance once per backend (ilp, greedy, anneal) under one deadline")
		ablationOut      = flag.String("ablation-out", "", "write the ablation sweep as machine-readable JSON to this file (e.g. BENCH_ablation.json; gate with tools/benchgate -ablation)")
		ablationDeadline = flag.Duration("ablation-deadline", 20*time.Second, "per-backend-run wall-clock cap for -ablation")
		ablationSizes    = flag.String("ablation-sizes", "", "comma-separated mix-op counts of the generated ablation assays (default 6,9,12)")
		ablationCases    = flag.String("ablation-cases", "", "comma-separated benchmark cases to add to the ablation sweep (slow; off by default)")
		annealSeed       = flag.Int64("anneal-seed", 0, "simulated-annealing base seed for -ablation (0 = default 1)")

		fleetRun     = flag.Bool("fleet", false, "run the fleet wear campaign: static mapping vs the closed-loop collector→analyzer→optimizer→actuator control over whole chip lifetimes")
		fleetOut     = flag.String("fleet-out", "", "write the fleet campaign as machine-readable JSON to this file (e.g. BENCH_fleet.json; gate with tools/benchgate -fleet)")
		fleetChips   = flag.Int("fleet-chips", 3, "fleet size for -fleet")
		fleetRounds  = flag.Int("fleet-rounds", 96, "campaign length for -fleet: each round dispatches one assay per live chip")
		fleetSeed    = flag.Int64("fleet-seed", 7, "campaign seed for -fleet (valve lives and request stream)")
		fleetRated   = flag.Int("fleet-rated", 2500, "nominal per-valve life in actuations for -fleet")
		fleetSpread  = flag.Float64("fleet-spread", 0.05, "fractional per-valve life spread around -fleet-rated")
		fleetCase    = flag.String("fleet-case", "PCR", "benchmark assay of the -fleet request stream")
		fleetHorizon = flag.Int("fleet-horizon", 2, "analyzer look-ahead in runs: re-synthesize when a chip's remaining life drops below this")
		fleetBias    = flag.Float64("fleet-bias", 1, "wear-bias weight the optimizer passes to synthesis (Options.WearBias)")
	)
	flag.Parse()
	all := !*figures && !*table1 && !*extensions && *campaign == 0 && !*ablation && !*fleetRun

	// SIGINT/SIGTERM cancels the evaluation through the synthesis
	// contexts: in-flight cells return early, remaining sections are
	// skipped, and the sink flushing below still runs so partial traces
	// are not lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The trace also feeds the -json metrics snapshot and every live
	// endpoint, so any of those flags enables it.
	var tr *mfsynth.Trace
	if *traceOut != "" || *eventsOut != "" || *stats || *jsonOut != "" ||
		*httpAddr != "" || *profDir != "" || *progLog != "" {
		tr = mfsynth.NewTrace()
	}

	if *httpAddr != "" {
		srv, err := mfsynth.Serve(*httpAddr, tr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}
	var stopProgress func() error
	if *progLog != "" {
		f, err := os.Create(*progLog)
		if err != nil {
			log.Fatal(err)
		}
		stop := mfsynth.LogProgress(tr, f)
		stopProgress = func() error {
			err := stop()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	var prof *mfsynth.Profiler
	if *profDir != "" {
		var err error
		prof, err = mfsynth.StartProfiler(*profDir, tr)
		if err != nil {
			log.Fatal(err)
		}
	}

	faults, err := loadFaults(*faultFile, *faultSeed, *faultRate)
	if err != nil {
		log.Fatal(err)
	}

	if *figures || all {
		printFigures(ctx, tr)
	}
	if (*table1 || all) && ctx.Err() == nil {
		printTable1(ctx, *fast, *workers, *jsonOut, *doVerify, faults, *faultSeed, *faultRate, tr)
	}
	if (*extensions || all) && ctx.Err() == nil {
		printExtensions(ctx, *workers, tr)
	}
	if *campaign > 0 && ctx.Err() == nil {
		runCampaigns(ctx, *campaign, *faultSeed, *faultRate, *fast, *workers, *doVerify, *minSuccess)
	}
	if *ablation && ctx.Err() == nil {
		printAblation(ctx, *ablationOut, *ablationDeadline, *ablationSizes, *ablationCases, *annealSeed, *workers, *doVerify, tr)
	}
	if *fleetRun && ctx.Err() == nil {
		printFleet(ctx, *fleetOut, *fleetChips, *fleetRounds, *fleetSeed, *fleetRated, *fleetSpread, *fleetCase, *fleetHorizon, *fleetBias, tr)
	}

	// Flush every sink before deciding the exit status: all sinks are
	// attempted even when one fails, and the first error is fatal rather
	// than silently dropped.
	var sinks mfsynth.SinkSet
	sinks.Add(*traceOut, tr.WriteChromeTrace)
	sinks.Add(*eventsOut, tr.WriteJSONL)
	written, sinkErr := sinks.Flush()
	for _, p := range written {
		fmt.Printf("wrote %s\n", p)
	}
	if *stats {
		if err := tr.WriteText(os.Stderr); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if stopProgress != nil {
		if err := stopProgress(); err != nil && sinkErr == nil {
			sinkErr = err
		} else if err == nil {
			fmt.Printf("wrote %s\n", *progLog)
		}
	}
	if prof != nil {
		if err := prof.Close(); err != nil && sinkErr == nil {
			sinkErr = err
		} else if err == nil {
			fmt.Printf("wrote profiles to %s\n", *profDir)
		}
	}
	if sinkErr != nil {
		log.Fatal(sinkErr)
	}
	if ctx.Err() != nil {
		log.Fatalf("interrupted by signal; partial artefacts were flushed, %d cell(s) unfinished or failed", cellsFailed)
	}
	if cellsFailed > 0 {
		log.Fatalf("%d evaluation cell(s) failed", cellsFailed)
	}
}

// loadFaults resolves the Table 1 fault injection: an explicit spec file
// wins; seeded generation is deferred to the per-cell grid (see
// Table1RowOptions.FaultRate) and the campaign harness.
func loadFaults(file string, seed int64, rate float64) (*mfsynth.FaultSet, error) {
	_ = seed
	_ = rate
	if file == "" {
		return nil, nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mfsynth.ParseFaults(f)
}

// runCampaigns fault-injects every benchmark `runs` times under policy p1
// and reports how gracefully the synthesis degrades. With minSuccess > 0 a
// benchmark whose success rate falls below the bar counts as a failed cell.
func runCampaigns(ctx context.Context, runs int, seed int64, rate float64, fast bool, workers int, doVerify bool, minSuccess float64) {
	if rate <= 0 {
		rate = 0.05
	}
	mode := mfsynth.RollingHorizon
	if fast {
		mode = mfsynth.GreedyPlace
	}
	fmt.Printf("== Fault-injection campaign: %d runs/case, rate %.3f, seed %d ==\n", runs, rate, seed)
	for _, name := range mfsynth.CaseNames() {
		if ctx.Err() != nil {
			log.Printf("%s: campaign skipped (interrupted)", name)
			cellsFailed++
			continue
		}
		c, err := mfsynth.CaseByName(name)
		if err != nil {
			log.Print(err)
			cellsFailed++
			continue
		}
		camp, err := mfsynth.RunCampaign(c, 1, mfsynth.CampaignOptions{
			Runs:    runs,
			Seed:    seed,
			Rate:    rate,
			Mode:    mode,
			Workers: workers,
			Verify:  doVerify,
		})
		if err != nil {
			log.Printf("%s: %v", name, err)
			cellsFailed++
			continue
		}
		fmt.Println(mfsynth.RenderCampaign(camp))
		if camp.ViolationRuns() > 0 {
			cellsFailed++
		}
		if minSuccess > 0 && camp.SuccessRate() < minSuccess {
			log.Printf("%s: success rate %.1f%% below the %.1f%% bar",
				name, 100*camp.SuccessRate(), 100*minSuccess)
			cellsFailed++
		}
	}
	fmt.Println()
}

// printExtensions runs the experiments beyond the paper's evaluation: the
// execution-speedup future-work direction, the wear/lifetime model and the
// control-pin analysis. The independent case × policy cells of each section
// are evaluated concurrently and printed in the fixed serial order.
func printExtensions(ctx context.Context, workers int, tr *mfsynth.Trace) {
	workers = par.Workers(workers)
	names := mfsynth.CaseNames()

	fmt.Println("== Extension: execution speedup with dynamic devices (paper §5 future work) ==")
	type speedCell struct {
		name   string
		policy int
	}
	var cells []speedCell
	for _, name := range names {
		for p := 1; p <= 3; p++ {
			cells = append(cells, speedCell{name, p})
		}
	}
	type speedRes struct {
		s   *mfsynth.Speedup
		err error
	}
	speedups, perr := par.MapCtx(ctx, workers, len(cells), func(i int) (speedRes, error) {
		c, err := mfsynth.CaseByName(cells[i].name)
		if err != nil {
			return speedRes{err: err}, nil
		}
		s, err := mfsynth.ExecutionSpeedup(c, cells[i].policy)
		return speedRes{s: s, err: err}, nil
	})
	if perr != nil {
		// Per-cell errors ride in speedRes; an error here is a recovered
		// worker panic or a cancellation and must not be dropped.
		log.Printf("speedup extension: %v", perr)
		cellsFailed++
		return
	}
	var rows []*mfsynth.Speedup
	for i, r := range speedups {
		if r.err != nil {
			log.Printf("%s p%d: %v", cells[i].name, cells[i].policy, r.err)
			cellsFailed++
			continue
		}
		rows = append(rows, r.s)
	}
	fmt.Println(mfsynth.RenderSpeedups(rows))

	fmt.Println("== Extension: chip service life (rated valve life 4000 actuations) ==")
	model := mfsynth.WearModel{RatedActuations: 4000}
	fmt.Printf("%-22s %-4s %12s %12s %8s %14s %14s\n",
		"case", "po.", "runs trad.", "runs ours", "gain", "balance trad.", "balance ours")
	type wearRes struct {
		trad, ours []int
	}
	wearRows, err := par.MapCtx(ctx, workers, len(names), func(i int) (wearRes, error) {
		c, _ := mfsynth.CaseByName(names[i])
		des, err := mfsynth.Traditional(c, 1, mfsynth.DefaultCost)
		if err != nil {
			return wearRes{}, err
		}
		res, err := mfsynth.SynthesizeCtx(ctx, c.Assay, mfsynth.Options{
			Policy: mfsynth.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:  mfsynth.PlaceConfig{Grid: c.GridSize, Mode: mfsynth.GreedyPlace},
			Trace:  tr,
		})
		if err != nil {
			return wearRes{}, err
		}
		return wearRes{
			trad: mfsynth.TraditionalActuationCounts(des),
			ours: mfsynth.ChipActuationCounts(res),
		}, nil
	})
	if err != nil {
		log.Printf("wear extension: %v", err)
		cellsFailed++
		return
	}
	for i, wr := range wearRows {
		rt, ro := model.RunsToFirstWearout(wr.trad), model.RunsToFirstWearout(wr.ours)
		fmt.Printf("%-22s p1   %12d %12d %7.2fx %14.3f %14.3f\n",
			names[i], rt, ro, float64(ro)/float64(rt),
			mfsynth.WearBalance(wr.trad), mfsynth.WearBalance(wr.ours))
	}
	fmt.Println()

	fmt.Println("== Extension: control-layer effort and contamination risk ==")
	type ctrlRes struct {
		ca     mfsynth.ControlAnalysis
		lay    mfsynth.ControlLayout
		contam mfsynth.ContaminationReport
		plan   mfsynth.WashPlan
	}
	ctrlRows, err := par.MapCtx(ctx, workers, len(names), func(i int) (ctrlRes, error) {
		c, _ := mfsynth.CaseByName(names[i])
		res, err := mfsynth.SynthesizeCtx(ctx, c.Assay, mfsynth.Options{
			Policy: mfsynth.Resources{Mixers: c.BaseMixers, Detectors: c.Detectors},
			Place:  mfsynth.PlaceConfig{Grid: c.GridSize, Mode: mfsynth.GreedyPlace},
			Trace:  tr,
		})
		if err != nil {
			return ctrlRes{}, err
		}
		ca := mfsynth.AnalyzeControl(res)
		return ctrlRes{
			ca:     ca,
			lay:    mfsynth.RouteControlLayer(res, ca),
			contam: mfsynth.AnalyzeContamination(res),
			plan:   mfsynth.PlanWashes(res),
		}, nil
	})
	if err != nil {
		log.Printf("control extension: %v", err)
		cellsFailed++
		return
	}
	for i, cr := range ctrlRows {
		fmt.Printf("%-22s %s\n", names[i], cr.ca)
		fmt.Printf("%-22s control layer: %d/%d trees routed, %d extra pins, channel length %d\n",
			"", cr.lay.Routed, cr.lay.Routed+cr.lay.Failed, cr.lay.ExtraPins, cr.lay.TotalLength)
		fmt.Printf("%-22s %s\n", "", cr.contam)
		fmt.Printf("%-22s wash plan: %d flushes clear %d/%d risks, vs1max %d -> %d\n",
			"", len(cr.plan.Washes), cr.plan.Cleared, cr.plan.Cleared+cr.plan.Uncleared,
			cr.plan.VsMax1Before, cr.plan.VsMax1After)
	}
	fmt.Println()

	fmt.Println("== Extension: in-vitro diagnostics scaling (samples × reagents) ==")
	fmt.Printf("%8s %8s %8s %10s %10s %8s\n", "size", "#op", "vs1max", "vs2max", "#valves", "makespan")
	sizes := []int{2, 3, 4}
	type vitroRes struct {
		a   *mfsynth.Assay
		res *mfsynth.Result
		err error
	}
	vitro, verr := par.MapCtx(ctx, workers, len(sizes), func(i int) (vitroRes, error) {
		s := sizes[i]
		a := mfsynth.InVitro(s, s, 8)
		grid := 12 + 2*(s-2)
		res, err := mfsynth.SynthesizeCtx(ctx, a, mfsynth.Options{
			Policy: mfsynth.Resources{Mixers: map[int]int{8: s}, Detectors: s},
			Place:  mfsynth.PlaceConfig{Grid: grid, Mode: mfsynth.GreedyPlace},
			Trace:  tr,
		})
		return vitroRes{a: a, res: res, err: err}, nil
	})
	if verr != nil {
		log.Printf("in-vitro extension: %v", verr)
		cellsFailed++
		return
	}
	for i, vr := range vitro {
		s := sizes[i]
		if vr.err != nil {
			log.Printf("InVitro %dx%d: %v", s, s, vr.err)
			cellsFailed++
			continue
		}
		res := vr.res
		fmt.Printf("%5dx%-2d %8s %5d(%2d) %6d(%2d) %8d %8d\n",
			s, s, vr.a.Stats(), res.VsMax1, res.VsPump1, res.VsMax2, res.VsPump2,
			res.UsedValves, res.Schedule.Makespan)
	}
	fmt.Println()
}

func printFigures(ctx context.Context, tr *mfsynth.Trace) {
	fmt.Println("== Fig. 2 vs Fig. 3: dedicated mixer vs valve-role-changing mixer ==")
	fmt.Println(report.Fig2vs3())

	c := mfsynth.PCR()
	des, err := mfsynth.Traditional(c, 1, mfsynth.DefaultCost)
	if err != nil {
		log.Fatal(err)
	}
	res, err := mfsynth.SynthesizeCtx(ctx, c.Assay, mfsynth.Options{
		Policy: mfsynth.Resources{Mixers: des.Mixers},
		Place:  mfsynth.PlaceConfig{Grid: c.GridSize},
		Trace:  tr,
	})
	if err != nil {
		log.Printf("figures: %v", err)
		cellsFailed++
		return
	}

	fmt.Println("== Fig. 9: scheduling result of case PCR in p1 ==")
	fmt.Println(res.Schedule.Gantt())

	fmt.Println("== Fig. 10: snapshots of the synthesis result of case PCR in p1 ==")
	for _, t := range res.SnapshotTimes() {
		fmt.Println(res.Snapshot(t))
	}
	fmt.Printf("result: %s\n\n", res)
}

func printTable1(ctx context.Context, fast bool, workers int, jsonOut string, doVerify bool, faults *mfsynth.FaultSet, faultSeed int64, faultRate float64, tr *mfsynth.Trace) {
	opts := mfsynth.Table1RowOptions{
		Workers: workers, Trace: tr, Verify: doVerify,
		Faults: faults, FaultSeed: faultSeed, FaultRate: faultRate,
	}
	if fast {
		opts.Mode = mfsynth.GreedyPlace
	}
	if !faults.Empty() || faultRate > 0 {
		fmt.Println("(fault injection active: metrics may deviate from the paper's Table 1)")
	}
	fmt.Println("== Table 1: comparison with optimal binding for traditional designs ==")
	start := time.Now()
	rows, err := mfsynth.Table1Ctx(ctx, opts)
	wall := time.Since(start)
	if err != nil {
		log.Printf("table1: %v", err)
		cellsFailed++
		return
	}
	fmt.Println(mfsynth.RenderTable1(rows))
	fmt.Printf("wall-clock: %.1fs (workers %d, GOMAXPROCS %d)\n\n",
		wall.Seconds(), par.Workers(workers), runtime.GOMAXPROCS(0))
	if jsonOut != "" {
		if err := writeTable1JSON(jsonOut, rows, opts, workers, wall, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", jsonOut)
	}
}

// printAblation runs the backend-ablation sweep (-ablation): every
// instance synthesised once per backend under the same deadline, so the
// producers can be compared head to head. The JSON artefact
// (-ablation-out) feeds tools/benchgate -ablation.
func printAblation(ctx context.Context, out string, deadline time.Duration, sizesCSV, casesCSV string, seed int64, workers int, doVerify bool, tr *mfsynth.Trace) {
	sizes, err := parseSizes(sizesCSV)
	if err != nil {
		log.Printf("ablation: %v", err)
		cellsFailed++
		return
	}
	opts := mfsynth.AblationOptions{
		Sizes:    sizes,
		Seed:     1,
		Cases:    splitCSV(casesCSV),
		Deadline: deadline,
		Anneal:   mfsynth.AnnealOptions{Seed: seed},
		Workers:  workers,
		Verify:   doVerify,
		Trace:    tr,
	}
	fmt.Printf("== Backend ablation: ilp vs greedy vs anneal, %s deadline ==\n", deadline)
	start := time.Now()
	rows, err := mfsynth.Ablation(ctx, opts)
	wall := time.Since(start)
	if err != nil {
		log.Printf("ablation: %v", err)
		cellsFailed++
		return
	}
	fmt.Printf("%-18s %5s %5s", "instance", "#op", "grid")
	for _, b := range mfsynth.Backends() {
		fmt.Printf(" | %-24s", b)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-18s %5d %5d", r.Instance, r.Ops, r.Grid)
		for _, b := range mfsynth.Backends() {
			c := r.Cell(string(b))
			switch {
			case c == nil:
				fmt.Printf(" | %-24s", "-")
			case !c.Ok:
				fmt.Printf(" | %-24s", "failed ("+truncate(c.Err, 14)+")")
			default:
				mark := ""
				if !c.Complete {
					mark = "*"
				}
				fmt.Printf(" | vs1 %-4d #v %-4d %5.1fs%-1s", c.VsMax1, c.UsedValves, c.Seconds, mark)
			}
		}
		fmt.Println()
	}
	fmt.Printf("(* = incomplete mapping; wall-clock %.1fs)\n\n", wall.Seconds())
	if out != "" {
		if err := writeAblationJSON(out, rows, opts, wall); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", out)
	}
}

// printFleet runs the fleet wear campaign (-fleet): the same seeded
// request stream executed with a static mapping per chip and with the
// closed-loop wear controller, compared on assays completed before the
// first chip death. The JSON artefact (-fleet-out) feeds
// tools/benchgate -fleet.
func printFleet(ctx context.Context, out string, chips, rounds int, seed int64, rated int, spread float64, caseName string, horizon int, bias float64, tr *mfsynth.Trace) {
	c, err := mfsynth.CaseByName(caseName)
	if err != nil {
		log.Printf("fleet: %v", err)
		cellsFailed++
		return
	}
	cfg := mfsynth.FleetConfig{
		Chips:      chips,
		Grid:       c.GridSize,
		Seed:       seed,
		Rounds:     rounds,
		Rated:      rated,
		LifeSpread: spread,
		Horizon:    horizon,
		WearBias:   bias,
		Workloads: []mfsynth.FleetWorkload{{
			Name:  caseName,
			Assay: c.Assay,
			// The greedy mapper keeps campaign-scale re-synthesis cheap;
			// wear steering happens through the prior it is seeded with.
			Options: mfsynth.Options{Place: mfsynth.PlaceConfig{Mode: mfsynth.GreedyPlace}},
		}},
		Trace: tr,
	}
	fmt.Printf("== Fleet wear campaign: %d chips, %q stream, rated life %d, seed %d ==\n",
		chips, caseName, rated, seed)
	start := time.Now()
	res, _, err := mfsynth.RunFleet(ctx, cfg)
	wall := time.Since(start)
	if err != nil {
		log.Printf("fleet: %v", err)
		cellsFailed++
		return
	}
	fmt.Printf("%-12s %8s %8s %8s %10s %8s %8s\n",
		"mode", "assays†", "total", "death@", "mean-runs", "resynth", "promote")
	for _, row := range []struct {
		name string
		m    mfsynth.FleetModeResult
	}{{"static", res.Static}, {"closed-loop", res.Closed}} {
		fmt.Printf("%-12s %8d %8d %8d %10.1f %8d %8d\n",
			row.name, row.m.AssaysBeforeFirstDeath, row.m.TotalAssays,
			row.m.FirstDeathRound, row.m.MeanRunsToFirstWearout,
			row.m.Resyntheses, row.m.Promotions)
	}
	fmt.Printf("(† = fleet-wide assays completed before the first chip death)\n")
	fmt.Printf("closed-loop lifetime extension: %+.1f%% (fingerprint %s, wall-clock %.1fs)\n\n",
		res.LifetimeExtensionPct, res.Fingerprint[:12], wall.Seconds())
	if out != "" {
		if err := writeFleetJSON(out, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", out)
	}
}

// writeFleetJSON writes the campaign artefact (-fleet-out); the fleet
// Result is already the machine-readable form, fingerprint included.
func writeFleetJSON(path string, res *mfsynth.FleetResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseSizes parses the -ablation-sizes CSV ("" keeps the defaults).
func parseSizes(csv string) ([]int, error) {
	var sizes []int
	for _, f := range splitCSV(csv) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -ablation-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func splitCSV(s string) []string {
	var fields []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			fields = append(fields, f)
		}
	}
	return fields
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// ablationJSON is the machine-readable ablation artefact (-ablation-out);
// tools/benchgate -ablation consumes it.
type ablationJSON struct {
	DeadlineSeconds float64                `json:"deadline_seconds"`
	Seed            int64                  `json:"seed"`
	AnnealSeed      int64                  `json:"anneal_seed"`
	Backends        []string               `json:"backends"`
	WallSeconds     float64                `json:"wall_seconds"`
	Rows            []*mfsynth.AblationRow `json:"rows"`
}

func writeAblationJSON(path string, rows []*mfsynth.AblationRow, opts mfsynth.AblationOptions, wall time.Duration) error {
	out := ablationJSON{
		DeadlineSeconds: opts.Deadline.Seconds(),
		Seed:            opts.Seed,
		AnnealSeed:      opts.Anneal.WithDefaults().Seed,
		WallSeconds:     wall.Seconds(),
		Rows:            rows,
	}
	for _, b := range mfsynth.Backends() {
		out.Backends = append(out.Backends, string(b))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table1JSON is the machine-readable Table 1 artefact (-json flag).
type table1JSON struct {
	Mode        string        `json:"mode"`
	Workers     int           `json:"workers"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	WallSeconds float64       `json:"wall_seconds"`
	Rows        []table1Row   `json:"rows"`
	Averages    table1AvgJSON `json:"averages"`
	// Metrics is the observability snapshot accumulated across the twelve
	// synthesis runs (solver nodes, Dijkstra pops, …).
	Metrics *mfsynth.MetricsSnapshot `json:"metrics,omitempty"`
}

type table1Row struct {
	Case       string  `json:"case"`
	Policy     int     `json:"policy"`
	Ops        string  `json:"ops"`
	NumDevices int     `json:"num_devices"`
	MixVector  string  `json:"mix_vector"`
	VsTmax     int     `json:"vs_tmax"`
	TradValves int     `json:"trad_valves"`
	Vs1Max     int     `json:"vs1_max"`
	Vs1Pump    int     `json:"vs1_pump"`
	Imp1Pct    float64 `json:"imp1_pct"`
	Vs2Max     int     `json:"vs2_max"`
	Vs2Pump    int     `json:"vs2_pump"`
	Imp2Pct    float64 `json:"imp2_pct"`
	OurValves  int     `json:"our_valves"`
	ImpVPct    float64 `json:"impv_pct"`
	// LB is the counting lower bound on vs1_pump and Gap vs1_pump's
	// distance above it (0 = optimal on the paper's objective).
	LB  int `json:"lb"`
	Gap int `json:"gap"`
	// Backend names the producer whose mapping the row reports.
	Backend string `json:"backend"`
	// FailedRoutes counts the row's unrouted transports (0 = complete).
	FailedRoutes   int     `json:"failed_routes"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
	// PhaseSeconds splits the runtime over the synthesis pipeline phases
	// ("schedule", "place", "route").
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

type table1AvgJSON struct {
	Imp1Pct float64 `json:"imp1_pct"`
	Imp2Pct float64 `json:"imp2_pct"`
	ImpVPct float64 `json:"impv_pct"`
}

func writeTable1JSON(path string, rows []*mfsynth.Table1Row, opts mfsynth.Table1RowOptions, workers int, wall time.Duration, tr *mfsynth.Trace) error {
	out := table1JSON{
		Mode:        opts.Mode.String(),
		Workers:     par.Workers(workers),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		WallSeconds: wall.Seconds(),
		Metrics:     tr.Metrics().Snapshot(),
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, table1Row{
			Case:           r.Case,
			Policy:         r.Policy,
			Ops:            r.Ops,
			NumDevices:     r.NumDevices,
			MixVector:      r.MixVector,
			VsTmax:         r.VsTmax,
			TradValves:     r.TradValves,
			Vs1Max:         r.Vs1Max,
			Vs1Pump:        r.Vs1Pump,
			Imp1Pct:        r.Imp1,
			Vs2Max:         r.Vs2Max,
			Vs2Pump:        r.Vs2Pump,
			Imp2Pct:        r.Imp2,
			OurValves:      r.OurValves,
			ImpVPct:        r.ImpV,
			LB:             r.LB,
			Gap:            r.Gap,
			Backend:        r.Backend,
			FailedRoutes:   r.FailedRoutes,
			RuntimeSeconds: r.Runtime.Seconds(),
			PhaseSeconds:   r.Phases,
		})
	}
	out.Averages.Imp1Pct, out.Averages.Imp2Pct, out.Averages.ImpVPct = mfsynth.Table1Averages(rows)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command mfsynth runs the reliability-aware synthesis on a benchmark or a
// user assay and prints the resulting metrics, schedule and chip snapshots.
//
// Usage:
//
//	mfsynth -case PCR -policy 1 -snapshots
//	mfsynth -assay my_assay.txt -grid 14 -mode greedy -gantt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mfsynth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfsynth: ")

	var (
		caseName   = flag.String("case", "PCR", "benchmark case: "+strings.Join(mfsynth.CaseNames(), ", "))
		assayFile  = flag.String("assay", "", "assay file in the mfsynth text format (overrides -case)")
		policy     = flag.Int("policy", 1, "traditional-design policy index (1-3), fixes the input schedule")
		grid       = flag.Int("grid", 0, "valve matrix side length (0 = case default)")
		mode       = flag.String("mode", "rolling", "mapper: rolling, monolithic, greedy")
		gantt      = flag.Bool("gantt", false, "print the scheduling result as a Gantt chart")
		snapshots  = flag.Bool("snapshots", false, "print Fig. 10-style chip snapshots")
		compare    = flag.Bool("compare", true, "print the traditional-design comparison")
		svgOut     = flag.String("svg", "", "write the chip layout as SVG to this file")
		dotOut     = flag.String("dot", "", "write the assay graph as Graphviz DOT to this file")
		workers    = flag.Int("workers", 0, "synthesis worker count (0 = all CPUs, 1 = serial; results are identical)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the synthesis run to this file (load in chrome://tracing or Perfetto)")
		eventsOut  = flag.String("events", "", "write the span/metric event stream as JSON lines to this file")
		stats      = flag.Bool("stats", false, "print the span tree and metrics summary to stderr")
		httpAddr   = flag.String("http", "", "serve live debug endpoints on this address while running: /metrics, /progress (SSE), /debug/pprof, /debug/vars (e.g. :8080)")
		profDir    = flag.String("profile-dir", "", "capture continuous profiles into this directory: whole-run cpu.pprof plus per-phase heap snapshots")
		progLog    = flag.String("progress-log", "", "write live progress snapshots as JSON lines to this file (validate with tracecheck -progress)")
		doVerify   = flag.Bool("verify", false, "audit the result against the full conformance catalogue; exit non-zero on violations")
		faultFile  = flag.String("faults", "", "fault-spec file: defective valves the synthesis must work around")
		faultSeed  = flag.Int64("fault-seed", 0, "generate a random fault set with this seed (with -fault-rate)")
		faultRate  = flag.Float64("fault-rate", 0, "per-valve defect probability for -fault-seed (e.g. 0.05)")
		backends   = flag.String("backends", "", "nominal mapping producers in priority order, e.g. ilp,greedy,anneal (empty = per -mode: rolling runs ilp,greedy)")
		annealSeed = flag.Int64("anneal-seed", 0, "simulated-annealing base seed (0 = default 1; same seed, same mapping)")
		annealReps = flag.Int("anneal-replicates", 0, "simulated-annealing restarts (0 = default 8)")
		deadline   = flag.Duration("deadline", 0, "synthesis wall-clock budget, e.g. 30s (0 = none); a producer still running then forfeits to those that finished")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the synthesis through the context rather than
	// killing the process: the run returns a structured error and the sink
	// flushing below still happens, so a trace or events file from an
	// interrupted run is valid up to the cut.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tr *mfsynth.Trace
	if *traceOut != "" || *eventsOut != "" || *stats ||
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

	// The synthesis body runs inside a closure so every exit path — success,
	// error, or signal cancellation — falls through to the sink flushing
	// below instead of log.Fatal-ing past it.
	run := func() error {
		placeMode, err := parseMode(*mode)
		if err != nil {
			return err
		}
		portfolio, err := mfsynth.ParseBackends(*backends)
		if err != nil {
			return err
		}
		annealOpts := mfsynth.AnnealOptions{Seed: *annealSeed, Replicates: *annealReps}
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}

		var c mfsynth.Case
		if *assayFile != "" {
			f, err := os.Open(*assayFile)
			if err != nil {
				return err
			}
			a, err := mfsynth.ParseAssay(f)
			f.Close()
			if err != nil {
				return err
			}
			c = mfsynth.Case{Assay: a, GridSize: 12, BaseMixers: map[int]int{}}
			for _, id := range a.MixOps() {
				c.BaseMixers[a.Volume(id)] = 1
			}
		} else {
			c, err = mfsynth.CaseByName(*caseName)
			if err != nil {
				return err
			}
		}
		if *grid > 0 {
			c.GridSize = *grid
		}

		// Fault injection: an explicit spec file wins over seeded generation.
		var faults *mfsynth.FaultSet
		switch {
		case *faultFile != "":
			f, err := os.Open(*faultFile)
			if err != nil {
				return err
			}
			faults, err = mfsynth.ParseFaults(f)
			f.Close()
			if err != nil {
				return err
			}
		case *faultRate > 0:
			faults = mfsynth.GenerateFaults(*faultSeed, mfsynth.FaultGenOptions{
				Grid: c.GridSize, Rate: *faultRate, KeepPorts: true,
			})
		}

		row, err := mfsynth.EvaluateRowCtx(ctx, c, *policy, mfsynth.Table1RowOptions{
			Mode: placeMode, Grid: c.GridSize, Workers: *workers, Faults: faults,
			Backends: portfolio, Anneal: annealOpts,
		})
		if err != nil {
			return err
		}

		// Re-run the synthesis to get the full result for rendering.
		des, err := mfsynth.Traditional(c, *policy, mfsynth.DefaultCost)
		if err != nil {
			return err
		}
		res, err := mfsynth.SynthesizeCtx(ctx, c.Assay, mfsynth.Options{
			Policy:   mfsynth.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:    mfsynth.PlaceConfig{Grid: c.GridSize, Mode: placeMode},
			Workers:  *workers,
			Trace:    tr,
			Faults:   faults,
			Backends: portfolio,
			Anneal:   annealOpts,
		})
		if err != nil {
			return err
		}

		fmt.Printf("%s (policy p%d, %s mapping, %dx%d valve matrix)\n",
			c.Assay.Name, *policy, *mode, c.GridSize, c.GridSize)
		fmt.Printf("  operations:        %s\n", c.Assay.Stats())
		fmt.Printf("  setting 1:         vs_max %d (pump %d)\n", res.VsMax1, res.VsPump1)
		fmt.Printf("  setting 2:         vs_max %d (pump %d)\n", res.VsMax2, res.VsPump2)
		fmt.Printf("  valves used:       %d of %d virtual\n", res.UsedValves, c.GridSize*c.GridSize)
		if !faults.Empty() {
			fmt.Printf("  faults injected:   %d defective valve(s)\n", faults.Len())
		}
		if res.Degraded() {
			fmt.Printf("  degradation:       %s\n", res.Degradation)
		} else if !faults.Empty() {
			fmt.Printf("  degradation:       none (nominal result despite faults)\n")
		}
		fmt.Printf("  backend:           %s\n", res.Backend)
		if res.Race != nil {
			for _, l := range res.Race.Lanes {
				mark := " "
				if l.Won {
					mark = "*"
				}
				if l.Ok {
					fmt.Printf("   %s %-7s vs_max1 %-4d vs_max2 %-4d #v %-4d unrouted %d %.2fs\n",
						mark, l.Backend, l.VsMax1, l.VsMax2, l.UsedValves, l.FailedRoutes, l.Seconds)
				} else {
					fmt.Printf("   %s %-7s failed: %s\n", mark, l.Backend, l.Err)
				}
			}
		}
		if *compare {
			fmt.Printf("  traditional:       vs_tmax %d with %d valves (#d %d, #m %s)\n",
				des.VsTmax, des.Valves, des.NumDevices, des.MixVector())
			fmt.Printf("  improvement:       %.2f%% (setting 1), %.2f%% (setting 2), %.2f%% valves\n",
				row.Imp1, row.Imp2, row.ImpV)
		}
		fmt.Printf("  runtime:           %s\n", res.Runtime.Round(res.Runtime/100+1))
		if *doVerify {
			rep := mfsynth.Verify(res)
			fmt.Printf("  conformance:       %d checks, %d violation(s)\n", rep.Checks, len(rep.Violations))
			if !rep.Clean() {
				return fmt.Errorf("conformance audit failed:\n%s", rep)
			}
		}

		if *gantt {
			fmt.Println("\nScheduling result:")
			fmt.Println(res.Schedule.Gantt())
		}
		if *snapshots {
			fmt.Println("\nChip snapshots:")
			for _, t := range res.SnapshotTimes() {
				fmt.Println(res.Snapshot(t))
			}
		}
		if *svgOut != "" {
			f, err := os.Create(*svgOut)
			if err != nil {
				return err
			}
			if err := mfsynth.WriteSVG(f, res, mfsynth.SVGOptions{At: -1}); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *svgOut)
		}
		if *dotOut != "" {
			f, err := os.Create(*dotOut)
			if err != nil {
				return err
			}
			if err := mfsynth.WriteDOT(f, c.Assay); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *dotOut)
		}
		return nil
	}
	runErr := run()
	// Flush every sink before exiting: all sinks are attempted even when
	// one fails, and the first error is fatal rather than silently dropped.
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
	switch {
	case runErr != nil && ctx.Err() != nil:
		log.Fatalf("interrupted by signal; observability sinks were flushed with the partial run (%v)", runErr)
	case runErr != nil:
		log.Fatal(runErr)
	case sinkErr != nil:
		log.Fatal(sinkErr)
	}
}

func parseMode(s string) (mfsynth.PlaceMode, error) {
	switch s {
	case "rolling":
		return mfsynth.RollingHorizon, nil
	case "monolithic":
		return mfsynth.MonolithicILP, nil
	case "greedy":
		return mfsynth.GreedyPlace, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want rolling, monolithic or greedy)", s)
}

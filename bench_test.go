package mfsynth

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The Table 1 benches report the reliability metrics (vs1max, vs2max, #v
// and the improvement over the traditional design) as custom benchmark
// metrics, so a bench run regenerates the table's numbers. The two
// dilution cases use the greedy mapper here to keep -bench runs short; the
// full rolling-horizon numbers are produced by cmd/mfbench (and recorded
// in EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/control"
	"mfsynth/internal/core"
	"mfsynth/internal/grid"
	"mfsynth/internal/place"
	"mfsynth/internal/report"
	"mfsynth/internal/route"
	"mfsynth/internal/schedule"
	"mfsynth/internal/storage"
	"mfsynth/internal/wear"
)

// --- Table 1 ---------------------------------------------------------

func benchTable1(b *testing.B, name string, policy int, mode place.Mode) {
	b.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var row *report.Row
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err = report.Table1Row(c, policy, report.RowOptions{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.VsTmax), "vs_tmax")
	b.ReportMetric(float64(row.Vs1Max), "vs1max")
	b.ReportMetric(float64(row.Vs2Max), "vs2max")
	b.ReportMetric(float64(row.OurValves), "valves")
	b.ReportMetric(row.Imp1, "imp1_%")
	b.ReportMetric(row.Imp2, "imp2_%")
}

func BenchmarkTable1_PCR_P1(b *testing.B) { benchTable1(b, "PCR", 1, place.RollingHorizon) }
func BenchmarkTable1_PCR_P2(b *testing.B) { benchTable1(b, "PCR", 2, place.RollingHorizon) }
func BenchmarkTable1_PCR_P3(b *testing.B) { benchTable1(b, "PCR", 3, place.RollingHorizon) }

func BenchmarkTable1_MixingTree_P1(b *testing.B) { benchTable1(b, "MixingTree", 1, place.Greedy) }
func BenchmarkTable1_MixingTree_P2(b *testing.B) { benchTable1(b, "MixingTree", 2, place.Greedy) }
func BenchmarkTable1_MixingTree_P3(b *testing.B) { benchTable1(b, "MixingTree", 3, place.Greedy) }

func BenchmarkTable1_InterpolatingDilution_P1(b *testing.B) {
	benchTable1(b, "InterpolatingDilution", 1, place.Greedy)
}
func BenchmarkTable1_InterpolatingDilution_P2(b *testing.B) {
	benchTable1(b, "InterpolatingDilution", 2, place.Greedy)
}
func BenchmarkTable1_InterpolatingDilution_P3(b *testing.B) {
	benchTable1(b, "InterpolatingDilution", 3, place.Greedy)
}

func BenchmarkTable1_ExponentialDilution_P1(b *testing.B) {
	benchTable1(b, "ExponentialDilution", 1, place.Greedy)
}
func BenchmarkTable1_ExponentialDilution_P2(b *testing.B) {
	benchTable1(b, "ExponentialDilution", 2, place.Greedy)
}
func BenchmarkTable1_ExponentialDilution_P3(b *testing.B) {
	benchTable1(b, "ExponentialDilution", 3, place.Greedy)
}

// --- Figures ----------------------------------------------------------

// BenchmarkFig2DedicatedMixer regenerates the dedicated-mixer actuation
// table of Fig. 2(f).
func BenchmarkFig2DedicatedMixer(b *testing.B) {
	var f report.Fig2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f = report.DedicatedMixer(2)
	}
	b.ReportMetric(float64(f.Max()), "max_actuations")
	b.ReportMetric(float64(f.NumValves()), "valves")
}

// BenchmarkFig3RoleChanging regenerates the valve-role-changing mixer
// comparison of Fig. 3 (largest count 80 → 48 with 8 valves).
func BenchmarkFig3RoleChanging(b *testing.B) {
	var f report.Fig3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f = report.RoleChangingMixer(2)
	}
	b.ReportMetric(float64(f.Max()), "max_actuations")
	b.ReportMetric(float64(f.NumValves()), "valves")
}

// BenchmarkFig5OrientationShare exercises the shape catalog behind Fig. 5:
// dynamic mixers of different orientations sharing the same area.
func BenchmarkFig5OrientationShare(b *testing.B) {
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range assays.MixerSizes {
			n += len(ShapesForVolume(v))
		}
	}
	b.ReportMetric(float64(n/b.N), "shapes")
}

// BenchmarkFig7StorageTimeline builds the in situ storage timeline of
// Fig. 7 on the PCR schedule.
func BenchmarkFig7StorageTimeline(b *testing.B) {
	c := assays.PCR()
	res, err := schedule.List(c.Assay, schedule.Options{})
	if err != nil {
		b.Fatal(err)
	}
	o5 := opByName(b, res, "o5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl := storage.NewTimeline(res, o5, 10)
		if tl == nil || tl.FreeAt(tl.Start) != 0 {
			b.Fatal("bad timeline")
		}
	}
}

// BenchmarkFig8StoragePassthrough measures routing through a storage with
// free space versus detouring around it once blocked (Fig. 8).
func BenchmarkFig8StoragePassthrough(b *testing.B) {
	bounds := grid.RectWH(0, 0, 10, 10)
	sk := grid.RectWH(3, 3, 4, 4)
	src := []grid.Point{{X: 0, Y: 5}}
	dst := []grid.Point{{X: 9, Y: 5}}
	var through, detour int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := route.New(bounds)
		r.AddStorage(7, sk)
		p1, err := r.Route(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		through = len(p1)
		r.BlockStorage(7)
		p2, err := r.Route(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		detour = len(p2)
	}
	b.ReportMetric(float64(through), "passthrough_len")
	b.ReportMetric(float64(detour), "detour_len")
}

// BenchmarkFig9PCRGantt regenerates the PCR p1 scheduling result.
func BenchmarkFig9PCRGantt(b *testing.B) {
	c := assays.PCR()
	b.ReportAllocs()
	var g string
	for i := 0; i < b.N; i++ {
		res, err := schedule.List(c.Assay, schedule.Options{
			Resources: schedule.Resources{Mixers: c.BaseMixers},
		})
		if err != nil {
			b.Fatal(err)
		}
		g = res.Gantt()
	}
	if len(g) == 0 {
		b.Fatal("empty gantt")
	}
}

// BenchmarkFig10Snapshots synthesizes PCR p1 and renders every snapshot.
func BenchmarkFig10Snapshots(b *testing.B) {
	c := assays.PCR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy: schedule.Resources{Mixers: c.BaseMixers},
			Place:  place.Config{Grid: c.GridSize},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range res.SnapshotTimes() {
			if len(res.Snapshot(t)) == 0 {
				b.Fatal("empty snapshot")
			}
		}
	}
}

// --- Ablations --------------------------------------------------------

func benchAblationMode(b *testing.B, mode place.Mode) {
	c := assays.PCR()
	var vs1 int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy: schedule.Resources{Mixers: c.BaseMixers},
			Place:  place.Config{Grid: c.GridSize, Mode: mode},
		})
		if err != nil {
			b.Fatal(err)
		}
		vs1 = res.VsMax1
	}
	b.ReportMetric(float64(vs1), "vs1max")
}

func BenchmarkAblationMapperRolling_PCR(b *testing.B) { benchAblationMode(b, place.RollingHorizon) }
func BenchmarkAblationMapperGreedy_PCR(b *testing.B)  { benchAblationMode(b, place.Greedy) }
func BenchmarkAblationMapperMonolithic_PCR(b *testing.B) {
	benchAblationMode(b, place.Monolithic)
}

// BenchmarkAblationNoStorageOverlap disables the c5 relaxation of
// constraint (12): storages may not overlap their parent devices.
func BenchmarkAblationNoStorageOverlap_PCR(b *testing.B) {
	c := assays.PCR()
	var valves int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy: schedule.Resources{Mixers: c.BaseMixers},
			Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy, NoStorageOverlap: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		valves = res.UsedValves
	}
	b.ReportMetric(float64(valves), "valves")
}

// BenchmarkAblationNoPassthrough_PCR treats storages as routing obstacles
// (the Fig. 8(a) detour behaviour).
func BenchmarkAblationNoPassthrough_PCR(b *testing.B) {
	c := assays.PCR()
	var valves int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy:                    schedule.Resources{Mixers: c.BaseMixers},
			Place:                     place.Config{Grid: c.GridSize, Mode: place.Greedy},
			DisableStoragePassthrough: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		valves = res.UsedValves
	}
	b.ReportMetric(float64(valves), "valves")
}

// BenchmarkAblationNoRoutingConvenient_PCR drops constraints (13)-(16).
func BenchmarkAblationNoRoutingConvenient_PCR(b *testing.B) {
	c := assays.PCR()
	var vs1 int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy: schedule.Resources{Mixers: c.BaseMixers},
			Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy, NoRoutingConvenient: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		vs1 = res.VsMax1
	}
	b.ReportMetric(float64(vs1), "vs1max")
}

// --- Parallel engine --------------------------------------------------

// benchSynthesizeWorkers runs the full synthesis with a fixed worker count;
// the reported metrics are identical for every count (the deterministic
// merge contract), only ns/op changes with the core count.
func benchSynthesizeWorkers(b *testing.B, name string, mode place.Mode, workers int) {
	b.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	des, err := baseline.Traditional(c, 1, baseline.DefaultCost)
	if err != nil {
		b.Fatal(err)
	}
	var vs1 int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy:  schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:   place.Config{Grid: c.GridSize, Mode: mode},
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		vs1 = res.VsMax1
	}
	b.ReportMetric(float64(vs1), "vs1max")
}

// BenchmarkParallelGreedy_MixingTree exercises the concurrent multi-start
// greedy fan-out (32 variants per batch) at several worker counts.
func BenchmarkParallelGreedy_MixingTree(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSynthesizeWorkers(b, "MixingTree", place.Greedy, w)
		})
	}
}

// BenchmarkParallelRolling_PCR runs the rolling-horizon mapper, whose
// batches fan out their multi-start greedy, at several worker counts.
func BenchmarkParallelRolling_PCR(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSynthesizeWorkers(b, "PCR", place.RollingHorizon, w)
		})
	}
}

// BenchmarkParallelTable1Greedy evaluates all twelve Table 1 cells
// (greedy mapper) with the cell-level fan-out of report.Table1.
func BenchmarkParallelTable1Greedy(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := report.Table1(report.RowOptions{Mode: place.Greedy, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 12 {
					b.Fatalf("%d rows", len(rows))
				}
			}
		})
	}
}

// --- Extensions -------------------------------------------------------

// BenchmarkExtensionSpeedup_PCR runs the execution-speedup experiment
// (paper §5 future work) on PCR p1.
func BenchmarkExtensionSpeedup_PCR(b *testing.B) {
	c := assays.PCR()
	var factor float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := report.ExecutionSpeedup(c, 1)
		if err != nil {
			b.Fatal(err)
		}
		factor = s.Factor
	}
	b.ReportMetric(factor, "speedup_x")
}

// BenchmarkExtensionWear_PCR computes the service-life gain of the dynamic
// chip over the traditional design.
func BenchmarkExtensionWear_PCR(b *testing.B) {
	c := assays.PCR()
	des, err := baseline.Traditional(c, 1, baseline.DefaultCost)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: des.Mixers},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
	})
	if err != nil {
		b.Fatal(err)
	}
	model := wear.Model{RatedActuations: 4000}
	var gain float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trad := wear.TraditionalProfile(des, baseline.DefaultCost)
		ours := wear.ChipCounts(res.ChipAt(-1, 1))
		gain = float64(model.RunsToFirstWearout(ours)) / float64(model.RunsToFirstWearout(trad))
	}
	b.ReportMetric(gain, "life_gain_x")
}

// BenchmarkExtensionControl_PCR measures the control-pin analysis.
func BenchmarkExtensionControl_PCR(b *testing.B) {
	c := assays.PCR()
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
	})
	if err != nil {
		b.Fatal(err)
	}
	var pins int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pins = control.Analyze(res).Pins
	}
	b.ReportMetric(float64(pins), "pins")
}

func opByName(b *testing.B, res *schedule.Result, name string) int {
	b.Helper()
	for _, op := range res.Assay.Ops() {
		if op.Name == name {
			return op.ID
		}
	}
	b.Fatalf("op %q not found", name)
	return -1
}

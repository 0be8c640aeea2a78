package verify

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// goldenMetrics pins the Table 1 p1 outcome of every benchmark. The values
// are regression anchors: any synthesis change that moves them must be
// deliberate (and re-pinned here), and every golden run must also pass the
// full conformance audit.
type goldenMetrics struct {
	vsMax1, vsPump1 int
	vsMax2, vsPump2 int
	used, failed    int
	maxPumpOps      int
}

var golden = map[string]goldenMetrics{
	"PCR":                   {46, 40, 32, 30, 76, 0, 1},
	"MixingTree":            {90, 80, 52, 50, 112, 0, 2},
	"InterpolatingDilution": {128, 120, 69, 65, 222, 0, 3},
	"ExponentialDilution":   {136, 120, 70, 62, 224, 0, 3},
}

// synthBenchmark runs one Table 1 cell under policy p1. The node cap
// replaces the default wall-clock B&B deadline so results are deterministic
// (a binding deadline is timing-dependent; a node cap is not). Listed
// backends replace the mode's producers; the anneal budget is kept small
// so -race runs stay short.
func synthBenchmark(t *testing.T, name string, mode place.Mode, workers int, backends ...core.Backend) *core.Result {
	t.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	des, err := baseline.Traditional(c, 1, baseline.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
		Place: place.Config{Grid: c.GridSize, Mode: mode,
			MaxNodes: 64, SolveTimeout: time.Hour},
		Workers:  workers,
		Backends: backends,
		Anneal:   core.AnnealOptions{Iters: 500},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestGoldenBenchmarksConform audits all four Table 1 benchmarks (policy
// p1, both evaluation settings) and pins their metrics — the acceptance
// gate of the conformance harness.
func TestGoldenBenchmarksConform(t *testing.T) {
	for _, name := range assays.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := synthBenchmark(t, name, place.Greedy, 1)
			if rep := Conformance(res); !rep.Clean() {
				t.Errorf("conformance: %s", rep)
			}
			want := golden[name]
			got := goldenMetrics{res.VsMax1, res.VsPump1, res.VsMax2, res.VsPump2,
				res.UsedValves, res.FailedRoutes, res.Mapping.MaxPumpOps}
			if got != want {
				t.Errorf("metrics drifted: got %+v, want %+v", got, want)
			}
		})
	}
}

// TestGoldenRollingConforms repeats the audit for the ILP-backed
// rolling-horizon mapper on PCR, which must reach the same pinned metrics.
func TestGoldenRollingConforms(t *testing.T) {
	if testing.Short() {
		t.Skip("branch-and-bound run skipped in -short mode")
	}
	res := synthBenchmark(t, "PCR", place.RollingHorizon, 1)
	if rep := Conformance(res); !rep.Clean() {
		t.Errorf("conformance: %s", rep)
	}
	want := golden["PCR"]
	got := goldenMetrics{res.VsMax1, res.VsPump1, res.VsMax2, res.VsPump2,
		res.UsedValves, res.FailedRoutes, res.Mapping.MaxPumpOps}
	if got != want {
		t.Errorf("metrics drifted: got %+v, want %+v", got, want)
	}
}

// TestSerialParallelBitIdentical is the differential oracle of the parallel
// engine: a serial run and a Workers=8 run must produce bit-identical
// results — same fingerprint over every scheduling, placement, routing and
// actuation decision — and both must pass the conformance audit. The
// anneal replicates are the synthesis-internal fan-out, so both runs list
// greedy and anneal as producers. Greedy may win the selection, so the
// race lanes, which carry the annealer's own result quality, must match
// too.
func TestSerialParallelBitIdentical(t *testing.T) {
	for _, name := range []string{"MixingTree", "PCR"} {
		name := name
		t.Run(name, func(t *testing.T) {
			serial := synthBenchmark(t, name, place.Greedy, 1, core.BackendGreedy, core.BackendAnneal)
			parallel := synthBenchmark(t, name, place.Greedy, 8, core.BackendGreedy, core.BackendAnneal)
			if Fingerprint(serial) != Fingerprint(parallel) {
				t.Errorf("serial and workers=8 diverge:\n%s",
					strings.Join(Diff("serial", serial, "workers=8", parallel), "\n"))
			}
			if s, p := laneQuality(serial), laneQuality(parallel); !reflect.DeepEqual(s, p) {
				t.Errorf("race lanes diverge:\nserial    %+v\nworkers=8 %+v", s, p)
			}
			for label, res := range map[string]*core.Result{"serial": serial, "workers=8": parallel} {
				if rep := Conformance(res); !rep.Clean() {
					t.Errorf("%s: %s", label, rep)
				}
			}
		})
	}
}

// laneQuality returns a result's race lanes without their wall-clock
// seconds.
func laneQuality(res *core.Result) []core.RaceLane {
	if res.Race == nil {
		return nil
	}
	lanes := append([]core.RaceLane(nil), res.Race.Lanes...)
	for i := range lanes {
		lanes[i].Seconds = 0
	}
	return lanes
}

// TestDynamicDominatesTraditional checks the paper's headline claim as an
// oracle: under policy p1, dynamic-device mapping must not exceed the
// traditional static binding's peak actuation count on any benchmark.
func TestDynamicDominatesTraditional(t *testing.T) {
	for _, name := range assays.Names() {
		c, err := assays.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		des, err := baseline.Traditional(c, 1, baseline.DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		res := synthBenchmark(t, name, place.Greedy, 1)
		if res.VsMax1 > des.VsTmax {
			t.Errorf("%s: dynamic peak %d exceeds traditional peak %d",
				name, res.VsMax1, des.VsTmax)
		}
	}
}

// TestRollingObjectiveSanity checks the mapper hierarchy: the ILP-backed
// rolling-horizon mapper's objective (peak pump operations per device site)
// must not be worse than the greedy heuristic's on PCR.
func TestRollingObjectiveSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("branch-and-bound run skipped in -short mode")
	}
	greedy := synthBenchmark(t, "PCR", place.Greedy, 1)
	rolling := synthBenchmark(t, "PCR", place.RollingHorizon, 1)
	if rolling.Mapping.MaxPumpOps > greedy.Mapping.MaxPumpOps {
		t.Errorf("rolling objective %d worse than greedy %d",
			rolling.Mapping.MaxPumpOps, greedy.Mapping.MaxPumpOps)
	}
}

package place

import (
	"fmt"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/graph"
	"mfsynth/internal/schedule"
)

// policySchedule schedules a benchmark under the resources of its
// traditional design at the given policy, the same schedule core hands
// the mapper in the Table 1 evaluation.
func policySchedule(t *testing.T, name string, policy int) *schedule.Result {
	t.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	return listSchedule(t, c.Assay, schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors})
}

func listSchedule(t *testing.T, a *graph.Assay, res schedule.Resources) *schedule.Result {
	t.Helper()
	sched, err := schedule.List(a, schedule.Options{Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// assertWarmColdIdentical maps sched twice with the node-capped
// rolling-horizon ILP, warm-started and all-cold, and checks that both
// runs place every operation identically, that the warm mapping is
// structurally sound and that the search actually ran.
func assertWarmColdIdentical(t *testing.T, label string, sched *schedule.Result, grid int) {
	t.Helper()
	cfg := Config{Grid: grid, Mode: RollingHorizon, MaxNodes: 64, SolveTimeout: time.Hour}
	warm, err := Map(sched, cfg)
	if err != nil {
		t.Fatalf("%s warm: %v", label, err)
	}
	cfg.coldLP = true
	cold, err := Map(sched, cfg)
	if err != nil {
		t.Fatalf("%s cold: %v", label, err)
	}
	if warm.Stats.ILPNodes == 0 {
		t.Errorf("%s: no branch-and-bound node ran", label)
	}
	if warm.MaxPumpOps != cold.MaxPumpOps {
		t.Errorf("%s: MaxPumpOps %d (warm) vs %d (cold)", label, warm.MaxPumpOps, cold.MaxPumpOps)
	}
	if len(warm.Placements) != len(cold.Placements) {
		t.Fatalf("%s: %d (warm) vs %d (cold) placements", label, len(warm.Placements), len(cold.Placements))
	}
	for op, pl := range warm.Placements {
		if cold.Placements[op] != pl {
			t.Errorf("%s: op %d placed at %v (warm) vs %v (cold)", label, op, pl, cold.Placements[op])
		}
	}
	checkMapping(t, sched, warm, cfg.WithDefaults())
}

// TestWarmColdMappingIdentical is the warm-start property at the mapper:
// rolling-horizon mapping with warm-started branch and bound must place
// every operation exactly where mapping with all-cold LP solves does.
// Routing and simulation are deterministic functions of the schedule and
// the placements, so equal placements mean equal synthesis results. The
// mapper consumes only the solver's incumbent and status, so this holds
// as long as both search modes land on the same incumbent; the milp-level
// fuzz suite (TestWarmMatchesCold) checks that answer-equality directly,
// and this test pins it on real models, node-capped so runs are
// deterministic. On their Table 1 chips every batch of the benchmarks is
// closed by the counting bound without a search, so PCR and MixingTree
// run on smaller chips where greedy misses the bound; the fuzzed assays
// are picked the same way.
func TestWarmColdMappingIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("branch-and-bound runs skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("single-configuration determinism property; skipped under -race " +
			"(no concurrency to check, and the slowdown breaks the package timeout)")
	}
	for _, tc := range []struct {
		name         string
		policy, grid int
	}{{"PCR", 1, 10}, {"MixingTree", 3, 11}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			assertWarmColdIdentical(t, tc.name, policySchedule(t, tc.name, tc.policy), tc.grid)
		})
	}
	t.Run("fuzzed", func(t *testing.T) {
		for _, tc := range []struct {
			seed int64
			grid int
		}{{3, 7}, {4, 8}, {8, 8}, {5, 9}} {
			a := assays.Random(tc.seed, assays.RandomOptions{MixOps: 4 + int(tc.seed%3), Detects: 1})
			assertWarmColdIdentical(t, fmt.Sprintf("seed %d grid %d", tc.seed, tc.grid),
				listSchedule(t, a, schedule.Resources{}), tc.grid)
		}
	})
}

package verify

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// synthWithLPMode runs one node-capped synthesis with the branch-and-bound
// warm-start machinery on or off (place.Config.ColdLP). The ILP is the only
// nominal producer, so the result carries its mapping; the second return
// is the number of branch-and-bound nodes the run explored.
func synthWithLPMode(t *testing.T, a *graph.Assay, policy schedule.Resources, grid int, coldLP bool) (*core.Result, int64) {
	t.Helper()
	tr := obs.New()
	res, err := core.Synthesize(a, core.Options{
		Policy: policy,
		Place: place.Config{Grid: grid, Mode: place.RollingHorizon,
			MaxNodes: 64, SolveTimeout: time.Hour, ColdLP: coldLP},
		Backends: []core.Backend{core.BackendILP},
		Trace:    tr,
	})
	if err != nil {
		t.Fatalf("%s coldLP=%v: %v", a.Name, coldLP, err)
	}
	return res, tr.Metrics().Counter("milp_nodes_total").Value()
}

// assertWarmColdIdentical synthesizes a twice, warm and cold, and checks
// the fingerprints agree, the warm result is conformant and the search
// actually ran.
func assertWarmColdIdentical(t *testing.T, label string, a *graph.Assay, policy schedule.Resources, grid int) {
	t.Helper()
	warm, nodes := synthWithLPMode(t, a, policy, grid, false)
	cold, _ := synthWithLPMode(t, a, policy, grid, true)
	if nodes == 0 {
		t.Errorf("%s: no branch-and-bound node ran", label)
	}
	if Fingerprint(warm) != Fingerprint(cold) {
		t.Errorf("%s: warm and cold LP modes diverge:\n%s",
			label, strings.Join(Diff("warm", warm, "cold", cold), "\n"))
	}
	if rep := Conformance(warm); !rep.Clean() {
		t.Errorf("%s: warm conformance: %s", label, rep)
	}
}

// TestWarmColdPipelineIdentical is the pipeline-level warm-start property:
// synthesis with warm-started branch and bound must produce the same result
// — same fingerprint over every scheduling, placement, routing and
// actuation decision — as synthesis with all-cold LP solves. The pipeline
// consumes only the solver's incumbent and status, so this holds as long
// as both search modes land on the same incumbent; the milp-level fuzz
// suite (TestWarmMatchesCold) checks that answer-equality directly, and
// this test pins it end to end, node-capped so runs are deterministic. On
// their Table 1 chips every batch of the benchmarks is closed by the
// counting bound without a search, so PCR and MixingTree run on smaller
// chips where greedy misses the bound; the fuzzed assays are picked the
// same way.
func TestWarmColdPipelineIdentical(t *testing.T) {
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
			c, err := assays.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			des, err := baseline.Traditional(c, tc.policy, baseline.DefaultCost)
			if err != nil {
				t.Fatal(err)
			}
			policy := schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors}
			assertWarmColdIdentical(t, tc.name, c.Assay, policy, tc.grid)
		})
	}
	t.Run("fuzzed", func(t *testing.T) {
		for _, tc := range []struct {
			seed int64
			grid int
		}{{3, 7}, {4, 8}, {8, 8}, {5, 9}} {
			a := assays.Random(tc.seed, assays.RandomOptions{MixOps: 4 + int(tc.seed%3), Detects: 1})
			assertWarmColdIdentical(t, fmt.Sprintf("seed %d grid %d", tc.seed, tc.grid), a, schedule.Resources{}, tc.grid)
		}
	})
}

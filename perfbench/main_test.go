package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// exactMetrics must repeat bit for bit across runs of one seed.
var exactMetrics = map[bool][]string{
	false: {"vs1_max_sum", "vs2_max_sum", "valves_sum", "success_rate"},
	true: {"milp.nodes", "lp.pivots", "route.dijkstra_pops", "route.nets", "schedule.ops",
		"place.greedy_runs", "anneal.iters", "serve.fresh"},
}

// TestSmoke runs every workload at minimum size, twice per mode with one
// seed. Each run must be correct and report exactly the metrics
// BENCHMARK.json names, with their units, and the exact metrics must
// agree between the two runs.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var first *result
			for rep := 0; rep < 2; rep++ {
				res, out, err := run(config{workload: w.Name, seed: 7, seconds: 1, trace: trace, smoke: true})
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
				}
				if !res.Correct {
					t.Fatalf("%s trace=%v: failures %v", w.Name, trace, out.failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
					}
				}
				if first == nil {
					first = res
					continue
				}
				for _, name := range exactMetrics[trace] {
					if a, b := first.Metrics[name].Value, res.Metrics[name].Value; a != b {
						t.Errorf("%s trace=%v: %s differs between runs of one seed: %v vs %v", w.Name, trace, name, a, b)
					}
				}
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

package place

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// randomProblem schedules a seeded random assay with one mixer per volume
// and one detector — the policy the ablation sweep uses.
func randomProblem(t testing.TB, seed int64, opts assays.RandomOptions) (*graph.Assay, *schedule.Result, schedule.Resources) {
	t.Helper()
	a := assays.Random(seed, opts)
	mixers := map[int]int{}
	for _, id := range a.MixOps() {
		mixers[a.Volume(id)] = 1
	}
	policy := schedule.Resources{Mixers: mixers, Detectors: 1}
	sched, err := schedule.List(a, schedule.Options{Resources: policy})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return a, sched, policy
}

// annealRecord reads a traced Anneal run back from its trace: the
// place.anneal span's attributes and the anneal_* counters.
func annealRecord(t testing.TB, tr *obs.Trace) (map[string]any, map[string]int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var attrs map[string]any
	counters := map[string]int64{}
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev struct {
			Type, Name string
			Attrs      map[string]any
			Data       *obs.Snapshot
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Type == "span" && ev.Name == "place.anneal":
			attrs = ev.Attrs
		case ev.Type == "metrics" && ev.Data != nil:
			for k, v := range ev.Data.Counters {
				if strings.HasPrefix(k, "anneal_") {
					counters[k] = v
				}
			}
		}
	}
	if attrs == nil {
		t.Fatal("trace has no place.anneal span")
	}
	return attrs, counters
}

// TestAnnealSeedDeterminismAcrossWorkers is the determinism contract: the
// same seed yields a bit-identical mapping and identical work counters
// whether the replicates run serially or on four workers, and across
// repeated serial runs.
func TestAnnealSeedDeterminismAcrossWorkers(t *testing.T) {
	_, sched, _ := randomProblem(t, 7, assays.RandomOptions{MixOps: 8, Detects: 1})
	an := AnnealOptions{Seed: 42, Replicates: 4, Iters: 400}

	type run struct {
		m        *Mapping
		attrs    map[string]any
		counters map[string]int64
	}
	runAt := func(workers int) run {
		tr := obs.New()
		root := tr.Start("test")
		m, err := Anneal(context.Background(), sched, Config{Grid: 12, Obs: root}, an, workers)
		root.End()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		attrs, counters := annealRecord(t, tr)
		return run{m, attrs, counters}
	}

	serial := runAt(1)
	again := runAt(1)
	parallel := runAt(4)

	for _, tc := range []struct {
		name  string
		other run
	}{
		{"serial rerun", again},
		{"workers=4", parallel},
	} {
		if !reflect.DeepEqual(serial.m.Placements, tc.other.m.Placements) {
			t.Errorf("%s: placements differ from the serial run", tc.name)
		}
		if serial.m.MaxPumpOps != tc.other.m.MaxPumpOps {
			t.Errorf("%s: MaxPumpOps = %d, serial %d",
				tc.name, tc.other.m.MaxPumpOps, serial.m.MaxPumpOps)
		}
		if !reflect.DeepEqual(serial.m.Dropped, tc.other.m.Dropped) {
			t.Errorf("%s: dropped sets differ", tc.name)
		}
		if !reflect.DeepEqual(serial.counters, tc.other.counters) {
			t.Errorf("%s: counters = %v, serial %v", tc.name, tc.other.counters, serial.counters)
		}
		if !reflect.DeepEqual(serial.attrs, tc.other.attrs) {
			t.Errorf("%s: span attrs = %v, serial %v", tc.name, tc.other.attrs, serial.attrs)
		}
	}
	if serial.counters["anneal_iters_total"] == 0 || serial.counters["anneal_incumbents_total"] == 0 {
		t.Errorf("degenerate run: counters = %v", serial.counters)
	}
	if serial.attrs["cut_short"] != false {
		t.Errorf("uncancelled run reports cut_short = %v", serial.attrs["cut_short"])
	}
}

// TestAnnealCancelledBeforeStart exercises the anytime error path: a
// context dead before any replicate constructs a state yields an
// ErrDeadline-compatible error, not a mapping.
func TestAnnealCancelledBeforeStart(t *testing.T) {
	_, sched, _ := randomProblem(t, 7, assays.RandomOptions{MixOps: 6, Detects: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := Anneal(ctx, sched, Config{Grid: 12}, AnnealOptions{}, 0)
	if m != nil {
		t.Fatalf("got a mapping from a dead context")
	}
	if !errors.Is(err, synerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestCostLess pins the one cost order of greedy's runs and anneal's
// replicates: completeness dominates the pump load, which dominates every
// tie-break, and a wear prior swaps the last two keys.
func TestCostLess(t *testing.T) {
	base := cost{dropped: 0, maxPump: 3, rcRelaxed: 1, usedCells: 40, sumSq: 200}
	cases := []struct {
		name      string
		a, b      cost
		wearAware bool
		less      bool
	}{
		{"equal", base, base, false, false},
		{"dropped dominates", cost{dropped: 0, maxPump: 9}, cost{dropped: 1, maxPump: 1}, false, true},
		{"pump before cells", cost{maxPump: 2, usedCells: 99}, cost{maxPump: 3, usedCells: 1}, false, true},
		{"rc before cells", cost{maxPump: 3, rcRelaxed: 0, usedCells: 99}, cost{maxPump: 3, rcRelaxed: 1, usedCells: 1}, false, true},
		{"cells before sumsq", cost{maxPump: 3, usedCells: 1, sumSq: 9}, cost{maxPump: 3, usedCells: 2, sumSq: 1}, false, true},
		{"sumsq last", cost{maxPump: 3, sumSq: 1}, cost{maxPump: 3, sumSq: 2}, false, true},
		{"wear prior: sumsq before cells", cost{maxPump: 3, usedCells: 2, sumSq: 1}, cost{maxPump: 3, usedCells: 1, sumSq: 9}, true, true},
		{"wear prior: cells last", cost{maxPump: 3, usedCells: 1, sumSq: 5}, cost{maxPump: 3, usedCells: 2, sumSq: 5}, true, true},
	}
	for _, tc := range cases {
		if got := tc.a.less(tc.b, tc.wearAware); got != tc.less {
			t.Errorf("%s: less = %v, want %v", tc.name, got, tc.less)
		}
		if tc.less && tc.b.less(tc.a, tc.wearAware) {
			t.Errorf("%s: less not antisymmetric", tc.name)
		}
	}
}

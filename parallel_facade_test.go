package mfsynth

import (
	"reflect"
	"testing"
	"time"
)

// TestParallelSynthesisMatchesSerial runs the full synthesis of every
// Table 1 case under p1 with Workers 1 and Workers 4 and asserts the two
// results are identical in every reported metric and placement — the
// deterministic-merge contract of the parallel engine, end to end. PCR uses
// the rolling-horizon mapper (greedy fan-out inside every ILP batch);
// the larger cases use the greedy mapper to keep -race runs short, matching
// the bench harness's mode choices.
func TestParallelSynthesisMatchesSerial(t *testing.T) {
	modes := map[string]PlaceMode{
		"PCR":                   RollingHorizon,
		"MixingTree":            GreedyPlace,
		"InterpolatingDilution": GreedyPlace,
		"ExponentialDilution":   GreedyPlace,
	}
	for _, name := range CaseNames() {
		c, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		des, err := Traditional(c, 1, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) *Result {
			// A node cap replaces the default 20 s wall-clock deadline: a
			// binding deadline is timing-dependent (it fires under -race,
			// where everything is slower), a node cap is deterministic.
			res, err := Synthesize(c.Assay, Options{
				Policy: Resources{Mixers: des.Mixers, Detectors: c.Detectors},
				Place: PlaceConfig{Grid: c.GridSize, Mode: modes[name],
					MaxNodes: 64, SolveTimeout: time.Hour},
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return res
		}
		serial, parallel := run(1), run(4)

		type metrics struct {
			VsMax1, VsPump1, VsMax2, VsPump2 int
			UsedValves, FailedRoutes         int
			MaxPumpOps                       int
		}
		ms := metrics{serial.VsMax1, serial.VsPump1, serial.VsMax2, serial.VsPump2,
			serial.UsedValves, serial.FailedRoutes, serial.Mapping.MaxPumpOps}
		mp := metrics{parallel.VsMax1, parallel.VsPump1, parallel.VsMax2, parallel.VsPump2,
			parallel.UsedValves, parallel.FailedRoutes, parallel.Mapping.MaxPumpOps}
		if ms != mp {
			t.Errorf("%s: metrics %+v (serial) vs %+v (parallel)", name, ms, mp)
		}
		if serial.Mapping.Stats != parallel.Mapping.Stats {
			t.Errorf("%s: stats %+v (serial) vs %+v (parallel)",
				name, serial.Mapping.Stats, parallel.Mapping.Stats)
		}
		if len(serial.Mapping.Placements) != len(parallel.Mapping.Placements) {
			t.Fatalf("%s: %d vs %d placements",
				name, len(serial.Mapping.Placements), len(parallel.Mapping.Placements))
		}
		for op, pl := range serial.Mapping.Placements {
			if parallel.Mapping.Placements[op] != pl {
				t.Errorf("%s: op %d placed at %v (serial) vs %v (parallel)",
					name, op, pl, parallel.Mapping.Placements[op])
			}
		}
	}
}

// TestTable1WorkersMatchesSerial evaluates Table 1 (greedy mapper, p1..p3)
// with the cell-level fan-out and compares every metric column against the
// serial evaluation.
func TestTable1WorkersMatchesSerial(t *testing.T) {
	serial, err := Table1(Table1RowOptions{Mode: GreedyPlace, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(Table1RowOptions{Mode: GreedyPlace, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d vs %d rows", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := *serial[i], *parallel[i]
		// Wall-clock (total and per-phase) differs, everything else may not.
		s.Runtime, p.Runtime = 0, 0
		s.Phases, p.Phases = nil, nil
		if !reflect.DeepEqual(s, p) {
			t.Errorf("row %d: %+v (serial) vs %+v (parallel)", i, s, p)
		}
	}
}

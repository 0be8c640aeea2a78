package place

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/fault"
	"mfsynth/internal/grid"
	"mfsynth/internal/schedule"
)

func TestPumpBound(t *testing.T) {
	pt := func(x, y int) grid.Point { return grid.Point{X: x, Y: y} }
	for _, tc := range []struct {
		name  string
		g     int
		rings int
		past  map[grid.Point]int
		want  int
	}{
		{"PCR on 12x12", 12, 56, nil, 1},
		{"one over the inner area", 12, 101, nil, 2},
		{"Interp on 16x16", 16, 266, nil, 2},
		{"no rings", 10, 0, nil, 0},
		{"past inner load adds to the mean", 4, 3, map[grid.Point]int{pt(1, 1): 2}, 2},
		{"boundary load only raises the max", 4, 4, map[grid.Point]int{pt(0, 0): 1}, 1},
		{"largest past load dominates", 10, 4, map[grid.Point]int{pt(0, 3): 7, pt(2, 2): 1}, 7},
		{"no inner cells", 2, 4, map[grid.Point]int{pt(0, 0): 3}, 3},
	} {
		if got := PumpBound(tc.g, tc.rings, tc.past); got != tc.want {
			t.Errorf("%s: PumpBound(%d, %d, %v) = %d, want %d", tc.name, tc.g, tc.rings, tc.past, got, tc.want)
		}
	}
}

// tinyProblem builds a random instance small enough to enumerate: at most
// three mix ops on a grid of at most 7, with an optional wear prior and an
// optional 5% fault set.
func tinyProblem(t *testing.T, seed int64) (*schedule.Result, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := assays.Random(seed, assays.RandomOptions{MixOps: 1 + rng.Intn(3), Volumes: []int{4, 6, 8}})
	sched, err := schedule.List(a, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: 5 + rng.Intn(3), Workers: 1, MaxNodes: 64, SolveTimeout: time.Hour}
	if rng.Intn(2) == 0 {
		cfg.WearPrior = make([]int, cfg.Grid*cfg.Grid)
		for i := range cfg.WearPrior {
			if rng.Intn(4) == 0 {
				cfg.WearPrior[i] = rng.Intn(3)
			}
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Faults = fault.Generate(seed, fault.GenOptions{Grid: cfg.Grid, Rate: 0.05, KeepPorts: true})
	}
	return sched, cfg
}

// bruteMinLoad enumerates every assignment of candidate placements to
// pr.ops — all shapes at every position the fault set admits — that keeps
// each pair of time-overlapping devices apart, except storage pairs that
// may overlap, and returns the smallest largest lifetime load (wear prior
// included). The routing-convenient rows and storage free space are
// ignored, which can only lower the minimum below the ILP's. ok is false
// when no assignment exists.
func bruteMinLoad(pr *problem) (best int, ok bool) {
	cands := make([][]arch.Placement, len(pr.ops))
	for i, op := range pr.ops {
		cands[i] = pr.candidates(op, nil, candOpts{relaxRC: true, fullRoots: true})
	}
	load := pr.seedPump()
	chosen := make([]arch.Placement, len(pr.ops))
	best = -1
	var walk func(i int)
	walk = func(i int) {
		if i == len(pr.ops) {
			max := 0
			for _, n := range load {
				if n > max {
					max = n
				}
			}
			if best < 0 || max < best {
				best = max
			}
			return
		}
		op := pr.ops[i]
	next:
		for _, pl := range cands[i] {
			for j := 0; j < i; j++ {
				o := pr.ops[j]
				if pr.overlapsInTime(op, o) && !pl.CompatibleWith(chosen[j]) &&
					!pr.storagePair(op, o) && !pr.storagePair(o, op) {
					continue next
				}
			}
			chosen[i] = pl
			if pr.pump[op] {
				for _, pt := range pl.Ring() {
					load[pt]++
				}
			}
			walk(i + 1)
			if pr.pump[op] {
				for _, pt := range pl.Ring() {
					load[pt]--
				}
			}
		}
	}
	walk(0)
	return best, best >= 0
}

// lifetimeLoad is a mapping's largest per-valve load with the wear prior
// added, the quantity the wear-aware ILP minimises.
func lifetimeLoad(pr *problem, m *Mapping) int {
	load := pr.seedPump()
	max := 0
	for _, n := range load {
		if n > max {
			max = n
		}
	}
	for op, pl := range m.Placements {
		if !pr.pump[op] {
			continue
		}
		for _, pt := range pl.Ring() {
			if load[pt]++; load[pt] > max {
				max = load[pt]
			}
		}
	}
	return max
}

// TestPumpBoundEnumeration is the bound's oracle: on instances small
// enough to enumerate, the counting bound never exceeds the brute-force
// minimum, and no mapper beats that minimum. Wear priors and faults are
// drawn per instance; the bound must hold under both.
func TestPumpBoundEnumeration(t *testing.T) {
	checked, tight := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		sched, cfg := tinyProblem(t, seed)
		pr, err := newProblem(sched, cfg.withDefaults())
		if err != nil {
			continue
		}
		brute, ok := bruteMinLoad(pr)
		if !ok {
			continue
		}
		rings := 0
		for _, op := range pr.ops {
			if pr.pump[op] {
				rings += pr.vol[op]
			}
		}
		lb := PumpBound(cfg.Grid, rings, pr.seedPump())
		if lb > brute {
			t.Fatalf("seed %d (grid %d, prior %v, faults %d): bound %d exceeds the enumerated minimum %d",
				seed, cfg.Grid, cfg.WearPrior != nil, len(cfg.Faults.Faults()), lb, brute)
		}
		if lb == brute {
			tight++
		}
		for _, mode := range []Mode{Greedy, RollingHorizon, Monolithic} {
			c := cfg
			c.Mode = mode
			m, err := Map(sched, c)
			if err != nil {
				continue
			}
			if got := lifetimeLoad(pr, m); got < brute {
				t.Fatalf("seed %d %v: load %d beats the enumerated minimum %d", seed, mode, got, brute)
			}
		}
		checked++
	}
	if checked < 20 || tight == 0 {
		t.Fatalf("too few usable instances: %d enumerated, %d tight", checked, tight)
	}
}

// batchOf returns the problem and the first rolling batch of a mapping
// instance.
func batchOf(t *testing.T, sched *schedule.Result, cfg Config) (*problem, []int) {
	t.Helper()
	pr, err := newProblem(sched, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	n := pr.cfg.BatchSize
	if n > len(pr.ops) {
		n = len(pr.ops)
	}
	return pr, pr.ops[:n]
}

// TestCertifiedBatchSkipsSearch: a batch whose greedy mapping meets the
// counting bound returns it with no model built and no B&B node, and a
// batch where greedy misses the bound still runs the branch and bound.
func TestCertifiedBatchSkipsSearch(t *testing.T) {
	sched := pcrSchedule(t)
	pr, batch := batchOf(t, sched, Config{Grid: 12})
	placements, info, err := pr.solveBatch(batch, map[int]arch.Placement{}, pr.seedPump(), batchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.certified || !info.exact || info.solved != 0 || info.nodes != 0 {
		t.Fatalf("PCR batch: %+v, want certified with no model and no nodes", info)
	}
	if len(placements) != len(batch) {
		t.Fatalf("PCR batch placed %d of %d ops", len(placements), len(batch))
	}

	hard := assays.Random(6, assays.RandomOptions{MixOps: 12})
	hsched, err := schedule.List(hard, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr, batch = batchOf(t, hsched, Config{Grid: 10, MaxNodes: 64, SolveTimeout: time.Hour})
	_, info, err = pr.solveBatch(batch, map[int]arch.Placement{}, pr.seedPump(), batchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info.certified || info.solved == 0 || info.nodes == 0 {
		t.Fatalf("uncertifiable batch: %+v, want a B&B solve with nodes", info)
	}
}

// TestRollingStatsCountCertifiedBatches: the mapping's stats split the
// batches into certified ones and solved models.
func TestRollingStatsCountCertifiedBatches(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		grid            int
		certified, ilps bool
	}{{6, 10, false, true}, {2, 9, true, true}} {
		a := assays.Random(tc.seed, assays.RandomOptions{MixOps: 12})
		sched, err := schedule.List(a, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Grid: tc.grid, MaxNodes: 64, SolveTimeout: time.Hour}
		m, err := Map(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("random%d grid %d", tc.seed, tc.grid)
		checkMapping(t, sched, m, cfg.withDefaults())
		if (m.Stats.Certified > 0) != tc.certified || (m.Stats.ILPSolves > 0) != tc.ilps {
			t.Errorf("%s: stats %+v, want certified %v and ILP solves %v", label, m.Stats, tc.certified, tc.ilps)
		}
		if tc.ilps && m.Stats.ILPNodes == 0 {
			t.Errorf("%s: ILP solves ran no B&B node", label)
		}
	}
}

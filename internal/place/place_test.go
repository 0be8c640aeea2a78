package place

import (
	"testing"
	"time"

	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/graph"
	"mfsynth/internal/schedule"
)

func pcrSchedule(t *testing.T) *schedule.Result {
	t.Helper()
	c := assays.PCR()
	r, err := schedule.List(c.Assay, schedule.Options{
		Resources: schedule.Resources{Mixers: c.BaseMixers},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkMapping verifies the structural invariants of a mapping against its
// schedule: every on-chip op placed, placements on-chip, non-overlap for
// temporally overlapping devices except admissible storage-parent overlaps,
// and pump-load consistency with MaxPumpOps.
func checkMapping(t *testing.T, res *schedule.Result, m *Mapping, cfg Config) {
	t.Helper()
	a := res.Assay
	for _, op := range a.Ops() {
		if op.Kind == graph.Input || op.Kind == graph.Output {
			continue
		}
		pl, ok := m.Placements[op.ID]
		if !ok {
			t.Fatalf("op %s not placed", op.Name)
		}
		if pl.Volume() < DeviceVolume(a.Volume(op.ID)) {
			t.Errorf("op %s: device volume %d < required %d", op.Name, pl.Volume(), a.Volume(op.ID))
		}
		wb := pl.WallBox()
		if wb.X0 < 0 || wb.Y0 < 0 || wb.X1 > cfg.Grid || wb.Y1 > cfg.Grid {
			t.Errorf("op %s: wall box %v leaves the %dx%d chip", op.Name, wb, cfg.Grid, cfg.Grid)
		}
	}
	// Pairwise compatibility.
	ids := make([]int, 0, len(m.Placements))
	for id := range m.Placements {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a1, a2 := ids[i], ids[j]
			w1, w2 := m.Windows[a1], m.Windows[a2]
			if w1[0] >= w2[1] || w2[0] >= w1[1] {
				continue // disjoint in time
			}
			p1, p2 := m.Placements[a1], m.Placements[a2]
			if p1.CompatibleWith(p2) {
				continue
			}
			// Overlap: must be an admissible storage-parent pair.
			if !storageOverlapOK(res, m, a1, a2) && !storageOverlapOK(res, m, a2, a1) {
				t.Errorf("ops %s and %s overlap in space and time: %v vs %v",
					res.Assay.Op(a1).Name, res.Assay.Op(a2).Name, p1, p2)
			}
		}
	}
	// MaxPumpOps consistency.
	pump := map[[2]int]int{}
	maxPump := 0
	for id, pl := range m.Placements {
		if res.Assay.Op(id).Kind != graph.Mix {
			continue
		}
		for _, pt := range pl.Ring() {
			k := [2]int{pt.X, pt.Y}
			pump[k]++
			if pump[k] > maxPump {
				maxPump = pump[k]
			}
		}
	}
	if maxPump != m.MaxPumpOps {
		t.Errorf("MaxPumpOps = %d but recount gives %d", m.MaxPumpOps, maxPump)
	}
}

// storageOverlapOK checks whether child's storage may overlap parent's
// device with the observed area.
func storageOverlapOK(res *schedule.Result, m *Mapping, child, parent int) bool {
	isParent := false
	for _, p := range res.Assay.DeviceParents(child) {
		if p == parent {
			isParent = true
		}
	}
	if !isParent {
		return false
	}
	tl := m.Storages[child]
	if tl == nil {
		return false
	}
	area := m.Placements[child].Footprint().OverlapArea(m.Placements[parent].Footprint())
	pw := m.Windows[parent]
	return tl.CanOverlap(area, pw[0], pw[1])
}

func TestGreedyPCR(t *testing.T) {
	res := pcrSchedule(t)
	cfg := Config{Grid: 12, Mode: Greedy}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, res, m, cfg.withDefaults())
	if len(m.Placements) != 7 {
		t.Fatalf("placed %d ops, want 7", len(m.Placements))
	}
	if m.MaxPumpOps != 1 {
		t.Errorf("greedy MaxPumpOps = %d, want 1", m.MaxPumpOps)
	}
	if m.Stats.ILPSolves != 0 {
		t.Errorf("greedy mapping reports %d ILP solves", m.Stats.ILPSolves)
	}
}

func TestRollingPCR(t *testing.T) {
	res := pcrSchedule(t)
	cfg := Config{Grid: 12}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, res, m, cfg.withDefaults())
	// The paper reaches vs1 = 45(40) on PCR: every valve pumps for at most
	// one operation.
	if m.MaxPumpOps != 1 {
		t.Errorf("rolling MaxPumpOps = %d, want 1", m.MaxPumpOps)
	}
	// Every batch meets the counting bound, so none needs a model; the
	// ILP path itself is exercised by TestRollingStatsCountCertifiedBatches.
	if m.Stats.Certified == 0 || m.Stats.ILPSolves != 0 || m.Stats.ILPNodes != 0 {
		t.Errorf("rolling PCR stats %+v, want every batch certified", m.Stats)
	}
}

func TestMonolithicPCR(t *testing.T) {
	if testing.Short() {
		t.Skip("monolithic ILP is slow")
	}
	res := pcrSchedule(t)
	cfg := Config{Grid: 12, Mode: Monolithic, MaxNodes: 2000, SolveTimeout: 30 * time.Second}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, res, m, cfg.withDefaults())
	if m.MaxPumpOps != 1 {
		t.Errorf("monolithic MaxPumpOps = %d, want 1", m.MaxPumpOps)
	}
}

func TestRollingMixingTree(t *testing.T) {
	if testing.Short() {
		t.Skip("18-op mapping is slow")
	}
	c := assays.MixingTree()
	res, err := schedule.List(c.Assay, schedule.Options{
		Resources: schedule.Resources{Mixers: c.BaseMixers},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: c.GridSize}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, res, m, cfg.withDefaults())
	// Paper: vs1 = 93(80) → max two pump uses per valve. Allow one more
	// for the decomposed solver.
	if m.MaxPumpOps > 3 {
		t.Errorf("MaxPumpOps = %d, want ≤ 3", m.MaxPumpOps)
	}
}

func TestStorageOverlapAblation(t *testing.T) {
	res := pcrSchedule(t)
	cfg := Config{Grid: 12, Mode: Greedy, NoStorageOverlap: true}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the relaxation disabled, no two temporally overlapping devices
	// may share cells at all.
	for id1, p1 := range m.Placements {
		for id2, p2 := range m.Placements {
			if id1 >= id2 {
				continue
			}
			w1, w2 := m.Windows[id1], m.Windows[id2]
			if w1[0] < w2[1] && w2[0] < w1[1] && !p1.CompatibleWith(p2) {
				t.Errorf("NoStorageOverlap violated by %d and %d", id1, id2)
			}
		}
	}
}

func TestTooSmallChip(t *testing.T) {
	res := pcrSchedule(t)
	_, err := Map(res, Config{Grid: 5, Mode: Greedy})
	if err == nil {
		t.Fatal("5x5 chip cannot host four concurrent 8-volume mixers")
	}
}

func TestDeviceVolume(t *testing.T) {
	tests := []struct{ fluid, want int }{
		{2, 4}, {3, 4}, {4, 4}, {5, 6}, {6, 6}, {7, 8}, {8, 8}, {9, 10}, {10, 10},
	}
	for _, tt := range tests {
		if got := DeviceVolume(tt.fluid); got != tt.want {
			t.Errorf("DeviceVolume(%d) = %d, want %d", tt.fluid, got, tt.want)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		RollingHorizon: "rolling-horizon", Monolithic: "monolithic", Greedy: "greedy",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestWindowsAndStorages(t *testing.T) {
	res := pcrSchedule(t)
	m, err := Map(res, Config{Grid: 12, Mode: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	roots, withStorage := 0, 0
	for id := range m.Placements {
		w := m.Windows[id]
		if w[0] >= w[1] {
			t.Errorf("op %d has empty window %v", id, w)
		}
		if m.Storages[id] == nil {
			roots++
		} else {
			withStorage++
			if m.Storages[id].End != res.Start[id] {
				t.Errorf("storage end %d != op start %d", m.Storages[id].End, res.Start[id])
			}
		}
	}
	if roots != 4 || withStorage != 3 {
		t.Errorf("roots/withStorage = %d/%d, want 4/3", roots, withStorage)
	}
}

func TestDilutionChainRolling(t *testing.T) {
	// A single 4-step chain: each child must be placed near its parent.
	a := assays.SerialDilution("sd", []int{10, 8, 6, 4})
	res, err := schedule.List(a, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: 10, BatchSize: 2}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMapping(t, res, m, cfg.withDefaults())
	if m.Stats.RCRelaxed != 0 {
		t.Errorf("chain should not need RC relaxation, got %d", m.Stats.RCRelaxed)
	}
	// Consecutive steps within routing-convenient distance 2.
	mix := a.MixOps()
	for i := 1; i < len(mix); i++ {
		d := m.Placements[mix[i]].Footprint().Distance(m.Placements[mix[i-1]].Footprint())
		if d > 2 {
			t.Errorf("steps %d and %d at distance %d > 2", i-1, i, d)
		}
	}
}

// TestGreedyPackingRescuesCrowdedAssay: on this generated assay no
// main-phase greedy variant places every operation on a 12×12 chip, but
// the packing phase does. The standalone greedy mapper must reach it and
// return a complete mapping instead of "no feasible placement".
func TestGreedyPackingRescuesCrowdedAssay(t *testing.T) {
	a := assays.Random(16001, assays.RandomOptions{MixOps: 16})
	mixers := map[int]int{}
	for _, id := range a.MixOps() {
		mixers[a.Volume(id)] = 1
	}
	res, err := schedule.List(a, schedule.Options{Resources: schedule.Resources{Mixers: mixers}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Grid: 12, Mode: Greedy}
	pr, err := newProblem(res, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.multiStartGreedy(nil, pr.ops, map[int]arch.Placement{}, pr.seedPump()); err == nil {
		t.Fatal("a main-phase variant places every operation; the case no longer exercises the packing rescue")
	}
	m, err := Map(res, cfg)
	if err != nil {
		t.Fatalf("greedy gave up before its packing phase: %v", err)
	}
	if len(m.Dropped) != 0 {
		t.Fatalf("dropped %v", m.Dropped)
	}
	checkMapping(t, res, m, cfg.withDefaults())
}

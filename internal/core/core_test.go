package core

import (
	"strings"
	"sync"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

var (
	pcrOnce sync.Once
	pcrRes  *Result
	pcrErr  error
)

// synthPCR synthesizes PCR p1 once and shares the result across tests
// (tests only read it).
func synthPCR(t *testing.T) *Result {
	t.Helper()
	pcrOnce.Do(func() {
		c := assays.PCR()
		pcrRes, pcrErr = Synthesize(c.Assay, Options{
			Policy: schedule.Resources{Mixers: c.BaseMixers},
			Place:  place.Config{Grid: c.GridSize},
		})
	})
	if pcrErr != nil {
		t.Fatal(pcrErr)
	}
	return pcrRes
}

func TestPCRSetting1MatchesPaperShape(t *testing.T) {
	r := synthPCR(t)
	// Paper Table 1, PCR p1: vs1max = 45(40). The pump part must be exactly
	// 40 (one op per valve); the control overhead is small but non-zero.
	if r.VsPump1 != 40 {
		t.Errorf("VsPump1 = %d, want 40", r.VsPump1)
	}
	if r.VsMax1 < 40 || r.VsMax1 > 50 {
		t.Errorf("VsMax1 = %d, want 40..50 (paper: 45)", r.VsMax1)
	}
	if r.FailedRoutes != 0 {
		t.Errorf("FailedRoutes = %d", r.FailedRoutes)
	}
}

func TestPCRSetting2(t *testing.T) {
	r := synthPCR(t)
	// Setting 2: each op costs 120 total pump actuations; rings are 8 or 10
	// or 4 valves → per-valve 15, 12 or 30; with one op per valve the pump
	// max is 30 (the 4-ring final mix) or less.
	if r.VsPump2 > r.VsPump1 {
		t.Errorf("VsPump2 = %d > VsPump1 = %d", r.VsPump2, r.VsPump1)
	}
	if r.VsPump2 < 12 || r.VsPump2 > 30 {
		t.Errorf("VsPump2 = %d, want 12..30 (paper: 30)", r.VsPump2)
	}
	if r.VsMax2 > r.VsMax1 {
		t.Errorf("VsMax2 = %d > VsMax1 = %d", r.VsMax2, r.VsMax1)
	}
}

func TestUsedValves(t *testing.T) {
	r := synthPCR(t)
	// 7 rings with one op per valve: 4×8 + 2×10 + 4 = 56 pump valves, plus
	// routing control valves. Paper reports 71 on PCR p1.
	if r.UsedValves < 56 {
		t.Errorf("UsedValves = %d, want ≥ 56", r.UsedValves)
	}
	if r.UsedValves > r.Grid*r.Grid {
		t.Errorf("UsedValves = %d exceeds the grid", r.UsedValves)
	}
	if r.UsedValves > 110 {
		t.Errorf("UsedValves = %d, far above the paper's ~71-83", r.UsedValves)
	}
}

func TestEventLogConsistency(t *testing.T) {
	r := synthPCR(t)
	pumpEvents, ctrlEvents := 0, 0
	lastT := -1
	for _, ev := range r.Events {
		if ev.T < lastT {
			t.Fatal("events not sorted by time")
		}
		lastT = ev.T
		switch ev.Kind {
		case PumpEvent:
			pumpEvents++
			if ev.Ring != len(ev.Cells) {
				t.Errorf("pump event ring %d != cells %d", ev.Ring, len(ev.Cells))
			}
		case CtrlEvent:
			ctrlEvents++
			if len(ev.Cells) == 0 {
				t.Error("empty control event")
			}
		}
	}
	if pumpEvents != 7 {
		t.Errorf("pump events = %d, want 7", pumpEvents)
	}
	// PCR: 8 input loads + 6 product transports + 1 final drain = 15.
	if ctrlEvents != 15 {
		t.Errorf("ctrl events = %d, want 15", ctrlEvents)
	}
	if len(r.Transports) != ctrlEvents {
		t.Errorf("transports = %d, events = %d", len(r.Transports), ctrlEvents)
	}
}

func TestTransportsEndpoints(t *testing.T) {
	r := synthPCR(t)
	for _, tr := range r.Transports {
		if len(tr.Path) < 2 {
			t.Errorf("transport %s->%s at %d has trivial path", tr.From, tr.To, tr.T)
		}
		for i := 1; i < len(tr.Path); i++ {
			if tr.Path[i].Manhattan(tr.Path[i-1]) != 1 {
				t.Errorf("transport %s->%s has non-adjacent step", tr.From, tr.To)
			}
		}
	}
}

func TestChipAtCumulative(t *testing.T) {
	r := synthPCR(t)
	full := r.ChipAt(-1, 1)
	half := r.ChipAt(r.Schedule.Makespan/2, 1)
	sumAt := func(c interface{ TotalAt(x, y int) int }) int {
		s := 0
		for y := 0; y < r.Grid; y++ {
			for x := 0; x < r.Grid; x++ {
				s += c.TotalAt(x, y)
			}
		}
		return s
	}
	if sumAt(half) >= sumAt(full) {
		t.Errorf("half-time total %d not below full total %d", sumAt(half), sumAt(full))
	}
	if got := r.ChipAt(-1, 1).MaxTotal(); got != r.VsMax1 {
		t.Errorf("replay MaxTotal = %d, want %d", got, r.VsMax1)
	}
}

func TestSetting2Totals(t *testing.T) {
	r := synthPCR(t)
	// Total pump actuations in setting 2 must be exactly 120 per mixing op.
	chip := r.ChipAt(-1, 2)
	total := 0
	for y := 0; y < r.Grid; y++ {
		for x := 0; x < r.Grid; x++ {
			total += chip.PumpAt(x, y)
		}
	}
	if want := 7 * 120; total != want {
		t.Errorf("setting-2 pump total = %d, want %d", total, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := synthPCR(t)
	times := r.SnapshotTimes()
	if len(times) < 5 {
		t.Fatalf("SnapshotTimes = %v", times)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("SnapshotTimes not sorted")
		}
	}
	s0 := r.Snapshot(times[0])
	if !strings.Contains(s0, "t=") {
		t.Fatalf("snapshot header missing:\n%s", s0)
	}
	lines := strings.Split(strings.TrimRight(s0, "\n"), "\n")
	if len(lines) != 1+r.Grid {
		t.Fatalf("snapshot has %d lines, want %d", len(lines), 1+r.Grid)
	}
	// A late snapshot must show pump counts (40).
	late := r.Snapshot(r.Schedule.Makespan)
	if !strings.Contains(late, "40") {
		t.Errorf("late snapshot shows no pump counts:\n%s", late)
	}
}

func TestAliveOps(t *testing.T) {
	r := synthPCR(t)
	// During the first operation's run, at least one device is alive.
	if got := r.aliveOps(1); len(got) == 0 {
		t.Error("no device alive at t=1")
	}
	// Long after makespan nothing is alive.
	if got := r.aliveOps(r.Schedule.Makespan + 100); len(got) != 0 {
		t.Errorf("devices alive after makespan: %v", got)
	}
}

func TestResultString(t *testing.T) {
	r := synthPCR(t)
	s := r.String()
	if !strings.Contains(s, "PCR") || !strings.Contains(s, "#v=") {
		t.Errorf("String = %q", s)
	}
}

func TestDetectAndOutputOps(t *testing.T) {
	// A custom assay with a detector and an explicit output op.
	a := graph.New("detout")
	i1 := a.Add(graph.Input, "i1", 0)
	i2 := a.Add(graph.Input, "i2", 0)
	m := a.Add(graph.Mix, "m", 6)
	a.Connect(i1, m, 4)
	a.Connect(i2, m, 4)
	d := a.Add(graph.Detect, "d", 4)
	a.Connect(m, d, 4)
	o := a.Add(graph.Output, "o", 0)
	a.Connect(d, o, 4)
	r, err := Synthesize(a, Options{Place: place.Config{Grid: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mapping.Placements) != 2 {
		t.Fatalf("placed %d devices, want 2 (mix + detect)", len(r.Mapping.Placements))
	}
	// Detectors do not pump.
	if r.VsPump1 != 40 {
		t.Errorf("VsPump1 = %d, want 40 (only the mix pumps)", r.VsPump1)
	}
	if r.FailedRoutes != 0 {
		t.Errorf("FailedRoutes = %d", r.FailedRoutes)
	}
}

func TestGreedyModeSynthesis(t *testing.T) {
	c := assays.PCR()
	r, err := Synthesize(c.Assay, Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.VsPump1 != 40 {
		t.Errorf("greedy VsPump1 = %d, want 40", r.VsPump1)
	}
}

func TestSynthesizeRejectsInvalidAssay(t *testing.T) {
	a := graph.New("bad")
	a.Add(graph.Mix, "m", 6) // no inputs
	if _, err := Synthesize(a, Options{}); err == nil {
		t.Fatal("invalid assay accepted")
	}
}

func TestSynthesizeDefaultGrid(t *testing.T) {
	a := graph.New("tiny")
	i1 := a.Add(graph.Input, "i1", 0)
	i2 := a.Add(graph.Input, "i2", 0)
	m := a.Add(graph.Mix, "m", 6)
	a.Connect(i1, m, 2)
	a.Connect(i2, m, 2)
	r, err := Synthesize(a, Options{}) // Grid unset → default
	if err != nil {
		t.Fatal(err)
	}
	if r.Grid != 10 {
		t.Errorf("default grid = %d, want 10", r.Grid)
	}
}

func TestSynthesizeGridTooSmallForAssay(t *testing.T) {
	// An 8x8 chip cannot hold the interpolating dilution. With the
	// fallback tiers disabled that is a hard error; by default the last
	// tier returns a best-effort partial result that says what was lost.
	c := assays.InterpolatingDilution()
	opts := Options{
		Policy:             schedule.Resources{Mixers: c.BaseMixers},
		Place:              place.Config{Grid: 8, Mode: place.Greedy},
		DisableDegradation: true,
	}
	if _, err := Synthesize(c.Assay, opts); err == nil {
		t.Fatal("8x8 chip accepted for the interpolating dilution with degradation disabled")
	}

	opts.DisableDegradation = false
	r, err := Synthesize(c.Assay, opts)
	if err != nil {
		t.Fatalf("fallback tiers did not rescue the 8x8 run: %v", err)
	}
	if !r.Degraded() {
		t.Fatal("8x8 run succeeded without a degradation report")
	}
	if r.Degradation.Level != DegradePartial {
		t.Errorf("level = %v, want %v", r.Degradation.Level, DegradePartial)
	}
	if len(r.Degradation.DroppedOps) == 0 {
		t.Error("partial result reports no dropped operations")
	}
	if len(r.Mapping.Dropped)+len(r.Mapping.Placements) == 0 {
		t.Error("empty mapping")
	}
}

func TestSettingsOverride(t *testing.T) {
	c := assays.PCR()
	r, err := Synthesize(c.Assay, Options{
		Policy:         schedule.Resources{Mixers: c.BaseMixers},
		Place:          place.Config{Grid: c.GridSize, Mode: place.Greedy},
		PumpActuations: 10, // one quarter of the default
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.VsPump1 != 10 {
		t.Errorf("VsPump1 = %d, want 10 with PumpActuations 10", r.VsPump1)
	}
}

func TestRolesAt(t *testing.T) {
	r := synthPCR(t)
	// At t=0 the first mixes run: pump roles present, walls around them.
	counts := r.RoleCounts(0)
	if counts[PumpRole] == 0 {
		t.Error("no pump valves while mixes run")
	}
	if counts[WallRole] == 0 {
		t.Error("no wall valves around running devices")
	}
	// Long after the assay everything is closed or unused.
	late := r.RoleCounts(r.Schedule.Makespan + 50)
	if late[PumpRole] != 0 || late[StorageRole] != 0 || late[ControlRole] != 0 {
		t.Errorf("active roles after makespan: %v", late)
	}
	if late[Closed] != r.UsedValves {
		t.Errorf("closed = %d, want UsedValves %d", late[Closed], r.UsedValves)
	}
	if late[Unused] != r.Grid*r.Grid-r.UsedValves {
		t.Errorf("unused = %d", late[Unused])
	}
	// Storage role appears while a storage is filling: find one.
	found := false
	for id, tl := range r.Mapping.Storages {
		if tl == nil {
			continue
		}
		_ = id
		if c := r.RoleCounts(tl.Start); c[StorageRole] > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no storage role observed at any storage start")
	}
}

func TestRoleString(t *testing.T) {
	names := map[Role]string{
		Unused: "unused", Closed: "closed", PumpRole: "pump",
		ControlRole: "control", WallRole: "wall", StorageRole: "storage",
		Role(99): "role?",
	}
	for role, want := range names {
		if role.String() != want {
			t.Errorf("Role(%d).String() = %q, want %q", int(role), role.String(), want)
		}
	}
}

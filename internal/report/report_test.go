package report

import (
	"strings"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

func TestFig2DedicatedMixer(t *testing.T) {
	f := DedicatedMixer(2)
	// Fig. 2(f): pump valves at 80, inlet/outlet control valves at 8,
	// isolation valves at 4 after two mixing operations.
	for _, p := range f.Pump {
		if p != 80 {
			t.Errorf("pump = %d, want 80", p)
		}
	}
	want := [6]int{8, 8, 8, 8, 4, 4}
	if f.Control != want {
		t.Errorf("control = %v, want %v", f.Control, want)
	}
	if f.Max() != 80 {
		t.Errorf("Max = %d, want 80", f.Max())
	}
	if f.NumValves() != 9 {
		t.Errorf("NumValves = %d, want 9", f.NumValves())
	}
}

func TestFig3RoleChangingMixer(t *testing.T) {
	f := RoleChangingMixer(2)
	// Section 2.2: "the largest number of valve actuations is reduced from
	// 80 to 48 ... we only use 8 valves".
	if f.Max() != 48 {
		t.Errorf("Max = %d, want 48", f.Max())
	}
	if f.NumValves() != 8 {
		t.Errorf("NumValves = %d, want 8", f.NumValves())
	}
	// Every role-changing valve pumped exactly once over the two ops.
	for i, v := range f.RoleChanging {
		if v != 48 {
			t.Errorf("role-changing valve %d = %d, want 48", i, v)
		}
	}
	for i, v := range f.Ports {
		if v != 8 {
			t.Errorf("port valve %d = %d, want 8", i, v)
		}
	}
}

func TestFig3SingleOp(t *testing.T) {
	f := RoleChangingMixer(1)
	// One op: trio at 44, the rest at 4.
	counts := map[int]int{}
	for _, v := range f.RoleChanging {
		counts[v]++
	}
	if counts[44] != 3 || counts[4] != 3 {
		t.Errorf("after 1 op: %v", f.RoleChanging)
	}
}

func TestFig2vs3Headline(t *testing.T) {
	s := Fig2vs3()
	if !strings.Contains(s, "80 -> 48") {
		t.Errorf("headline missing:\n%s", s)
	}
}

func TestServiceLifeNearlyDoubled(t *testing.T) {
	// The paper: "the service life of this mixer is nearly doubled".
	for n := 2; n <= 10; n += 2 {
		ded := DedicatedMixer(n).Max()
		rc := RoleChangingMixer(n).Max()
		ratio := float64(ded) / float64(rc)
		if ratio < 1.6 || ratio > 2.0 {
			t.Errorf("after %d ops: ratio %.2f outside [1.6, 2.0]", n, ratio)
		}
	}
}

func TestTable1RowGreedy(t *testing.T) {
	c := assays.PCR()
	row, err := Table1Row(c, 1, RowOptions{Mode: place.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if row.VsTmax != 160 {
		t.Errorf("VsTmax = %d, want 160", row.VsTmax)
	}
	if row.Vs1Pump != 40 {
		t.Errorf("Vs1Pump = %d, want 40", row.Vs1Pump)
	}
	// PCR's 56 ring cells fit the 100 inner valves once: the bound is one
	// pump use (40 actuations) and the row meets it.
	if row.LB != 40 || row.Gap != 0 {
		t.Errorf("LB/Gap = %d/%d, want 40/0", row.LB, row.Gap)
	}
	if row.Imp1 < 50 {
		t.Errorf("Imp1 = %.2f%%, want > 50%% (paper: 71.88%%)", row.Imp1)
	}
	if row.Imp2 <= row.Imp1 {
		t.Errorf("Imp2 (%.2f) should exceed Imp1 (%.2f)", row.Imp2, row.Imp1)
	}
	if row.MixVector != "1-0-4-2" {
		t.Errorf("MixVector = %q", row.MixVector)
	}
}

func TestRenderContainsAverages(t *testing.T) {
	rows := []*Row{
		{Case: "A", Ops: "2(1)", Policy: 1, MixVector: "1-0-0-0", VsTmax: 100,
			Vs1Max: 50, Imp1: 50, Vs2Max: 25, Imp2: 75, TradValves: 80, OurValves: 72, ImpV: 10},
		{Case: "B", Ops: "4(2)", Policy: 2, MixVector: "0-2-0-0", VsTmax: 200,
			Vs1Max: 100, Imp1: 50, Vs2Max: 50, Imp2: 75, TradValves: 100, OurValves: 90, ImpV: 10},
	}
	out := Render(rows)
	if !strings.Contains(out, "average") {
		t.Errorf("no averages row:\n%s", out)
	}
	i1, i2, iv := Averages(rows)
	if i1 != 50 || i2 != 75 || iv != 10 {
		t.Errorf("Averages = %v %v %v", i1, i2, iv)
	}
	if !strings.Contains(out, "1-0-0-0") {
		t.Errorf("mix vector missing:\n%s", out)
	}
}

func TestAveragesEmpty(t *testing.T) {
	i1, i2, iv := Averages(nil)
	if i1 != 0 || i2 != 0 || iv != 0 {
		t.Error("Averages(nil) not zero")
	}
}

// Full Table 1 with the greedy mapper: fast enough for CI, and the
// headline averages must keep the paper's shape (imp2 > imp1 > 40%).
func TestTable1GreedyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("12 syntheses")
	}
	rows, err := Table1(RowOptions{Mode: place.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	i1, i2, _ := Averages(rows)
	if i1 < 40 {
		t.Errorf("avg imp1 = %.2f%%, want > 40%% (paper: 55.76%%)", i1)
	}
	if i2 <= i1 {
		t.Errorf("avg imp2 = %.2f%% not above imp1 = %.2f%%", i2, i1)
	}
	for _, r := range rows {
		if r.Vs1Max >= r.VsTmax {
			t.Errorf("%s p%d: our method does not beat the traditional design (%d >= %d)",
				r.Case, r.Policy, r.Vs1Max, r.VsTmax)
		}
		if r.Vs2Max > r.Vs1Max {
			t.Errorf("%s p%d: setting 2 worse than setting 1", r.Case, r.Policy)
		}
	}
	out := Render(rows)
	if !strings.Contains(out, "ExponentialDilution") {
		t.Error("render incomplete")
	}
}

// TestTable1RowsNameProducer: on the greedy (-fast) table every row names
// the producer of its mapping, each row's FailedRoutes equals a direct
// synthesis of the same cell, and exactly the incomplete rows are marked
// in the rendered table.
func TestTable1RowsNameProducer(t *testing.T) {
	if testing.Short() {
		t.Skip("24 syntheses")
	}
	rows, err := Table1(RowOptions{Mode: place.Greedy, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, r := range rows {
		if r.Backend != string(core.BackendGreedy) {
			t.Errorf("%s p%d: backend %q, want greedy", r.Case, r.Policy, r.Backend)
		}
		c, err := assays.ByName(r.Case)
		if err != nil {
			t.Fatal(err)
		}
		des, err := baseline.Traditional(c, r.Policy, baseline.DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(c.Assay, core.Options{
			Policy:  schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:   place.Config{Grid: c.GridSize, Mode: place.Greedy},
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.FailedRoutes != res.FailedRoutes {
			t.Errorf("%s p%d: row FailedRoutes %d, result %d", r.Case, r.Policy, r.FailedRoutes, res.FailedRoutes)
		}
		if r.FailedRoutes > 0 {
			incomplete++
		}
	}
	out := Render(rows)
	marked := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "*") {
			marked++
		}
	}
	if marked != incomplete {
		t.Errorf("%d rows marked incomplete, %d have unrouted transports:\n%s", marked, incomplete, out)
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"mfsynth/internal/place"
)

func raceResult(dropped, failedRoutes, vs1, vs2, valves int) *Result {
	m := &place.Mapping{}
	for i := 0; i < dropped; i++ {
		m.Dropped = append(m.Dropped, i)
	}
	return &Result{
		Mapping:      m,
		FailedRoutes: failedRoutes,
		VsMax1:       vs1,
		VsMax2:       vs2,
		UsedValves:   valves,
	}
}

// TestPickWinnerDeterministicTiebreak pins the winner selection under
// Cost: strictly better quality wins regardless of position, exact ties go
// to the earlier (higher-priority) candidate, failed candidates are
// skipped, and an all-failed tier has no winner. Nothing here depends on goroutine finish
// order — that is the point.
func TestPickWinnerDeterministicTiebreak(t *testing.T) {
	cases := []struct {
		name string
		rs   []*Result
		want int
	}{
		{"all nil", []*Result{nil, nil, nil}, -1},
		{"empty", nil, -1},
		{"single", []*Result{raceResult(0, 0, 5, 4, 50)}, 0},
		{"exact tie goes to first",
			[]*Result{raceResult(0, 0, 5, 4, 50), raceResult(0, 0, 5, 4, 50)}, 0},
		{"later strictly better wins",
			[]*Result{raceResult(0, 0, 5, 4, 50), raceResult(0, 0, 4, 9, 99)}, 1},
		{"completeness dominates vs_max1",
			[]*Result{raceResult(1, 0, 1, 1, 10), raceResult(0, 0, 9, 9, 99)}, 1},
		{"failed routes count as incompleteness",
			[]*Result{raceResult(0, 2, 1, 1, 10), raceResult(0, 1, 9, 9, 99)}, 1},
		{"vs_max2 breaks vs_max1 ties",
			[]*Result{raceResult(0, 0, 5, 4, 50), raceResult(0, 0, 5, 3, 99)}, 1},
		{"valves break vs_max2 ties",
			[]*Result{raceResult(0, 0, 5, 4, 50), raceResult(0, 0, 5, 4, 49)}, 1},
		{"nil lane skipped",
			[]*Result{nil, raceResult(0, 0, 5, 4, 50), raceResult(0, 0, 5, 4, 50)}, 1},
	}
	for _, tc := range cases {
		if got := pickWinner(tc.rs); got != tc.want {
			t.Errorf("%s: pickWinner = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParseBackends(t *testing.T) {
	cases := []struct {
		in      string
		want    []Backend
		wantErr bool
	}{
		{"", nil, false},
		{"none", nil, false},
		{"ilp", []Backend{BackendILP}, false},
		{"anneal, greedy", []Backend{BackendAnneal, BackendGreedy}, false},
		{"ilp,greedy,ilp", []Backend{BackendILP, BackendGreedy}, false},
		{"tabu", nil, true},
		{"ilp,,greedy", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseBackends(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseBackends(%q): err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseBackends(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// render lists the tiers as "level:cand,cand" strings.
func render(ts []tier) []string {
	var out []string
	for _, t := range ts {
		names := make([]string, len(t.cands))
		for i, c := range t.cands {
			names[i] = c.String()
		}
		out = append(out, t.level.String()+":"+strings.Join(names, ","))
	}
	return out
}

// TestCandidateTiers pins the candidate list: the nominal tier follows
// Backends or the place mode, the relaxed tier relaxes each nominal
// producer (the annealer as greedy), greedy and greedy best-effort follow,
// and no configuration runs twice.
func TestCandidateTiers(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want []string
	}{
		{"rolling default", Options{},
			[]string{"none:ilp,greedy", "relaxed-couplings:ilp-relaxed,greedy-relaxed", "partial:greedy-best-effort"}},
		{"monolithic", Options{Place: place.Config{Mode: place.Monolithic}},
			[]string{"none:ilp", "relaxed-couplings:ilp-relaxed", "greedy-fallback:greedy", "partial:greedy-best-effort"}},
		{"greedy", Options{Place: place.Config{Mode: place.Greedy}},
			[]string{"none:greedy", "relaxed-couplings:greedy-relaxed", "partial:greedy-best-effort"}},
		{"anneal relaxes as greedy", Options{Backends: []Backend{BackendAnneal}},
			[]string{"none:anneal", "relaxed-couplings:greedy-relaxed", "greedy-fallback:greedy", "partial:greedy-best-effort"}},
		{"relaxed rung tried once", Options{Backends: []Backend{BackendGreedy, BackendAnneal}},
			[]string{"none:greedy,anneal", "relaxed-couplings:greedy-relaxed", "partial:greedy-best-effort"}},
		{"degradation disabled", Options{Backends: []Backend{BackendILP, BackendAnneal}, DisableDegradation: true},
			[]string{"none:ilp,anneal"}},
		{"base already relaxed", Options{Place: place.Config{Mode: place.Greedy, NoStorageOverlap: true, NoRoutingConvenient: true}},
			[]string{"none:greedy", "partial:greedy-best-effort"}},
	}
	for _, tc := range cases {
		ts, err := tiers(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(ts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: tiers = %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, err := tiers(Options{Backends: []Backend{"tabu"}}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestCandidateConfig checks the per-candidate place configuration: the
// ILP never inherits the heuristic mode, every other producer maps with
// it, and the relaxed and best-effort flags land.
func TestCandidateConfig(t *testing.T) {
	base := place.Config{Grid: 12, Mode: place.Greedy}
	if got := (candidate{backend: BackendILP}).config(base).Mode; got != place.RollingHorizon {
		t.Errorf("ilp mode = %v, want rolling-horizon", got)
	}
	base.Mode = place.Monolithic
	if got := (candidate{backend: BackendILP}).config(base).Mode; got != place.Monolithic {
		t.Errorf("ilp mode = %v, want the configured monolithic", got)
	}
	g := candidate{backend: BackendGreedy, relaxed: true, partial: true}.config(base)
	if g.Mode != place.Greedy || !g.NoStorageOverlap || !g.NoRoutingConvenient || !g.BestEffort {
		t.Errorf("greedy relaxed best-effort config: %+v", g)
	}
	if a := (candidate{backend: BackendAnneal}).config(base); a.NoStorageOverlap || a.BestEffort {
		t.Errorf("nominal anneal config relaxed: %+v", a)
	}
}

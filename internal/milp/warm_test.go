package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomMILP builds a bounded random MILP deterministic in the seed:
// mixed integer/continuous variables, LE/GE/EQ rows, occasionally SOS1
// selection groups (exercising both branching schemes).
func randomMILP(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	nv := 4 + rng.Intn(8)
	vars := make([]Var, nv)
	for v := 0; v < nv; v++ {
		obj := float64(rng.Intn(9)) - 4
		if rng.Intn(3) == 0 {
			vars[v] = m.AddVar("c", 0, float64(2+rng.Intn(6)), obj)
		} else {
			vars[v] = m.AddInt("i", 0, float64(1+rng.Intn(4)), obj)
		}
	}
	nr := 3 + rng.Intn(5)
	for r := 0; r < nr; r++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, T(vars[v], float64(rng.Intn(5))-2))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(vars[0], 1))
		}
		// Bias toward LE rows so most instances stay feasible.
		rel := LE
		switch rng.Intn(4) {
		case 0:
			rel = GE
		case 1:
			rel = EQ
		}
		m.AddRow(terms, rel, float64(rng.Intn(15)))
	}
	// Every third model gets an SOS1 selection group over fresh binaries.
	if rng.Intn(3) == 0 {
		k := 3 + rng.Intn(4)
		group := make([]Var, k)
		sel := make([]Term, k)
		for i := range group {
			group[i] = m.AddBinary("s", float64(rng.Intn(5)))
			sel[i] = T(group[i], 1)
		}
		m.AddRow(sel, EQ, 1)
		m.AddSOS1(group)
	}
	return m
}

// assertSameAnswer compares a warm solve against the cold reference. Both
// are exact searches over the same model, so they must agree on the status
// and on the proven optimum; the explored trees (and hence node counts and
// which alternate optimum becomes the incumbent) may differ where a
// relaxation has several optimal vertices, so those are not compared.
// Instead the warm incumbent is independently checked feasible in the
// model at its claimed objective.
func assertSameAnswer(t *testing.T, label string, seed int64, m *Model, cold, warm *Result) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("%s seed %d: status %v, cold %v", label, seed, warm.Status, cold.Status)
	}
	if (warm.X == nil) != (cold.X == nil) {
		t.Fatalf("%s seed %d: incumbent presence %v vs %v", label, seed, warm.X != nil, cold.X != nil)
	}
	if cold.X != nil {
		if math.Abs(warm.Obj-cold.Obj) > 1e-6 {
			t.Fatalf("%s seed %d: obj %g, cold %g", label, seed, warm.Obj, cold.Obj)
		}
		ok, obj := m.CheckFeasible(warm.X)
		if !ok {
			t.Fatalf("%s seed %d: warm incumbent infeasible", label, seed)
		}
		if math.Abs(obj-warm.Obj) > 1e-6 {
			t.Fatalf("%s seed %d: warm incumbent evaluates to %g, claimed %g", label, seed, obj, warm.Obj)
		}
	}
	if warm.Status == Optimal && warm.Bound > warm.Obj+1e-6 {
		t.Fatalf("%s seed %d: bound %g exceeds optimum %g", label, seed, warm.Bound, warm.Obj)
	}
}

// assertGapAnswer is assertSameAnswer for gap-fathomed searches: with
// AbsGap set both runs stop at the first incumbent within the gap of the
// bound, so their objectives need only agree to within the gap.
func assertGapAnswer(t *testing.T, label string, seed int64, m *Model, gap float64, cold, warm *Result) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("%s seed %d: status %v, cold %v", label, seed, warm.Status, cold.Status)
	}
	if (warm.X == nil) != (cold.X == nil) {
		t.Fatalf("%s seed %d: incumbent presence %v vs %v", label, seed, warm.X != nil, cold.X != nil)
	}
	if cold.X != nil {
		if math.Abs(warm.Obj-cold.Obj) > gap+1e-6 {
			t.Fatalf("%s seed %d: obj %g and cold %g differ by more than the gap %g", label, seed, warm.Obj, cold.Obj, gap)
		}
		ok, obj := m.CheckFeasible(warm.X)
		if !ok {
			t.Fatalf("%s seed %d: warm incumbent infeasible", label, seed)
		}
		if math.Abs(obj-warm.Obj) > 1e-6 {
			t.Fatalf("%s seed %d: warm incumbent evaluates to %g, claimed %g", label, seed, obj, warm.Obj)
		}
	}
}

// assertIdentical pins bit-identity between two warm solves of the same
// model: status, node count, objective, incumbent vector and bound.
func assertIdentical(t *testing.T, label string, seed int64, want, got *Result) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s seed %d: status %v, want %v", label, seed, got.Status, want.Status)
	}
	if got.Nodes != want.Nodes {
		t.Fatalf("%s seed %d: nodes %d, want %d", label, seed, got.Nodes, want.Nodes)
	}
	if got.Obj != want.Obj {
		t.Fatalf("%s seed %d: obj %g, want %g", label, seed, got.Obj, want.Obj)
	}
	if (got.X == nil) != (want.X == nil) {
		t.Fatalf("%s seed %d: incumbent presence %v vs %v", label, seed, got.X != nil, want.X != nil)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s seed %d: x[%d] = %g, want %g", label, seed, i, got.X[i], want.X[i])
		}
	}
	if got.Bound != want.Bound {
		t.Fatalf("%s seed %d: bound %g, want %g", label, seed, got.Bound, want.Bound)
	}
}

// TestWarmMatchesCold is the warm-start correctness property: branch and
// bound with the warm ladder (objective floors, dual re-solves as the node
// LP, warm infeasibility prunes) reaches exactly the answer the all-cold
// search reaches — same status, same proven optimum, an independently
// feasible incumbent — with and without AbsGap/Incumbent, across a battery
// of fuzzed models. One Arenas is shared by the warm solves, exercising
// cross-model buffer and snapshot reuse as the rolling-horizon mapper does;
// a solve on fresh arenas must be bit-identical to it, node budget or not.
func TestWarmMatchesCold(t *testing.T) {
	shared := NewArenas()
	for seed := int64(1); seed <= 60; seed++ {
		cold, err := randomMILP(seed).Solve(Options{ColdLP: true})
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		mw := randomMILP(seed)
		warm, err := mw.Solve(Options{Arenas: shared})
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		assertSameAnswer(t, "warm", seed, mw, cold, warm)
		fresh, err := randomMILP(seed).Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d warm fresh arenas: %v", seed, err)
		}
		assertIdentical(t, "fresh arenas", seed, warm, fresh)
		limited, err := randomMILP(seed).Solve(Options{MaxNodes: 5, Arenas: shared})
		if err != nil {
			t.Fatalf("seed %d warm node limit: %v", seed, err)
		}
		limitedFresh, err := randomMILP(seed).Solve(Options{MaxNodes: 5})
		if err != nil {
			t.Fatalf("seed %d warm node limit fresh arenas: %v", seed, err)
		}
		assertIdentical(t, "node limit", seed, limitedFresh, limited)

		// The incumbent-seeded, gap-fathomed configuration the placement
		// models use — the one where early fathoming actually fires.
		if cold.X == nil {
			continue
		}
		opts := Options{AbsGap: 0.999, Incumbent: cold.X}
		coldInc, err := randomMILP(seed).Solve(withColdLP(opts))
		if err != nil {
			t.Fatalf("seed %d cold incumbent: %v", seed, err)
		}
		mwi := randomMILP(seed)
		warmInc, err := mwi.Solve(withArenas(opts, shared))
		if err != nil {
			t.Fatalf("seed %d warm incumbent: %v", seed, err)
		}
		assertGapAnswer(t, "warm+incumbent", seed, mwi, opts.AbsGap, coldInc, warmInc)
		freshInc, err := randomMILP(seed).Solve(opts)
		if err != nil {
			t.Fatalf("seed %d warm incumbent fresh arenas: %v", seed, err)
		}
		assertIdentical(t, "fresh arenas+incumbent", seed, warmInc, freshInc)
	}
}

// TestWarmParallelNodeLimit pins bit-identity of node-budgeted warm solves
// run in parallel, each goroutine on its own Arenas as concurrent report
// cells use them, against the same solves run one after another on a
// single shared Arenas: the search must hit MaxNodes at the same node and
// yield the same partial result, with no state leaking between solves.
func TestWarmParallelNodeLimit(t *testing.T) {
	const first, last = int64(80), int64(95)
	opts := Options{MaxNodes: 5}
	shared := NewArenas()
	serial := make([]*Result, 0, last-first+1)
	for seed := first; seed <= last; seed++ {
		r, err := randomMILP(seed).Solve(withArenas(opts, shared))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		serial = append(serial, r)
	}
	const workers = 4
	par := make([]*Result, len(serial))
	errs := make([]error, len(serial))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arenas := NewArenas()
			for i := w; i < len(par); i += workers {
				par[i], errs[i] = randomMILP(first + int64(i)).Solve(withArenas(opts, arenas))
			}
		}(w)
	}
	wg.Wait()
	for i, want := range serial {
		seed := first + int64(i)
		if errs[i] != nil {
			t.Fatalf("seed %d parallel: %v", seed, errs[i])
		}
		assertIdentical(t, "limit", seed, want, par[i])
	}
}

func withColdLP(o Options) Options {
	o.ColdLP = true
	return o
}

func withArenas(o Options, a *Arenas) Options {
	o.Arenas = a
	return o
}

package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoxLP builds a random bounded LP that is feasible by construction
// (rows are ≤/≥ constraints anchored at an interior point).
func randomBoxLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 3 + rng.Intn(6)
	m := 2 + rng.Intn(6)
	anchor := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(5))
		hi := lo + 1 + float64(rng.Intn(9))
		c := float64(rng.Intn(11) - 5)
		p.AddVar("", lo, hi, c)
		anchor[j] = lo + (hi-lo)*rng.Float64()
	}
	for i := 0; i < m; i++ {
		var terms []Term
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			coef := float64(rng.Intn(7) - 3)
			if coef == 0 {
				continue
			}
			terms = append(terms, Term{Var: Var(j), Coef: coef})
			lhs += coef * anchor[j]
		}
		if len(terms) == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			p.AddRow(terms, LE, lhs+float64(rng.Intn(4)))
		} else {
			p.AddRow(terms, GE, lhs-float64(rng.Intn(4)))
		}
	}
	return p
}

// TestWarmResolveMatchesCold checks the core warm-start contract: after a
// bound tightening, a dual-simplex re-solve from the parent optimum agrees
// with a from-scratch solve of the tightened problem — same status, and on
// Optimal the same objective.
func TestWarmResolveMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wa := NewWarmArena()
	tried, warmOK := 0, 0
	for trial := 0; trial < 500; trial++ {
		p := randomBoxLP(rng)
		sol, snap, err := p.SolveScratchRetain(nil, wa)
		if err != nil {
			t.Fatalf("trial %d: root solve: %v", trial, err)
		}
		if sol.Status != Optimal || snap == nil {
			continue
		}
		// Tighten one to three variables the way branching would.
		var deltas []BoundDelta
		sLo, sHi := p.BoundsSnapshot()
		nTight := 1 + rng.Intn(3)
		for k := 0; k < nTight; k++ {
			v := Var(rng.Intn(p.NumVars()))
			lo, hi := p.Bounds(v)
			if hi-lo < 1 {
				continue
			}
			cut := math.Floor(lo + (hi-lo)*rng.Float64())
			if rng.Intn(2) == 0 {
				hi = math.Max(lo, cut)
			} else {
				lo = math.Min(hi, cut+1)
			}
			if lo > hi {
				continue
			}
			p.SetBounds(v, lo, hi)
			deltas = append(deltas, BoundDelta{Var: v, Lo: lo, Hi: hi})
		}
		if len(deltas) == 0 {
			p.RestoreBounds(sLo, sHi)
			wa.Release(snap)
			continue
		}
		tried++

		cold, err := p.SolveScratch(nil)
		if err != nil {
			t.Fatalf("trial %d: cold child solve: %v", trial, err)
		}
		w := NewWarmSolver(p)
		res := w.Resolve(snap, deltas)
		switch res.Status {
		case Optimal:
			if cold.Status != Optimal {
				t.Fatalf("trial %d: warm Optimal obj=%g but cold status %v", trial, res.Obj, cold.Status)
			}
			if math.Abs(res.Obj-cold.Obj) > 1e-6 {
				t.Fatalf("trial %d: warm obj %g != cold obj %g (deltas %v)", trial, res.Obj, cold.Obj, deltas)
			}
			warmOK++
			// A snapshot of the child optimum must itself be a valid parent.
			child := w.Snapshot(wa)
			w2 := NewWarmSolver(p)
			res2 := w2.Resolve(child, nil)
			if res2.Status != Optimal || math.Abs(res2.Obj-cold.Obj) > 1e-6 {
				t.Fatalf("trial %d: re-resolve from child snapshot: status %v obj %g want %g",
					trial, res2.Status, res2.Obj, cold.Obj)
			}
			wa.Release(child)
		case Infeasible:
			if cold.Status != Infeasible {
				t.Fatalf("trial %d: warm Infeasible but cold status %v obj %g", trial, cold.Status, cold.Obj)
			}
		case IterLimit:
			// Allowed: the caller falls back to the cold path.
		default:
			t.Fatalf("trial %d: unexpected warm status %v", trial, res.Status)
		}
		p.RestoreBounds(sLo, sHi)
		wa.Release(snap)
	}
	if tried < 100 {
		t.Fatalf("too few usable trials: %d", tried)
	}
	if warmOK < tried/2 {
		t.Fatalf("warm path succeeded on only %d/%d trials", warmOK, tried)
	}
}

// TestObjectiveFloor checks the row-free bound is valid and exact on a
// model where it is attained.
func TestObjectiveFloor(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 5, 2)  // cheapest at lower: 2*1
	y := p.AddVar("y", 0, 3, -4) // cheapest at upper: -4*3
	p.AddVar("z", 0, 10, 0)
	p.AddObjOffset(7)
	if got, want := p.ObjectiveFloor(), 7.0+2-12; got != want {
		t.Fatalf("floor = %g, want %g", got, want)
	}
	// The floor must lower-bound the LP optimum of any feasible model.
	p.AddRow([]Term{{x, 1}, {y, 1}}, GE, 4)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	if fl := p.ObjectiveFloor(); fl > sol.Obj+1e-9 {
		t.Fatalf("floor %g exceeds optimum %g", fl, sol.Obj)
	}
	// Unbounded-above negative-cost variable: floor is -Inf.
	q := NewProblem()
	q.AddVar("u", 0, Inf, -1)
	if fl := q.ObjectiveFloor(); !math.IsInf(fl, -1) {
		t.Fatalf("floor = %g, want -Inf", fl)
	}
}

// sameTableau asserts two warm solvers hold bit-identical working tableaus.
func sameTableau(t *testing.T, label string, a, b *WarmSolver) {
	t.Helper()
	if a.m != b.m || a.n != b.n || a.nStru != b.nStru || a.artBase != b.artBase {
		t.Fatalf("%s: shape %d×%d/%d/%d vs %d×%d/%d/%d", label,
			a.m, a.n, a.nStru, a.artBase, b.m, b.n, b.nStru, b.artBase)
	}
	floats := []struct {
		name string
		x, y []float64
	}{
		{"a", a.af[:a.m*a.n], b.af[:b.m*b.n]}, {"b", a.b, b.b}, {"upper", a.upper, b.upper},
		{"cost2", a.cost2, b.cost2}, {"lower", a.lower, b.lower},
	}
	for _, f := range floats {
		for i := range f.x {
			if math.Float64bits(f.x[i]) != math.Float64bits(f.y[i]) {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, f.name, i, f.x[i], f.y[i])
			}
		}
	}
	for i := range a.basis {
		if a.basis[i] != b.basis[i] {
			t.Fatalf("%s: basis[%d] = %d vs %d", label, i, a.basis[i], b.basis[i])
		}
	}
	for j := range a.inBasis {
		if a.inBasis[j] != b.inBasis[j] || a.atUpper[j] != b.atUpper[j] {
			t.Fatalf("%s: column %d state differs", label, j)
		}
	}
}

// sameSnap asserts two snapshots are bit-identical.
func sameSnap(t *testing.T, label string, a, b *WarmSnap) {
	t.Helper()
	wa, wb := &WarmSolver{}, &WarmSolver{}
	wa.load(a)
	wb.load(b)
	sameTableau(t, label, wa, wb)
}

// branchDelta tightens one variable of p the way branching would and
// returns the delta, or false when no variable has room.
func branchDelta(rng *rand.Rand, p *Problem) (BoundDelta, bool) {
	for try := 0; try < 8; try++ {
		v := Var(rng.Intn(p.NumVars()))
		lo, hi := p.Bounds(v)
		if hi-lo < 1 {
			continue
		}
		cut := math.Floor(lo + (hi-lo)*rng.Float64())
		if rng.Intn(2) == 0 {
			hi = math.Max(lo, cut)
		} else {
			lo = math.Min(hi, cut+1)
		}
		p.SetBounds(v, lo, hi)
		return BoundDelta{Var: v, Lo: lo, Hi: hi}, true
	}
	return BoundDelta{}, false
}

// TestWarmMirrorMatchesCopyIn checks the copy-free warm start: a solver
// that froze a child's optimum resolves the grandchild from that snapshot
// in place, and ends with the same tableau, result, solution and snapshot
// as a fresh solver that copies the snapshot in. A recycled snapshot at the
// same address must force the copy-in.
func TestWarmMirrorMatchesCopyIn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wa := NewWarmArena()
	inPlace, recycled := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := randomBoxLP(rng)
		sol, root, err := p.SolveScratchRetain(nil, wa)
		if err != nil {
			t.Fatalf("trial %d: root solve: %v", trial, err)
		}
		if sol.Status != Optimal || root == nil {
			continue
		}
		d1, ok1 := branchDelta(rng, p)
		d2, ok2 := branchDelta(rng, p)
		if !ok1 || !ok2 {
			wa.Release(root)
			continue
		}
		w := NewWarmSolver(p)
		if res := w.Resolve(root, []BoundDelta{d1}); res.Status != Optimal {
			wa.Release(root)
			continue
		}
		child := w.Snapshot(wa)
		if !w.mirrors(child) {
			t.Fatalf("trial %d: solver does not mirror the snapshot it froze", trial)
		}
		fresh := NewWarmSolver(p)
		got := w.Resolve(child, []BoundDelta{d2})
		want := fresh.Resolve(child, []BoundDelta{d2})
		if got != want {
			t.Fatalf("trial %d: in-place resolve %+v, copy-in %+v", trial, got, want)
		}
		sameTableau(t, "in place", w, fresh)
		if got.Status == Optimal {
			gs, ws := w.Solution(got.Obj, got.Iters), fresh.Solution(want.Obj, want.Iters)
			for j := range gs.X {
				if math.Float64bits(gs.X[j]) != math.Float64bits(ws.X[j]) {
					t.Fatalf("trial %d: x[%d] = %v in place, %v copied", trial, j, gs.X[j], ws.X[j])
				}
			}
			a, b := w.Snapshot(wa), fresh.Snapshot(wa)
			sameSnap(t, "grandchild snapshot", a, b)
			wa.Release(a)
			wa.Release(b)
		}
		inPlace++

		// Recycle: the child goes back to the pool and the next copy
		// reuses its memory for a different tableau. w still points at it
		// from an earlier mirror, which must now count as stale.
		w.Resolve(child, nil)
		if !w.mirrors(child) {
			t.Fatalf("trial %d: an empty resolve moved the tableau", trial)
		}
		wa.Release(child)
		if w.mirrors(child) {
			t.Fatalf("trial %d: mirror survived the snapshot's release", trial)
		}
		other := NewWarmSolver(p)
		if res := other.Resolve(root, []BoundDelta{d2}); res.Status == Optimal {
			reused := other.Snapshot(wa)
			if reused == child {
				recycled++
				copied := NewWarmSolver(p)
				got, want := w.Resolve(reused, nil), copied.Resolve(reused, nil)
				if got != want {
					t.Fatalf("trial %d: stale-mirror resolve %+v, copy-in %+v", trial, got, want)
				}
				sameTableau(t, "stale mirror", w, copied)
			}
			wa.Release(reused)
		}
		wa.Release(root)
	}
	if inPlace < 50 || recycled < 20 {
		t.Fatalf("too few usable trials: %d in place, %d recycled", inPlace, recycled)
	}
}

// TestWarmUnmovedChildSharesSnapshot checks that a dive through children
// whose bound deltas move nothing shares the parent's snapshot by
// reference: no snapshot is copied or drawn from the pool, and the shared
// snapshot returns to the pool only after its last release.
func TestWarmUnmovedChildSharesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wa := NewWarmArena()
	dives := 0
	for trial := 0; trial < 100 && dives < 20; trial++ {
		p := randomBoxLP(rng)
		sol, root, err := p.SolveScratchRetain(nil, wa)
		if err != nil || sol.Status != Optimal || root == nil {
			continue
		}
		d, ok := branchDelta(rng, p)
		w := NewWarmSolver(p)
		if !ok || w.Resolve(root, []BoundDelta{d}).Status != Optimal {
			wa.Release(root)
			continue
		}
		parent := w.Snapshot(wa)
		pooled := len(wa.free)
		// Re-assert every variable's current bounds, as an SOS1 split does
		// when it fixes members already at zero.
		var same []BoundDelta
		for v := 0; v < p.NumVars(); v++ {
			lo, hi := p.Bounds(Var(v))
			same = append(same, BoundDelta{Var: Var(v), Lo: lo, Hi: hi})
		}
		held := []*WarmSnap{parent}
		node := parent
		for depth := 0; depth < 5; depth++ {
			if res := w.Resolve(node, same); res.Status != Optimal || res.Iters != 0 {
				t.Fatalf("trial %d depth %d: unmoved resolve %+v", trial, depth, res)
			}
			next := w.Snapshot(wa)
			if next != parent {
				t.Fatalf("trial %d depth %d: unmoved child copied a new snapshot", trial, depth)
			}
			held = append(held, next)
			node = next
		}
		if len(wa.free) != pooled {
			t.Fatalf("trial %d: dive drew %d snapshots from the pool", trial, pooled-len(wa.free))
		}
		for i, s := range held {
			wa.Release(s)
			if inPool := len(wa.free) > pooled; inPool != (i == len(held)-1) {
				t.Fatalf("trial %d: shared snapshot pooled after %d of %d releases", trial, i+1, len(held))
			}
		}
		wa.Release(root)
		dives++
	}
	if dives < 20 {
		t.Fatalf("too few usable dives: %d", dives)
	}
}

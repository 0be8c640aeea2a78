package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a small feasible-ish random LP deterministic in rng.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	nv := 3 + rng.Intn(6)
	for v := 0; v < nv; v++ {
		up := Inf
		if rng.Intn(2) == 0 {
			up = float64(1 + rng.Intn(9))
		}
		p.AddVar("x", 0, up, float64(rng.Intn(7))-3)
	}
	nr := 2 + rng.Intn(5)
	for r := 0; r < nr; r++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: Var(v), Coef: float64(rng.Intn(5)) - 2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: 0, Coef: 1})
		}
		p.AddRow(terms, Rel(rng.Intn(3)), float64(rng.Intn(12)))
	}
	return p
}

// TestScratchReuseMatchesFresh reuses one arena across many solves of
// differently-sized problems and checks each result against a fresh solve.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for k := 0; k < 200; k++ {
		p := randomLP(rng)
		fresh, err := p.Solve()
		if err != nil {
			t.Fatalf("case %d fresh: %v", k, err)
		}
		reused, err := p.SolveScratch(s)
		if err != nil {
			t.Fatalf("case %d scratch: %v", k, err)
		}
		if fresh.Status != reused.Status {
			t.Fatalf("case %d: status %v vs %v", k, fresh.Status, reused.Status)
		}
		if fresh.Status == Optimal {
			if math.Abs(fresh.Obj-reused.Obj) > 1e-9 {
				t.Fatalf("case %d: obj %g vs %g", k, fresh.Obj, reused.Obj)
			}
			for v := range fresh.X {
				if math.Abs(fresh.X[v]-reused.X[v]) > 1e-9 {
					t.Fatalf("case %d: x[%d] %g vs %g", k, v, fresh.X[v], reused.X[v])
				}
			}
		}
	}
}

// TestBoundsSnapshotRoundTrip exercises snapshot/restore.
func TestBoundsSnapshotRoundTrip(t *testing.T) {
	p := NewProblem()
	v := p.AddVar("x", 1, 5, 1)
	lo, hi := p.BoundsSnapshot()
	p.SetBounds(v, 2, 2)
	p.RestoreBounds(lo, hi)
	l, h := p.Bounds(v)
	if l != 1 || h != 5 {
		t.Fatalf("restored bounds = [%g,%g]", l, h)
	}
}

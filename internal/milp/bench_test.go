package milp

import (
	"math/rand"
	"testing"
)

// knapsack20 builds the 20-item knapsack of BenchmarkKnapsack20 — a search
// of a few hundred branch-and-bound nodes, all warm-startable below the
// root.
func knapsack20() *Model {
	r := rand.New(rand.NewSource(3))
	m := NewModel()
	terms := make([]Term, 20)
	for j := range terms {
		v := m.AddBinary("x", -float64(1+r.Intn(30)))
		terms[j] = Term{v, float64(1 + r.Intn(12))}
	}
	m.AddRow(terms, LE, 60)
	return m
}

// BenchmarkBBKnapsackCold runs the full branch-and-bound search with the
// warm-start machinery disabled: every node pays a from-scratch LP solve.
func BenchmarkBBKnapsackCold(b *testing.B) {
	m := knapsack20()
	ar := NewArenas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(Options{ColdLP: true, Arenas: ar})
		if err != nil || res.Status != Optimal {
			b.Fatalf("status %v err %v", res.Status, err)
		}
	}
}

// BenchmarkBBKnapsackWarm runs the same search with warm-started node
// solves: dual re-solves from the parent basis replace the cold path at
// every node below the root.
func BenchmarkBBKnapsackWarm(b *testing.B) {
	m := knapsack20()
	ar := NewArenas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(Options{Arenas: ar})
		if err != nil || res.Status != Optimal {
			b.Fatalf("status %v err %v", res.Status, err)
		}
	}
}

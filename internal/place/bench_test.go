package place

import (
	"context"
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/fault"
	"mfsynth/internal/schedule"
)

// poolCase is one mapping input of the service benchmark's request pool.
type poolCase struct {
	sched  *schedule.Result
	faults *fault.Set
}

// servePool schedules three request-pool assays of perfbench's serve-mix
// workload (6, 9 and 12 mixes, one mixer per volume) for a 12×12 chip;
// the first carries the pool's seeded 5% fault set.
func servePool(b *testing.B) []poolCase {
	b.Helper()
	var out []poolCase
	for i, seed := range []int64{6000, 9001, 12002} {
		a := assays.Random(seed, assays.RandomOptions{MixOps: int(seed / 1000)})
		mixers := map[int]int{}
		for _, id := range a.MixOps() {
			mixers[a.Volume(id)] = 1
		}
		sched, err := schedule.List(a, schedule.Options{Resources: schedule.Resources{Mixers: mixers}})
		if err != nil {
			b.Fatal(err)
		}
		c := poolCase{sched: sched}
		if i == 0 {
			c.faults = fault.Generate(seed, fault.GenOptions{Grid: 12, Rate: 0.05, KeepPorts: true})
		}
		out = append(out, c)
	}
	return out
}

// BenchmarkGreedyServePool maps the pool cases with the multi-start greedy
// mapper: the placement work of a served greedy candidate.
func BenchmarkGreedyServePool(b *testing.B) {
	pool := servePool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range pool {
			if _, err := Map(c.sched, Config{Grid: 12, Mode: Greedy, Faults: c.faults}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnnealServePool anneals the pool cases at the default budget,
// replicates run serially: the placement work of a served anneal
// candidate.
func BenchmarkAnnealServePool(b *testing.B) {
	pool := servePool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range pool {
			if _, err := Anneal(context.Background(), c.sched, Config{Grid: 12, Faults: c.faults}, AnnealOptions{Seed: int64(k + 1)}, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package anneal_test

import (
	"context"
	"testing"

	"mfsynth/internal/anneal"
	"mfsynth/internal/assays"
	"mfsynth/internal/fault"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// BenchmarkAnnealServePool anneals three request-pool assays of
// perfbench's serve-mix workload (6, 9 and 12 mixes, one mixer per
// volume) on a 12×12 chip at the default budget, replicates run serially;
// the first carries the pool's seeded 5% fault set.
func BenchmarkAnnealServePool(b *testing.B) {
	var scheds []*schedule.Result
	var cfgs []anneal.Config
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
		cfg := anneal.Config{Place: place.Config{Grid: 12}, Seed: int64(i + 1), Workers: 1}
		if i == 0 {
			cfg.Place.Faults = fault.Generate(seed, fault.GenOptions{Grid: 12, Rate: 0.05, KeepPorts: true})
		}
		scheds = append(scheds, sched)
		cfgs = append(cfgs, cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, sched := range scheds {
			if _, _, err := anneal.MapCtx(context.Background(), sched, cfgs[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

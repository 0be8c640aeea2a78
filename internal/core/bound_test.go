package core_test

import (
	"math/rand"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/place"
)

// TestPumpBoundBelowEveryProducer is the bound's seeded property: on
// generated assays, on a healthy chip and on one with a 5% fault set and a
// wear prior, every producer's complete result reports the counting bound
// over its placed mix rings, no larger than its largest pump load, and the
// wear-aware bound (prior included) stays below the lifetime load.
func TestPumpBoundBelowEveryProducer(t *testing.T) {
	const g = 10
	producers := []struct {
		mode    place.Mode
		backend core.Backend
	}{
		{place.Greedy, core.BackendGreedy},
		{place.RollingHorizon, core.BackendILP},
		{place.Monolithic, core.BackendILP},
		{place.Greedy, core.BackendAnneal},
	}
	checked := map[string]int{}
	for seed := int64(1); seed <= 10; seed++ {
		a := assays.Random(seed, assays.RandomOptions{MixOps: 4 + int(seed%3), Detects: 1})
		for _, worn := range []bool{false, true} {
			base := core.Options{
				Policy:             racePolicy(a),
				Place:              place.Config{Grid: g, MaxNodes: 16, SolveTimeout: time.Hour},
				Workers:            1,
				DisableDegradation: true,
				Anneal:             core.AnnealOptions{Seed: seed, Replicates: 2, Iters: 300},
			}
			prior := map[grid.Point]int{}
			if worn {
				base.Faults = fault.Generate(seed, fault.GenOptions{Grid: g, Rate: 0.05, KeepPorts: true})
				rng := rand.New(rand.NewSource(seed))
				base.Place.WearPrior = make([]int, g*g)
				for i := range base.Place.WearPrior {
					if rng.Intn(3) == 0 {
						base.Place.WearPrior[i] = rng.Intn(3)
						prior[grid.Point{X: i % g, Y: i / g}] = base.Place.WearPrior[i]
					}
				}
			}
			for _, p := range producers {
				opts := base
				opts.Place.Mode = p.mode
				opts.Backends = []core.Backend{p.backend}
				res, err := core.Synthesize(a, opts)
				if err != nil || (res.Degradation != nil && len(res.Degradation.DroppedOps) > 0) {
					continue // the property is about complete results
				}
				label := string(p.backend) + "/" + p.mode.String()
				rings := 0
				lifetime := map[grid.Point]int{}
				for pt, n := range prior {
					lifetime[pt] = n
				}
				for id, pl := range res.Mapping.Placements {
					if a.Op(id).Kind != graph.Mix {
						continue
					}
					rings += pl.Volume()
					for _, pt := range pl.Ring() {
						lifetime[pt]++
					}
				}
				if want := place.PumpBound(g, rings, nil); res.PumpBound != want {
					t.Fatalf("seed %d %s: reported bound %d, want %d", seed, label, res.PumpBound, want)
				}
				if res.PumpGap != res.Mapping.MaxPumpOps-res.PumpBound || res.PumpGap < 0 {
					t.Fatalf("seed %d %s worn=%v: bound %d above max pump load %d (gap %d)",
						seed, label, worn, res.PumpBound, res.Mapping.MaxPumpOps, res.PumpGap)
				}
				maxLife := 0
				for _, n := range lifetime {
					if n > maxLife {
						maxLife = n
					}
				}
				if lb := place.PumpBound(g, rings, base.Place.WearPrior); lb > maxLife {
					t.Fatalf("seed %d %s: wear-aware bound %d above lifetime load %d", seed, label, lb, maxLife)
				}
				checked[label]++
			}
		}
	}
	for _, p := range producers {
		if label := string(p.backend) + "/" + p.mode.String(); checked[label] < 10 {
			t.Errorf("%s: only %d complete results checked", label, checked[label])
		}
	}
}

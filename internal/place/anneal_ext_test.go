package place_test

import (
	"context"
	"errors"
	"testing"

	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/synerr"
	"mfsynth/internal/verify"
)

// TestAnnealAcceptedStatesConformant replays accepted annealing states
// through the downstream pipeline: every state the walk ever accepts — the
// initial construction included — must finish into a mapping with zero
// storage violations and pass the full conformance catalogue after
// routing. Admissible-built states promise this by construction; the test
// is the promise's audit. At the generator's default fan-in no mix has two
// device parents, so no state maps a storage over a live parent; the
// fan-in 3 case does, which is the c5 relaxation's hard case.
func TestAnnealAcceptedStatesConformant(t *testing.T) {
	for _, tc := range []struct {
		name        string
		seed        int64
		opts        assays.RandomOptions
		wantOverlap bool
	}{
		{"default fan-in", 3, assays.RandomOptions{MixOps: 5, Detects: 1}, false},
		{"fan-in 3", 9, assays.RandomOptions{MixOps: 6, MaxFanIn: 3, Detects: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, sched, policy := place.RandomProblem(t, tc.seed, tc.opts)
			pcfg := place.Config{Grid: 10}

			var accepted []map[int]arch.Placement
			tr := obs.New()
			root := tr.Start("test")
			cfg := place.WithAcceptHook(place.Config{Grid: 10, Obs: root}, func(fixed map[int]arch.Placement) {
				cl := make(map[int]arch.Placement, len(fixed))
				for k, v := range fixed {
					cl[k] = v
				}
				accepted = append(accepted, cl)
			})
			// One worker: the accept hook requires serial replicates.
			_, err := place.Anneal(context.Background(), sched, cfg, place.AnnealOptions{Seed: 9, Replicates: 1, Iters: 150}, 1)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if len(accepted) == 0 {
				t.Fatal("accept hook never fired")
			}
			_, counters := place.AnnealRecord(t, tr)
			if n := counters["anneal_accepted_total"]; int64(len(accepted)) != n+1 {
				// One hook call per acceptance plus the initial construction.
				t.Errorf("hook fired %d times, want %d accepted + 1 initial", len(accepted), n)
			}

			// Auditing every state would route the assay hundreds of times;
			// an evenly spaced sample including the first and last state
			// keeps the test fast while still covering the walk end to end.
			sample := accepted
			if len(sample) > 16 {
				step := len(accepted) / 15
				sample = nil
				for i := 0; i < len(accepted); i += step {
					sample = append(sample, accepted[i])
				}
				sample = append(sample, accepted[len(accepted)-1])
			}
			overlaps := 0
			for i, fixed := range sample {
				m, n, err := place.FinishState(sched, pcfg, fixed)
				if err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					t.Fatalf("state %d: %d storage violations", i, n)
				}
				if storageOverLiveParent(a, m) {
					overlaps++
				}
				res, err := core.Complete(context.Background(), a, sched, m, core.Options{
					Policy: policy,
					Place:  pcfg,
				})
				if err != nil {
					t.Fatalf("state %d: complete: %v", i, err)
				}
				if rep := verify.Conformance(res); !rep.Clean() {
					t.Fatalf("state %d fails conformance:\n%s", i, rep)
				}
			}
			if tc.wantOverlap && overlaps == 0 {
				t.Fatalf("none of %d sampled states maps a storage over a live device parent", len(sample))
			}
			t.Logf("%d accepted states, %d sampled, %d with a storage over a live parent", len(accepted), len(sample), overlaps)
		})
	}
}

// storageOverLiveParent reports whether some op's device shares cells with
// a device parent while both are alive: the overlap only the c5
// relaxation admits.
func storageOverLiveParent(a *graph.Assay, m *place.Mapping) bool {
	for c, pl := range m.Placements {
		for _, p := range a.DeviceParents(c) {
			ppl, ok := m.Placements[p]
			if !ok {
				continue
			}
			wc, wp := m.Windows[c], m.Windows[p]
			if wc[0] < wp[1] && wp[0] < wc[1] && pl.Footprint().Overlaps(ppl.Footprint()) {
				return true
			}
		}
	}
	return false
}

// TestAnnealCostAgreesWithReport fuzzes 200 small assays and checks the
// annealer's objective against the downstream accounting: the winning
// cost's max pump (the place.anneal span's best_max_pump) must equal the
// finished Mapping's MaxPumpOps, and the report-level pump figure must be
// exactly that load × PumpActuations — the identity that ties the anneal
// objective to Table 1's VsPump1.
func TestAnnealCostAgreesWithReport(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	infeasible := 0
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		a, sched, policy := place.RandomProblem(t, seed, assays.RandomOptions{MixOps: 3 + i%4, Detects: 1})
		tr := obs.New()
		root := tr.Start("test")
		m, err := place.Anneal(context.Background(), sched, place.Config{Grid: 12, Obs: root},
			place.AnnealOptions{Seed: int64(i + 1), Replicates: 1, Iters: 40}, 0)
		root.End()
		if errors.Is(err, synerr.ErrInfeasible) {
			// A drawn assay that does not fit the chip is a legitimate
			// outcome, not a cost disagreement — but it must stay rare or
			// the fuzz loses its teeth.
			infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("assay %d: %v", seed, err)
		}
		attrs, _ := place.AnnealRecord(t, tr)
		bestMaxPump := int(attrs["best_max_pump"].(float64))
		if bestMaxPump != m.MaxPumpOps {
			t.Fatalf("assay %d: best_max_pump = %d, Mapping.MaxPumpOps = %d",
				seed, bestMaxPump, m.MaxPumpOps)
		}
		if len(m.Dropped) != 0 {
			t.Fatalf("assay %d: a complete run dropped %v", seed, m.Dropped)
		}
		res, err := core.Complete(context.Background(), a, sched, m, core.Options{
			Policy: policy,
			Place:  place.Config{Grid: 12},
		})
		if err != nil {
			t.Fatalf("assay %d: complete: %v", seed, err)
		}
		if want := bestMaxPump * core.DefaultPumpActuations; res.VsPump1 != want {
			t.Fatalf("assay %d: VsPump1 = %d, want max pump %d × %d = %d",
				seed, res.VsPump1, bestMaxPump, core.DefaultPumpActuations, want)
		}
	}
	if infeasible > n/10 {
		t.Fatalf("%d/%d fuzz assays infeasible — the corpus no longer exercises the cost identity", infeasible, n)
	}
}

package verify

import (
	"testing"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// synthWithFaults runs one benchmark under policy p1 with the given fault
// set (greedy mapper, deterministic).
func synthWithFaults(t *testing.T, name string, fs *fault.Set) *core.Result {
	t.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	des, err := baseline.Traditional(c, 1, baseline.DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
		Place:  place.Config{Grid: c.GridSize, Mode: place.Greedy},
		Faults: fs,
	})
	if err != nil {
		t.Fatalf("%s with %d faults: %v", name, fs.Len(), err)
	}
	return res
}

// TestStuckClosedNeverUsed is the property test of the fault model: across
// all four Table 1 benchmarks and several seeded 5% stuck-closed defect
// sets, no stuck-closed valve may appear in any footprint (hence any ring
// or in situ storage) or on any routed path — asserted both directly and
// through the conformance catalogue's fault rules.
func TestStuckClosedNeverUsed(t *testing.T) {
	for _, name := range assays.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := assays.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				fs := fault.Generate(seed, fault.GenOptions{
					Grid: c.GridSize, Rate: 0.05, KeepPorts: true,
				})
				res := synthWithFaults(t, name, fs)

				// Direct assertions, independent of the catalogue.
				for id, pl := range res.Mapping.Placements {
					fp := pl.Footprint()
					for _, f := range fs.Faults() {
						if f.Kind == fault.StuckClosed && fp.Contains(f.At) {
							t.Errorf("seed %d: op %d footprint %v contains stuck-closed %v",
								seed, id, fp, f.At)
						}
					}
				}
				for _, tr := range res.Transports {
					if tr.InPlace {
						continue
					}
					for _, p := range tr.Path {
						if fs.Blocked(p) {
							t.Errorf("seed %d: path %s->%s crosses stuck-closed %v",
								seed, tr.From, tr.To, p)
						}
					}
				}

				// The catalogue must agree (and audit everything else too).
				if rep := Conformance(res); !rep.Clean() {
					t.Errorf("seed %d: %s", seed, rep)
				}
			}
		})
	}
}

// TestZeroFaultsBitIdentical: threading an empty fault set through the
// pipeline must not move a single decision — the fingerprint oracle of the
// fault-awareness plumbing, checked on all four benchmarks.
func TestZeroFaultsBitIdentical(t *testing.T) {
	for _, name := range assays.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := assays.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			clean := synthWithFaults(t, name, nil)
			empty := synthWithFaults(t, name, fault.NewSet(c.GridSize))
			if Fingerprint(clean) != Fingerprint(empty) {
				t.Errorf("empty fault set perturbs the result:\n%v",
					Diff("no-faults", clean, "empty-set", empty))
			}
			if clean.Degraded() {
				t.Error("fault-free run carries a degradation report")
			}
		})
	}
}

// TestDegradedPartialConforms: a best-effort partial result (grid too small
// for the assay) must still pass the full conformance audit — its losses
// are declared, not silent.
func TestDegradedPartialConforms(t *testing.T) {
	c := assays.InterpolatingDilution()
	res, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: 8, Mode: place.Greedy},
	})
	if err != nil {
		t.Fatalf("fallback tiers did not rescue the 8x8 run: %v", err)
	}
	if !res.Degraded() || res.Degradation.Level != core.DegradePartial {
		t.Fatalf("expected a partial result, got %s", res.Degradation)
	}
	if rep := Conformance(res); !rep.Clean() {
		t.Errorf("declared-degraded result fails conformance: %s", rep)
	}
}

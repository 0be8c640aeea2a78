package verify

import (
	"strings"
	"testing"
	"time"

	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

func testAssay(t *testing.T) *graph.Assay {
	t.Helper()
	a := graph.New("req-test")
	in1 := a.Add(graph.Input, "s1", 0)
	in2 := a.Add(graph.Input, "s2", 0)
	mix := a.Add(graph.Mix, "m1", 3)
	out := a.Add(graph.Output, "o1", 0)
	a.Connect(in1, mix, 4)
	a.Connect(in2, mix, 4)
	a.Connect(mix, out, 8)
	return a
}

func baseOpts() core.Options {
	return core.Options{
		Policy: schedule.Resources{Mixers: map[int]int{8: 1}, Detectors: 1},
		Place:  place.Config{Grid: 12},
	}
}

func mustFingerprint(t *testing.T, a *graph.Assay, opts core.Options) string {
	t.Helper()
	fp, err := RequestFingerprint(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestRequestFingerprintDefaultInvariance: a request spelled with zero
// values hashes identically to one spelling every default explicitly, and
// to one setting the result-neutral fields (Workers, Trace, Obs). A
// divergence here would split the result cache into spurious cold entries;
// a collision in the sensitivity test below would poison it.
func TestRequestFingerprintDefaultInvariance(t *testing.T) {
	a := testAssay(t)
	base := mustFingerprint(t, a, baseOpts())

	cases := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"explicit transport delay default", func(o *core.Options) { o.TransportDelay = schedule.DefaultTransportDelay }},
		{"explicit pump actuations default", func(o *core.Options) { o.PumpActuations = core.DefaultPumpActuations }},
		{"explicit dedicated pump valves default", func(o *core.Options) { o.DedicatedPumpValves = core.DefaultDedicatedPumpValves }},
		{"explicit max ripups default", func(o *core.Options) { o.MaxRipups = 8 }},
		{"explicit batch size default", func(o *core.Options) { o.Place.BatchSize = 6 }},
		{"explicit max nodes default", func(o *core.Options) { o.Place.MaxNodes = 1024 }},
		{"explicit solve timeout default", func(o *core.Options) { o.Place.SolveTimeout = 120 * time.Second }},
		{"explicit root stride default", func(o *core.Options) { o.Place.RootStride = 2 }},
		{"workers is result-neutral", func(o *core.Options) { o.Workers = 7 }},
		{"trace is result-neutral", func(o *core.Options) { o.Trace = obs.New() }},
		{"zero-count mixer entry is absent", func(o *core.Options) {
			o.Policy.Mixers = map[int]int{8: 1, 6: 0}
		}},
		{"anneal knobs without anneal backend are result-neutral", func(o *core.Options) {
			o.Anneal.Seed = 99
			o.Anneal.Replicates = 3
		}},
	}
	for _, tc := range cases {
		opts := baseOpts()
		tc.mut(&opts)
		if got := mustFingerprint(t, a, opts); got != base {
			canon, _ := CanonicalRequest(a, opts)
			t.Errorf("%s: fingerprint changed\ncanonical:\n%s", tc.name, canon)
		}
	}

	// Nil vs empty mixer map.
	optsNil := baseOpts()
	optsNil.Policy.Mixers = nil
	optsEmpty := baseOpts()
	optsEmpty.Policy.Mixers = map[int]int{}
	if mustFingerprint(t, a, optsNil) != mustFingerprint(t, a, optsEmpty) {
		t.Error("nil and empty mixer maps hash differently")
	}

	// Zero-valued anneal knobs hash like the spelled-out defaults (the
	// anneal backend must be listed for the knobs to hash at all).
	withAnneal := baseOpts()
	withAnneal.Backends = []core.Backend{core.BackendAnneal}
	spelled := withAnneal
	spelled.Anneal = core.AnnealOptions{}.WithDefaults()
	if mustFingerprint(t, a, withAnneal) != mustFingerprint(t, a, spelled) {
		t.Error("zero-valued and spelled-default anneal options hash differently")
	}

	// Duplicate backends collapse to their first occurrence.
	dup := baseOpts()
	dup.Backends = []core.Backend{core.BackendILP, core.BackendILP, core.BackendGreedy}
	plain := baseOpts()
	plain.Backends = []core.Backend{core.BackendILP, core.BackendGreedy}
	if mustFingerprint(t, a, dup) != mustFingerprint(t, a, plain) {
		t.Error("duplicate backend entries hash differently from the deduped list")
	}
}

// TestRequestFingerprintSensitivity: every semantically distinct option,
// fault-spec change and assay mutation produces a distinct fingerprint. A
// silent collision between two of these would let the serving tier return
// a cached result for a different problem.
func TestRequestFingerprintSensitivity(t *testing.T) {
	a := testAssay(t)
	seen := map[string]string{
		"base": mustFingerprint(t, a, baseOpts()),
	}
	record := func(name, fp string) {
		for prev, prevFP := range seen {
			if prevFP == fp {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		seen[name] = fp
	}

	optCases := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"detectors", func(o *core.Options) { o.Policy.Detectors = 2 }},
		{"mixer count", func(o *core.Options) { o.Policy.Mixers = map[int]int{8: 2} }},
		{"mixer size", func(o *core.Options) { o.Policy.Mixers = map[int]int{4: 1} }},
		{"transport delay", func(o *core.Options) { o.TransportDelay = 5 }},
		{"pump actuations", func(o *core.Options) { o.PumpActuations = 20 }},
		{"dedicated pump valves", func(o *core.Options) { o.DedicatedPumpValves = 4 }},
		{"storage passthrough", func(o *core.Options) { o.DisableStoragePassthrough = true }},
		{"max ripups", func(o *core.Options) { o.MaxRipups = 3 }},
		{"disable degradation", func(o *core.Options) { o.DisableDegradation = true }},
		{"grid", func(o *core.Options) { o.Place.Grid = 14 }},
		{"mode monolithic", func(o *core.Options) { o.Place.Mode = place.Monolithic }},
		{"mode greedy", func(o *core.Options) { o.Place.Mode = place.Greedy }},
		{"batch size", func(o *core.Options) { o.Place.BatchSize = 4 }},
		{"max nodes", func(o *core.Options) { o.Place.MaxNodes = 256 }},
		{"solve timeout", func(o *core.Options) { o.Place.SolveTimeout = time.Minute }},
		{"root stride", func(o *core.Options) { o.Place.RootStride = 1 }},
		{"no storage overlap", func(o *core.Options) { o.Place.NoStorageOverlap = true }},
		{"no routing convenient", func(o *core.Options) { o.Place.NoRoutingConvenient = true }},
		{"best effort", func(o *core.Options) { o.Place.BestEffort = true }},
		{"one stuck-closed fault", func(o *core.Options) {
			o.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 3, Y: 4}, Kind: fault.StuckClosed})
		}},
		{"fault kind", func(o *core.Options) {
			o.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 3, Y: 4}, Kind: fault.StuckOpen})
		}},
		{"fault position", func(o *core.Options) {
			o.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 4, Y: 3}, Kind: fault.StuckClosed})
		}},
		{"wear-out threshold", func(o *core.Options) {
			o.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 3, Y: 4}, Kind: fault.WearOut, Threshold: 100})
		}},
		{"wear-out threshold value", func(o *core.Options) {
			o.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 3, Y: 4}, Kind: fault.WearOut, Threshold: 200})
		}},
		{"backend greedy alone", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendGreedy}
		}},
		{"backend portfolio", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendILP, core.BackendAnneal}
		}},
		{"backend priority order", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendAnneal, core.BackendILP}
		}},
		{"anneal seed", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendAnneal, core.BackendILP}
			o.Anneal.Seed = 7
		}},
		{"anneal replicates", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendAnneal, core.BackendILP}
			o.Anneal.Replicates = 2
		}},
		{"anneal iters", func(o *core.Options) {
			o.Backends = []core.Backend{core.BackendAnneal, core.BackendILP}
			o.Anneal.Iters = 500
		}},
	}
	for _, tc := range optCases {
		opts := baseOpts()
		tc.mut(&opts)
		record("option "+tc.name, mustFingerprint(t, a, opts))
	}

	// Faults reach the fingerprint through either field.
	viaPlace := baseOpts()
	viaPlace.Place.Faults = fault.NewSet(12, fault.Fault{At: grid.Point{X: 3, Y: 4}, Kind: fault.StuckClosed})
	if got := mustFingerprint(t, a, viaPlace); got != seen["option one stuck-closed fault"] {
		t.Error("Place.Faults fallback hashes differently from Options.Faults")
	}

	assayCases := []struct {
		name string
		mut  func(a *graph.Assay)
	}{
		{"op renamed", func(a *graph.Assay) { a.Op(2).Name = "m1x" }},
		{"duration", func(a *graph.Assay) { a.Op(2).Duration = 4 }},
		{"extra op", func(a *graph.Assay) {
			d := a.Add(graph.Detect, "d1", 2)
			a.Connect(a.Op(2), d, 8)
		}},
	}
	for _, tc := range assayCases {
		b := testAssay(t)
		tc.mut(b)
		record("assay "+tc.name, mustFingerprint(t, b, baseOpts()))
	}

	// Edge volume change (rebuild: volumes are set on Connect).
	b := graph.New("req-test")
	in1 := b.Add(graph.Input, "s1", 0)
	in2 := b.Add(graph.Input, "s2", 0)
	mix := b.Add(graph.Mix, "m1", 3)
	out := b.Add(graph.Output, "o1", 0)
	b.Connect(in1, mix, 2)
	b.Connect(in2, mix, 2)
	b.Connect(mix, out, 4)
	record("assay edge volume", mustFingerprint(t, b, baseOpts()))
}

// TestCanonicalRequestShape: the canonical text carries the labelled
// sections the fingerprint is defined over, and applies defaults.
func TestCanonicalRequestShape(t *testing.T) {
	a := testAssay(t)
	canon, err := CanonicalRequest(a, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"request v3\n", "assay:\n", "options:\n", "faults:\nnone\n",
		"transport_delay 3\n", "pump_actuations 40\n", "max_ripups 8\n",
		"place grid=12 mode=rolling-horizon batch=6 max_nodes=1024",
		"backends none\n",
	} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical request missing %q:\n%s", want, canon)
		}
	}

	// A portfolio request spells the priority order and the anneal options.
	opts := baseOpts()
	opts.Backends = []core.Backend{core.BackendAnneal, core.BackendGreedy}
	opts.Anneal.Seed = 5
	canon, err = CanonicalRequest(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"backends anneal,greedy\n",
		"anneal seed=5 replicates=8 iters=4000\n",
	} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical request missing %q:\n%s", want, canon)
		}
	}
}

// TestCanonicalRequestPinned pins one full canonical request, defaults
// resolved by the engine included. The text is the result-cache key: a
// change here changes every request fingerprint and must bump the header
// version with it.
func TestCanonicalRequestPinned(t *testing.T) {
	opts := baseOpts()
	opts.Backends = []core.Backend{core.BackendAnneal, core.BackendGreedy}
	opts.Anneal.Seed = 5
	opts.WearBias = 0.5
	opts.WearCounts = make([]int, 144)
	opts.WearCounts[30] = 400
	canon, err := CanonicalRequest(testAssay(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	const want = `request v3
assay:
assay req-test
op s1 input 0
op s2 input 0
op m1 mix 3
op o1 output 0
edge s1 m1 4
edge s2 m1 4
edge m1 o1 8
options:
policy detectors=1 mixers=8:1
transport_delay 3
pump_actuations 40
dedicated_pump_valves 3
disable_storage_passthrough false
max_ripups 8
disable_degradation false
place grid=12 mode=rolling-horizon batch=6 max_nodes=1024 solve_timeout_ns=120000000000 root_stride=2
place no_storage_overlap=false no_routing_convenient=false best_effort=false
wear_prior 30:5
backends anneal,greedy
anneal seed=5 replicates=8 iters=4000
faults:
none
`
	if canon != want {
		t.Errorf("canonical request changed:\n%s\nwant:\n%s", canon, want)
	}
}

package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/fault"
	"mfsynth/internal/grid"
)

// propertyProblem builds the mapping problem of a seeded random assay on a
// 12×12 chip, faulty (5%) or healthy. When a child's storage phase
// overlaps a live device parent, one such (child, parent) pair is
// forbidden as a repair iteration would forbid it; the zero pairKey means
// there was none.
func propertyProblem(t *testing.T, seed int64, faulty bool) (*problem, pairKey) {
	t.Helper()
	_, sched, _ := randomProblem(t, seed, assays.RandomOptions{MixOps: 6 + int(seed%7), MaxFanIn: 3, Detects: 1})
	cfg := Config{Grid: 12}
	if faulty {
		cfg.Faults = fault.Generate(seed, fault.GenOptions{Grid: 12, Rate: 0.05, KeepPorts: true})
	}
	pr, err := newProblem(sched, cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var forbid pairKey
	for _, c := range pr.ops {
		for _, p := range pr.parents[c] {
			if pr.storagePair(c, p) && pr.overlapsInTime(c, p) {
				forbid = pairKey{c, p}
			}
		}
	}
	if forbid != (pairKey{}) {
		pr.forbidden[forbid] = true
	}
	return pr, forbid
}

// annealCands lists op's candidates the way anneal's start enumerates
// them: on the full root lattice.
func annealCands(pr *problem, op int, fixed map[int]arch.Placement, relaxRC bool) []arch.Placement {
	return pr.candidates(op, fixed, candOpts{relaxRC: relaxRC, fullRoots: true})
}

// annealPrefix places a random prefix of the ops the way anneal's initial
// construction does (a random candidate, RC-relaxed when none is left),
// then lifts a few placed ops off the chip again, so the state also has
// unplaced parents of placed children.
func annealPrefix(pr *problem, rng *rand.Rand) map[int]arch.Placement {
	fixed := map[int]arch.Placement{}
	ops := pr.ops
	for _, op := range ops[:1+rng.Intn(len(ops))] {
		cands := annealCands(pr, op, fixed, false)
		if len(cands) == 0 {
			cands = annealCands(pr, op, fixed, true)
		}
		if len(cands) > 0 {
			fixed[op] = cands[rng.Intn(len(cands))]
		}
	}
	for _, op := range ops {
		if rng.Intn(4) == 0 {
			delete(fixed, op)
		}
	}
	return fixed
}

// TestAdmissibleMatchesCandidates is the property that ties the per-move
// check anneal uses to the enumeration greedy and the ILP use: for every
// unplaced op, shape and anchor, and both relaxRC values, admits accepts
// exactly the members of candidates. The states mix healthy and
// faulty chips and carry a forbidden storage pair, so the fault, overlap,
// storage and routing-convenient rules are all exercised.
func TestAdmissibleMatchesCandidates(t *testing.T) {
	probes, accepted, overlaps, forbidden := 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, faulty := range []bool{false, true} {
			pr, forbid := propertyProblem(t, seed, faulty)
			if forbid != (pairKey{}) {
				forbidden++
			}
			rng := rand.New(rand.NewSource(seed))
			for state := 0; state < 8; state++ {
				fixed := annealPrefix(pr, rng)
				for _, op := range pr.ops {
					if _, placed := fixed[op]; placed {
						continue
					}
					for _, relax := range []bool{false, true} {
						member := map[arch.Placement]bool{}
						for _, pl := range annealCands(pr, op, fixed, relax) {
							member[pl] = true
						}
						for _, s := range pr.shp[op] {
							area := pr.chip.PlacementArea(s)
							for y := area.Y0; y < area.Y1; y++ {
								for x := area.X0; x < area.X1; x++ {
									pl := arch.Placement{At: grid.Point{X: x, Y: y}, Shape: s}
									got := pr.admits(op, pl, fixed, relax)
									if got != member[pl] {
										t.Fatalf("seed %d faulty %v state %d: op %d at %v relaxRC %v: admits %v, in candidates %v",
											seed, faulty, state, op, pl, relax, got, member[pl])
									}
									probes++
									if got {
										accepted++
										if storageOverlap(pr, op, pl, fixed) {
											overlaps++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 || overlaps == 0 || forbidden == 0 {
		t.Fatalf("%d probes, %d admissible, %d storage overlaps, %d forbidden pairs: the states no longer exercise the rules",
			probes, accepted, overlaps, forbidden)
	}
	t.Logf("%d probes, %d admissible, %d storage overlaps, %d forbidden pairs", probes, accepted, overlaps, forbidden)
}

// storageOverlap reports whether op at pl shares a cell with a fixed
// device alive during op's window, which only the c5 relaxation admits.
func storageOverlap(pr *problem, op int, pl arch.Placement, fixed map[int]arch.Placement) bool {
	for j, q := range fixed {
		if pr.overlapsInTime(op, j) && pl.Footprint().Overlaps(q.Footprint()) {
			return true
		}
	}
	return false
}

// TestDeviceChildrenScan checks the children table against a brute-force
// scan of every op's device parents.
func TestDeviceChildrenScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		pr, _ := propertyProblem(t, seed, false)
		for _, op := range pr.ops {
			var want []int
			for _, c := range pr.ops {
				for _, p := range pr.parents[c] {
					if p == op {
						want = append(want, c)
					}
				}
			}
			if got := pr.children[op]; !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: children %v, scan %v", seed, op, got, want)
			}
		}
	}
}

// TestRingMatchesPlacementRing checks the allocation-free ring walk against
// arch.Placement.Ring for every fitting shape at a corner anchor.
func TestRingMatchesPlacementRing(t *testing.T) {
	pr, _ := propertyProblem(t, 3, false)
	g := pr.cfg.Grid
	for _, op := range pr.ops {
		for _, s := range pr.shp[op] {
			area := pr.chip.PlacementArea(s)
			pl := arch.Placement{At: grid.Point{X: area.X1 - 1, Y: area.Y1 - 1}, Shape: s}
			at, offs := pr.ring(pl)
			var got, want []string
			for _, off := range offs {
				got = append(got, fmt.Sprint(at+off))
			}
			for _, pt := range pl.Ring() {
				want = append(want, fmt.Sprint(pt.Y*g+pt.X))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Ring cells %v, want %v", pl, got, want)
			}
		}
	}
}

// TestNoRoutingConvenientDropsParentDistance: with constraints (13)-(16)
// dropped, a placement farther than d from its fixed device parent is
// admissible; with them kept, it is not.
func TestNoRoutingConvenientDropsParentDistance(t *testing.T) {
	sched := pcrSchedule(t)
	for _, drop := range []bool{false, true} {
		pr, err := newProblem(sched, Config{Grid: 12, NoRoutingConvenient: drop}.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		child, parent := -1, -1
		for _, op := range pr.ops {
			if ps := pr.parents[op]; len(ps) > 0 {
				child, parent = op, ps[0]
				break
			}
		}
		if child < 0 {
			t.Fatal("PCR has no op with a device parent")
		}
		s := pr.shp[parent][0]
		fixed := map[int]arch.Placement{parent: {At: grid.Point{X: 1, Y: 1}, Shape: s}}
		far := 0
		for _, pl := range annealCands(pr, child, fixed, true) {
			if pl.Footprint().Distance(fixed[parent].Footprint()) <= pr.d {
				continue
			}
			far++
			if got := pr.admits(child, pl, fixed, false); got != drop {
				t.Fatalf("NoRoutingConvenient %v: %v at distance %d > d = %d admissible %v",
					drop, pl, pl.Footprint().Distance(fixed[parent].Footprint()), pr.d, got)
			}
		}
		if far == 0 {
			t.Fatal("no candidate lies beyond the routing-convenient distance")
		}
	}
}

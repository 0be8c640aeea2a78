package place

import (
	"mfsynth/internal/arch"
	"mfsynth/internal/fault"
	"mfsynth/internal/grid"
)

// candOpts controls candidate enumeration.
type candOpts struct {
	// relaxRC ignores the routing-convenient pruning against fixed parents.
	relaxRC bool
	// rootOff shifts the thinned root-candidate lattice (multi-start).
	rootOff grid.Point
	// shapeRot rotates the shape preference order (multi-start).
	shapeRot int
	// fullRoots disables the root-lattice thinning (ILP models, so that
	// every greedy incumbent candidate is representable).
	fullRoots bool
}

// obstacle is a fixed device alive during the candidate op's window.
type obstacle struct {
	op int
	fp grid.Rect
}

// candidates lists the admissible placements of op given the already fixed
// placements, in eachCandidate's order.
func (pr *problem) candidates(op int, fixed map[int]arch.Placement, o candOpts) []arch.Placement {
	var out []arch.Placement
	pr.eachCandidate(op, fixed, o, func(pl arch.Placement) { out = append(out, pl) })
	return out
}

// eachCandidate calls visit with every admissible placement of op given the
// already fixed placements, in (shape preference, y, x) order. The rules,
// mirroring the ILP constraints against fixed context:
//
//   - the footprint and wall band fit on the chip;
//   - parentless operations use a thinned position lattice (RootStride);
//   - fixed devices whose windows overlap op's window must stay at
//     footprint distance ≥ 1 (shared wall allowed), except parent devices
//     that op's storage may overlap under the c5 relaxation — those only
//     admit overlaps that fit the storage's free space;
//   - fixed device parents keep op within the routing-convenient distance d
//     (constraints (13)-(16)) unless relaxRC or NoRoutingConvenient is set.
func (pr *problem) eachCandidate(op int, fixed map[int]arch.Placement, o candOpts, visit func(arch.Placement)) {
	var buf [32]obstacle // spills to the heap only past 32 live devices
	obstacles := buf[:0]
	for j, pl := range fixed {
		if j != op && pr.overlapsInTime(op, j) {
			obstacles = append(obstacles, obstacle{op: j, fp: pl.Footprint()})
		}
	}
	shapes := pr.shp[op]
	for k := range shapes {
		s := shapes[(k+o.shapeRot)%len(shapes)]
		area := pr.chip.PlacementArea(s)
		stride := 1
		x0, y0 := area.X0, area.Y0
		if len(pr.parents[op]) == 0 && !o.fullRoots && pr.cfg.RootStride > 1 {
			stride = pr.cfg.RootStride
			x0 += o.rootOff.X % stride
			y0 += o.rootOff.Y % stride
		}
		for y := y0; y < area.Y1; y += stride {
			for x := x0; x < area.X1; x += stride {
				pl := arch.Placement{At: grid.Point{X: x, Y: y}, Shape: s}
				if pr.admissible(op, pl, fixed, obstacles, o.relaxRC) {
					visit(pl)
				}
			}
		}
	}
}

// admissible checks one placement of op against fixed context: the
// routing-convenient distance to op's fixed device parents (unless
// relaxRC, or the config drops constraints (13)-(16)), the fault rules,
// and clearance from every obstacle. Candidate enumeration lists the
// obstacles once for all positions.
func (pr *problem) admissible(op int, pl arch.Placement, fixed map[int]arch.Placement, obstacles []obstacle, relaxRC bool) bool {
	fp := pl.Footprint()
	if !relaxRC && !pr.cfg.NoRoutingConvenient && !pr.nearParents(op, fp, fixed) {
		return false
	}
	if !pr.faultAdmissible(pl) {
		return false
	}
	for _, ob := range obstacles {
		if !pr.clear(op, fp, ob.op, ob.fp) {
			return false
		}
	}
	return true
}

// nearParents reports whether a device of op at footprint fp lies within
// the routing-convenient distance d of each of op's fixed device parents.
func (pr *problem) nearParents(op int, fp grid.Rect, fixed map[int]arch.Placement) bool {
	for _, p := range pr.parents[op] {
		if ppl, ok := fixed[p]; ok && fp.Distance(ppl.Footprint()) > pr.d {
			return false
		}
	}
	return true
}

// admits checks one placement of op against the fixed context, the
// per-move form of eachCandidate for a search that probes one placement
// instead of enumerating the lattice: the fault, non-overlap,
// storage-overlap and parent-side routing-convenient rules apply. The
// anchor must lie in the shape's placement area; the child side is
// nearChildren's.
func (pr *problem) admits(op int, pl arch.Placement, fixed map[int]arch.Placement, relaxRC bool) bool {
	if !pr.admissible(op, pl, fixed, nil, relaxRC) {
		return false
	}
	fp := pl.Footprint()
	for j, jpl := range fixed {
		if j != op && pr.overlapsInTime(op, j) && !pr.clear(op, fp, j, jpl.Footprint()) {
			return false
		}
	}
	return true
}

// nearChildren reports whether op at pl keeps each fixed on-chip device
// child within the routing-convenient distance. Candidate enumeration never
// needs it (parents are placed before their children), but a search that
// relocates a placed parent does. Ops in exempt, whose coupling was
// relaxed, are not held to it, on either side.
func (pr *problem) nearChildren(op int, pl arch.Placement, fixed map[int]arch.Placement, exempt map[int]bool) bool {
	if pr.cfg.NoRoutingConvenient || exempt[op] {
		return true
	}
	fp := pl.Footprint()
	for _, c := range pr.children[op] {
		if cpl, ok := fixed[c]; ok && !exempt[c] && fp.Distance(cpl.Footprint()) > pr.d {
			return false
		}
	}
	return true
}

// clear reports whether a device of op at footprint fp may coexist with the
// time-overlapping fixed device j at jfp: at footprint distance ≥ 1 (shared
// wall allowed), or overlapping a parent device that op's storage may
// overlap under the c5 relaxation, within the storage's free space. The
// free-space test pre-filters what the repair loop would reject, so most
// repair iterations are avoided.
func (pr *problem) clear(op int, fp grid.Rect, j int, jfp grid.Rect) bool {
	if fp.Distance(jfp) >= 1 {
		return true
	}
	if !pr.storagePair(op, j) {
		return false
	}
	w := pr.win[j]
	return pr.stor[op].CanOverlap(fp.OverlapArea(jfp), w[0], w[1])
}

// faultAdmissible checks a placement against the configured fault set by
// cell role. A stuck-closed valve may appear nowhere in the footprint (the
// chamber must hold and move fluid), but is fine in the wall band — a wall
// cell's job is to stay closed. A stuck-open valve cannot realise a closed
// state, so it is rejected on the pump ring and in the wall band, but
// tolerated in the footprint interior, where chamber cells are held open.
// Since candidate enumeration feeds both the greedy mapper and the ILP's
// variable generation, rejecting a placement here is equivalent to a
// forbidding constraint in the model.
func (pr *problem) faultAdmissible(pl arch.Placement) bool {
	if len(pr.faults) == 0 {
		return true
	}
	fp := pl.Footprint()
	wall := pl.WallBox()
	for _, f := range pr.faults {
		if !wall.Contains(f.At) {
			continue
		}
		switch f.Kind {
		case fault.StuckClosed:
			if fp.Contains(f.At) {
				return false
			}
		case fault.StuckOpen:
			onRing := fp.Contains(f.At) &&
				(f.At.X == fp.X0 || f.At.X == fp.X1-1 || f.At.Y == fp.Y0 || f.At.Y == fp.Y1-1)
			inWallBand := !fp.Contains(f.At) // within wall box but outside footprint
			if onRing || inWallBand {
				return false
			}
		}
	}
	return true
}

package place

import (
	"mfsynth/internal/arch"
	"mfsynth/internal/grid"
	"mfsynth/internal/schedule"
)

// Instance is the exported constraint-checking surface of one mapping
// problem, for external mappers (internal/anneal) that search over
// placements themselves but must agree with this package on what a legal
// placement is. Every admissibility rule — chip fit, fault filtering,
// non-overlap with time-overlapping devices, the c5 storage-overlap
// relaxation and the routing-convenient distance — is evaluated by the
// same code paths the greedy mapper and the ILP candidate generation use,
// so a state an Instance accepts is a state place.MapCtx could have
// produced.
//
// An Instance is immutable after construction and safe for concurrent use
// by multiple goroutines (simulated-annealing replicates share one).
type Instance struct {
	pr *problem
}

// NewInstance builds the mapping problem for a scheduled assay. The config
// is resolved exactly as MapCtx resolves it (grid, root stride, fault set,
// ablation switches all apply).
func NewInstance(res *schedule.Result, cfg Config) (*Instance, error) {
	pr, err := newProblem(res, cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return &Instance{pr: pr}, nil
}

// Ops returns the on-chip operations in device-creation order — the order
// constructive mappers place them in.
func (in *Instance) Ops() []int { return in.pr.ops }

// IsPump reports whether op contributes peristaltic load (a mixing op).
func (in *Instance) IsPump(op int) bool { return in.pr.pump[op] }

// OpName returns the assay name of op, for error messages.
func (in *Instance) OpName(op int) string { return in.pr.res.Assay.Op(op).Name }

// Grid is the resolved valve matrix side length: per-valve loads are flat
// Grid×Grid slices indexed y·Grid+x.
func (in *Instance) Grid() int { return in.pr.cfg.Grid }

// Ring returns pl's pump-ring cells as load indices without allocating:
// cell k is at+offs[k] (y·Grid+x), in the order of arch.Placement.Ring. pl
// must use one of the op's Shapes; offs is shared and must not be modified.
func (in *Instance) Ring(pl arch.Placement) (at int, offs []int) { return in.pr.ring(pl) }

// RCDist is the routing-convenient distance d of constraints (13)-(16).
func (in *Instance) RCDist() int { return in.pr.d }

// Shapes lists the chip-fitting device shapes of op.
func (in *Instance) Shapes(op int) []arch.Shape { return in.pr.shp[op] }

// PlacementArea returns the anchor positions where shape s fits on the
// chip (wall band included).
func (in *Instance) PlacementArea(s arch.Shape) grid.Rect {
	return in.pr.chip.PlacementArea(s)
}

// DeviceParents lists op's on-chip device parents — the operations whose
// products op consumes and that are subject to the routing-convenient
// coupling (empty when the config drops constraints (13)-(16)). The slice
// is shared by every caller and must not be modified.
func (in *Instance) DeviceParents(op int) []int {
	if in.pr.cfg.NoRoutingConvenient {
		return nil
	}
	return in.pr.parents[op]
}

// DeviceChildren lists the on-chip operations that have op as a device
// parent, in creation order. Moving op must keep these within the
// routing-convenient distance; the constructive mappers never needed the
// check (parents are always placed before children), so candidate
// enumeration only prunes against parents and a search that relocates an
// already-placed parent has to enforce the child side itself. The slice is
// shared by every caller and must not be modified.
func (in *Instance) DeviceChildren(op int) []int {
	if in.pr.cfg.NoRoutingConvenient {
		return nil
	}
	return in.pr.children[op]
}

// Candidates enumerates every admissible placement of op against the fixed
// context, sorted deterministically (shape preference, then row-major).
// With relaxRC the routing-convenient pruning against fixed parents is
// dropped — the same fallback the greedy mapper and the ILP use when the
// constrained set is empty.
func (in *Instance) Candidates(op int, fixed map[int]arch.Placement, relaxRC bool) []arch.Placement {
	return in.pr.candidates(op, fixed, candOpts{relaxRC: relaxRC, fullRoots: true})
}

// Admissible checks a single placement of op against the fixed context —
// the per-move form of Candidates for searches that probe one random
// placement instead of enumerating the lattice. The footprint must fit the
// chip (anchor within PlacementArea of pl.Shape), and the same fault,
// non-overlap, storage-overlap and parent-side routing-convenient rules as
// Candidates apply. The child-side coupling is NOT checked here; callers
// that move parents combine this with RCWithChildren.
func (in *Instance) Admissible(op int, pl arch.Placement, fixed map[int]arch.Placement, relaxRC bool) bool {
	pr := in.pr
	if !pr.chip.PlacementArea(pl.Shape).Contains(pl.At) || !pr.admissible(op, pl, fixed, nil, relaxRC) {
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

// RCWithChildren reports whether placing op at pl keeps every fixed
// on-chip device child within the routing-convenient distance. Children
// listed in exempt (ops whose RC coupling was relaxed at construction)
// are skipped, as is everything when op itself is exempt or the config
// drops the constraints.
func (in *Instance) RCWithChildren(op int, pl arch.Placement, fixed map[int]arch.Placement, exempt map[int]bool) bool {
	if in.pr.cfg.NoRoutingConvenient || exempt[op] {
		return true
	}
	fp := pl.Footprint()
	for _, c := range in.DeviceChildren(op) {
		if exempt[c] {
			continue
		}
		cpl, ok := fixed[c]
		if !ok {
			continue
		}
		if fp.Distance(cpl.Footprint()) > in.pr.d {
			return false
		}
	}
	return true
}

// Finish assembles the Mapping (windows, storage timelines, MaxPumpOps,
// Dropped) from a complete or partial placement assignment, exactly as the
// internal mappers do.
func (in *Instance) Finish(fixed map[int]arch.Placement, stats Stats) *Mapping {
	return in.pr.finishMapping(fixed, stats)
}

// StorageViolations counts the (child, parent) storage-overlap pairs of
// the mapping that exceed the storage's free space — the Algorithm 1 L6
// check. States built exclusively from Admissible placements always
// report zero (the candidate pre-filter runs the same free-space test);
// external mappers use this as a final defensive audit.
func (in *Instance) StorageViolations(m *Mapping) int {
	return len(in.pr.storageViolations(m))
}

// Package place implements the paper's dynamic-device mapping (Section
// 3.2): every scheduled on-chip operation is mapped to a device location,
// shape and orientation on the valve-centered architecture so that the
// largest number of peristaltic valve actuations is minimised, subject to
// the non-overlap constraints (3)-(8), the storage-overlap relaxation (12)
// and the routing-convenient constraints (13)-(16).
//
// Three modes of MapCtx are provided:
//
//   - Monolithic: the paper's ILP, one model for the whole assay, solved by
//     the internal branch-and-bound solver. Exact but only tractable for
//     PCR-sized cases with a from-scratch MILP solver.
//   - RollingHorizon (default): the same constraint system solved over
//     batches of operations in device-creation order, with earlier
//     placements fixed and their peristaltic load carried as constants.
//     Monolithic is its one batch of every operation.
//   - Greedy: a constructive heuristic used as the solver incumbent, as a
//     candidate beside the ILP and as an ablation baseline.
//
// Anneal is the fourth mapper, seeded simulated annealing. Greedy's runs
// and anneal's replicates share one search state and one cost order
// (state.go). Each mapper returns its own mapping; choosing between the
// mappings of different producers is internal/core's job.
//
// The storage free-space repair loop of Algorithm 1 (L4-L9) wraps the three
// modes: overlaps between a storage and a parent device that exceed the
// storage's free space are forbidden and the mapping re-runs. The annealer
// admits only placements that pass the free-space test, so it needs none.
package place

import (
	"context"
	"fmt"
	"time"

	"mfsynth/internal/arch"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/milp"
	"mfsynth/internal/obs"
	"mfsynth/internal/schedule"
	"mfsynth/internal/storage"
	"mfsynth/internal/synerr"
)

// Mode selects the mapping algorithm.
type Mode int

// Mapping algorithms.
const (
	// RollingHorizon solves the ILP over creation-ordered batches.
	RollingHorizon Mode = iota
	// Monolithic solves the paper's single ILP over all operations.
	Monolithic
	// Greedy places operations one by one without search.
	Greedy
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case RollingHorizon:
		return "rolling-horizon"
	case Monolithic:
		return "monolithic"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config tunes the mapper.
type Config struct {
	// Grid is the valve matrix side length.
	Grid int
	// Mode selects the algorithm (default RollingHorizon).
	Mode Mode
	// BatchSize is the rolling-horizon batch length (default 6).
	BatchSize int
	// MaxNodes bounds branch-and-bound nodes per ILP (default 1024). It is
	// the primary give-up budget for models the search cannot crack (core's
	// fallback tiers then relax the model or revert to greedy):
	// machine-independent, deterministic, and — with warm-started node
	// solves — cheap to exhaust. SolveTimeout is the wall-clock backstop.
	MaxNodes int
	// SolveTimeout bounds each ILP solve (default 120s). It is a loose
	// wall-clock backstop: MaxNodes is meant to bind first, so that the
	// point where a hopeless search gives up is deterministic and the
	// work counters the perf gate tracks are machine-independent.
	SolveTimeout time.Duration
	// RootStride thins the candidate lattice for operations without placed
	// parents (default 2; 1 = every position).
	RootStride int
	// NoStorageOverlap disables the c5 relaxation entirely (ablation):
	// storages may never overlap their parent devices.
	NoStorageOverlap bool
	// NoRoutingConvenient drops constraints (13)-(16) (ablation): no
	// operation is kept within distance d of its device parents, neither
	// fixed ones in candidate enumeration nor free ones in the ILP.
	NoRoutingConvenient bool
	// Obs, when non-nil, is the parent span the mapper reports under:
	// per-repair-iteration spans, per-batch ILP spans, multi-start greedy
	// spans, and the place.* metrics. Observation never changes results.
	Obs *obs.Span
	// Faults excludes defective valves from the mapping: stuck-closed
	// cells may not lie in any footprint (and hence no ring or storage),
	// and stuck-open cells may not serve as ring or wall-band cells.
	// Filtering happens in candidate enumeration, which is also what makes
	// the ILP fault-aware: an excluded candidate is a forbidding
	// constraint the model never has to express. Nil means a fault-free
	// chip and costs one nil check.
	Faults *fault.Set
	// BestEffort makes the greedy mapper skip operations with no feasible
	// placement instead of failing, recording them in Mapping.Dropped —
	// core's last fallback tier. Only the greedy paths honour it; the ILP
	// modes still require a complete assignment.
	BestEffort bool
	// WearPrior, when non-nil, is a Grid×Grid row-major matrix (index
	// y·Grid+x) of prior per-valve pump load in per-operation units — the
	// chip's cumulative past actuations divided by the per-operation
	// actuation count. The mappers seed their per-valve load accumulation
	// from it, so the minimised objective becomes the *lifetime* maximum
	// load rather than this run's: new duty is steered onto lightly-worn
	// valves. A nil or all-zero prior is bit-identical to a fresh chip,
	// and Mapping.MaxPumpOps always reports this run's load only.
	WearPrior []int

	// coldLP disables the branch-and-bound warm-start machinery
	// (milp.Options.ColdLP): every node pays a from-scratch LP solve. Both
	// modes are exact searches that agree on final incumbents and statuses,
	// hence on placements; only the warm-versus-cold test sets it.
	coldLP bool
	// acceptHook, when non-nil, receives every state an Anneal replicate
	// accepts, the initial construction included: the property tests'
	// audit that accepted states stay conformant. The map must not be
	// retained or mutated; clone what you keep. Only sensible with one
	// worker (concurrent replicates would interleave calls).
	acceptHook func(fixed map[int]arch.Placement)
}

// WithDefaults returns the config with every zero field replaced by its
// default; the mappers resolve their config through it.
func (c Config) WithDefaults() Config {
	if c.Grid == 0 {
		c.Grid = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 6
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 1024
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 120 * time.Second
	}
	if c.RootStride == 0 {
		c.RootStride = 2
	}
	return c
}

// Mapping is the dynamic-device mapping result.
type Mapping struct {
	// Placements maps each on-chip operation to its device.
	Placements map[int]arch.Placement
	// Windows gives each device's lifetime [from, to) including the in situ
	// storage phase.
	Windows map[int][2]int
	// Storages holds the in situ storage timeline per operation (nil for
	// operations whose inputs all come from ports).
	Storages map[int]*storage.Timeline
	// MaxPumpOps is the largest number of mixing operations any single
	// valve pumps for — the ILP objective w in per-operation units.
	// Multiply by the per-operation pump actuation count (40 in the
	// paper's setting 1) for the actuation figure.
	MaxPumpOps int
	// Dropped lists operations (ascending IDs) that found no feasible
	// placement and were skipped under Config.BestEffort. Empty on
	// complete mappings.
	Dropped []int
	// Stats describes the solve.
	Stats Stats
}

// Stats reports how the mapping was obtained.
type Stats struct {
	// ILPNodes is the total number of branch-and-bound nodes.
	ILPNodes int
	// ILPSolves is the number of ILP models built and solved.
	ILPSolves int
	// Certified counts ILP batches whose greedy mapping met PumpBound, so
	// no model was built: nothing could lower their largest pump load.
	Certified int
	// Repairs is the number of storage-overlap repair iterations.
	Repairs int
	// RCRelaxed counts operations whose routing-convenient constraints had
	// to be dropped to keep the model feasible.
	RCRelaxed int
	// Exact is true when every ILP batch finished with a proven optimum,
	// by the solver or by the counting bound.
	Exact bool
	// NoIncumbent counts branch-and-bound solves that exhausted their node
	// budget without ever holding an incumbent (milp status Limit) — the
	// hard instances the other candidates exist for. The per-batch
	// fallbacks (relaxed model, greedy) usually still produce a mapping,
	// so a non-zero count with a successful result means the ILP's search
	// was beaten, not the run.
	NoIncumbent int
}

// Map runs the configured mapper with the Algorithm 1 repair loop.
func Map(res *schedule.Result, cfg Config) (*Mapping, error) {
	return MapCtx(context.Background(), res, cfg)
}

// MapCtx is Map with cancellation: ctx is checked between repair
// iterations, per rolling batch and per branch-and-bound node, so a
// cancelled mapping returns a synerr.ErrDeadline-compatible error instead
// of finishing the current solve.
func MapCtx(ctx context.Context, res *schedule.Result, cfg Config) (*Mapping, error) {
	cfg = cfg.WithDefaults()
	pr, err := newProblem(res, cfg)
	if err != nil {
		return nil, err
	}
	pr.ctx = ctx
	const maxRepairs = 16
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, synerr.Deadline("place", err)
		}
		iterSp := cfg.Obs.Start("place.iter",
			obs.KV("iter", iter), obs.KV("mode", cfg.Mode.String()))
		var m *Mapping
		var err error
		switch cfg.Mode {
		case Monolithic:
			m, err = pr.solveRolling(iterSp, len(pr.ops))
		case Greedy:
			m, err = pr.solveGreedy(iterSp)
		default:
			m, err = pr.solveRolling(iterSp, cfg.BatchSize)
		}
		if err != nil {
			iterSp.End()
			return nil, err
		}
		m.Stats.Repairs = iter
		bad := pr.storageViolations(m)
		iterSp.Set(obs.KV("violations", len(bad)))
		iterSp.End()
		if len(bad) == 0 {
			pr.flushObs(m)
			return m, nil
		}
		if iter >= maxRepairs {
			return nil, synerr.Infeasible("place", "storage repair did not converge after %d iterations", maxRepairs)
		}
		cfg.Obs.Metrics().Counter("place_repairs_total").Inc()
		for _, pair := range bad {
			pr.forbidden[pair] = true
		}
	}
}

// flushObs records the accepted mapping's solve statistics as metrics and
// attributes on the mapper's parent span.
func (pr *problem) flushObs(m *Mapping) {
	sp := pr.cfg.Obs
	mm := sp.Metrics()
	if mm == nil {
		return
	}
	mm.Counter("place_ilp_solves_total").Add(int64(m.Stats.ILPSolves))
	mm.Counter("place_certified_total").Add(int64(m.Stats.Certified))
	mm.Counter("place_ilp_nodes_total").Add(int64(m.Stats.ILPNodes))
	mm.Counter("place_rc_relaxed_total").Add(int64(m.Stats.RCRelaxed))
	sp.Set(obs.KV("mode", pr.cfg.Mode.String()),
		obs.KV("repairs", m.Stats.Repairs),
		obs.KV("ilp_nodes", m.Stats.ILPNodes),
		obs.KV("certified", m.Stats.Certified),
		obs.KV("max_pump_ops", m.MaxPumpOps),
		obs.KV("exact", m.Stats.Exact))
}

// pairKey identifies a (child, parent) overlap permission.
type pairKey struct{ child, parent int }

// problem is the shared mapping state. Every static fact of the problem is
// built once by newProblem into a table indexed by assay op ID (0..Len-1)
// and is read-only afterwards, so anneal's replicates share one problem
// concurrently; only forbidden changes, between repair iterations.
type problem struct {
	res *schedule.Result
	cfg Config
	ctx context.Context // cancellation; context.Background() via Map

	chip *arch.Chip
	ops  []int // on-chip operations in device-creation order
	d    int   // routing-convenient distance

	// Per-op tables; entries of off-chip ops (inputs, outputs) stay zero.
	win      [][2]int // device lifetime incl. storage phase
	vol      []int    // device ring volume
	shp      [][]arch.Shape
	pump     []bool // contributes peristaltic load (mix ops)
	stor     []*storage.Timeline
	parents  [][]int // device parents (graph.Assay.DeviceParents)
	children [][]int // on-chip device children, in creation order
	siblings [][]int // the other device parents of op's on-chip children
	inLoads  []int   // edges from input ports into op
	leaf     []bool  // op's product drains to the output port

	// ringOffs holds each fitting shape's ring cells as offsets from the
	// anchor's load index, indexed like a cell by (W, H): see ring.
	ringOffs [][]int
	// faults is Config.Faults sorted by (Y, X), listed once.
	faults []fault.Fault

	forbidden map[pairKey]bool // (child,parent) pairs that may not overlap

	// prior is Config.WearPrior, or nil when it carries no load, so the
	// wear-aware paths cost one nil check on a fresh chip.
	prior []int

	// arenas carries the branch-and-bound solver state (tableau arenas,
	// warm-start lanes, snapshot pool) across every ILP solve of this
	// mapping — the rolling-horizon windows reuse buffers instead of
	// reallocating them per batch.
	arenas *milp.Arenas
}

func newProblem(res *schedule.Result, cfg Config) (*problem, error) {
	a := res.Assay
	n, g := a.Len(), cfg.Grid
	pr := &problem{
		res:       res,
		cfg:       cfg,
		ctx:       context.Background(),
		chip:      arch.NewChip(g, g),
		win:       make([][2]int, n),
		vol:       make([]int, n),
		shp:       make([][]arch.Shape, n),
		pump:      make([]bool, n),
		stor:      make([]*storage.Timeline, n),
		parents:   make([][]int, n),
		children:  make([][]int, n),
		siblings:  make([][]int, n),
		inLoads:   make([]int, n),
		leaf:      make([]bool, n),
		ringOffs:  make([][]int, g*g),
		faults:    cfg.Faults.Faults(),
		forbidden: map[pairKey]bool{},
		arenas:    milp.NewArenas(),
	}
	if len(cfg.WearPrior) != 0 {
		if len(cfg.WearPrior) != g*g {
			return nil, fmt.Errorf("place: WearPrior has %d entries, want %d for a %dx%d grid",
				len(cfg.WearPrior), g*g, g, g)
		}
		for i, v := range cfg.WearPrior {
			if v < 0 {
				return nil, fmt.Errorf("place: WearPrior[%d] is negative (%d)", i, v)
			}
			if v > 0 {
				pr.prior = cfg.WearPrior
			}
		}
	}
	var volumes []int
	for _, id := range res.OpsByCreation() {
		op := a.Op(id)
		if op.Kind == graph.Output {
			continue // outputs drain to a port; no device
		}
		v := DeviceVolume(a.Volume(id))
		shapes := arch.ShapesForVolume(v)
		if len(shapes) == 0 {
			return nil, synerr.Infeasible("place", "op %s has no shapes for volume %d", op.Name, v)
		}
		// Keep only shapes that fit on the chip.
		var fit []arch.Shape
		for _, s := range shapes {
			if !pr.chip.PlacementArea(s).Empty() {
				fit = append(fit, s)
			}
		}
		if len(fit) == 0 {
			return nil, synerr.Infeasible("place", "op %s (volume %d) does not fit a %dx%d chip",
				op.Name, v, g, g)
		}
		for _, s := range fit {
			if k := s.H*g + s.W; pr.ringOffs[k] == nil {
				for _, pt := range (arch.Placement{Shape: s}).Ring() {
					pr.ringOffs[k] = append(pr.ringOffs[k], pt.Y*g+pt.X)
				}
			}
		}
		pr.ops = append(pr.ops, id)
		from, to := res.DeviceWindow(id)
		pr.win[id] = [2]int{from, to}
		pr.vol[id] = v
		pr.shp[id] = fit
		pr.pump[id] = op.Kind == graph.Mix
		pr.stor[id] = storage.NewTimeline(res, id, v)
		pr.parents[id] = a.DeviceParents(id)
		for _, e := range a.In(id) {
			if a.Op(e.From).Kind == graph.Input {
				pr.inLoads[id]++
			}
		}
		pr.leaf[id] = len(a.Out(id)) == 0
		volumes = append(volumes, v)
	}
	if len(pr.ops) == 0 {
		return nil, synerr.Infeasible("place", "assay %q has no on-chip operations", a.Name)
	}
	for _, c := range pr.ops {
		for _, p := range pr.parents[c] {
			pr.children[p] = append(pr.children[p], c)
		}
	}
	for _, op := range pr.ops {
		seen := map[int]bool{op: true}
		for _, child := range a.Children(op) {
			if !pr.onChip(child) {
				continue
			}
			for _, p := range pr.parents[child] {
				if !seen[p] {
					seen[p] = true
					pr.siblings[op] = append(pr.siblings[op], p)
				}
			}
		}
	}
	pr.d = arch.MinShapeDim(volumes)
	return pr, nil
}

// DeviceVolume returns the ring volume of the device executing an operation
// with the given fluid volume: at least 4 and even (a ring needs a 2×2
// block and lattice rings have even length).
func DeviceVolume(fluid int) int {
	v := fluid
	if v%2 == 1 {
		v++
	}
	if v < 4 {
		v = 4
	}
	return v
}

// seedPump returns the per-valve load every solve starts from, as a flat
// Grid×Grid slice indexed y·Grid+x: a copy of the wear prior, or zeros on
// a fresh chip.
func (pr *problem) seedPump() []int {
	out := make([]int, pr.cfg.Grid*pr.cfg.Grid)
	copy(out, pr.prior)
	return out
}

// wearAware reports whether a wear prior is steering this mapping.
func (pr *problem) wearAware() bool { return pr.prior != nil }

// onChip reports whether op occupies a device (every op but inputs and
// outputs).
func (pr *problem) onChip(op int) bool { return pr.shp[op] != nil }

// ring returns pl's pump-ring cells as indices into a flat load slice
// without allocating: cell k is at+offs[k], in the row-major order of
// arch.Placement.Ring. offs is shared and must not be modified.
func (pr *problem) ring(pl arch.Placement) (at int, offs []int) {
	g := pr.cfg.Grid
	return pl.At.Y*g + pl.At.X, pr.ringOffs[pl.Shape.H*g+pl.Shape.W]
}

// overlapsInTime reports whether the device windows of a and b intersect.
func (pr *problem) overlapsInTime(a, b int) bool {
	wa, wb := pr.win[a], pr.win[b]
	return wa[0] < wb[1] && wb[0] < wa[1]
}

// storagePair reports whether (child, parent) is a pair where the child's
// in situ storage may overlap the parent's device under the c5 relaxation:
// parent is a device parent of child, the child has a storage phase, and
// the pair was not forbidden by a repair iteration.
func (pr *problem) storagePair(child, parent int) bool {
	if pr.cfg.NoStorageOverlap || pr.stor[child] == nil {
		return false
	}
	if pr.forbidden[pairKey{child, parent}] {
		return false
	}
	for _, p := range pr.parents[child] {
		if p == parent {
			return true
		}
	}
	return false
}

// rcPairs lists the (parent, child) pairs subject to the routing-convenient
// constraints: device parents and their consumers.
func (pr *problem) rcPairs() [][2]int {
	if pr.cfg.NoRoutingConvenient {
		return nil
	}
	var out [][2]int
	for _, id := range pr.ops {
		for _, p := range pr.parents[id] {
			if pr.onChip(p) {
				out = append(out, [2]int{p, id})
			}
		}
	}
	return out
}

// storageViolations simulates the storage fill levels against the mapping
// and returns the (child, parent) pairs whose overlap exceeds free space —
// the check of Algorithm 1 L6.
func (pr *problem) storageViolations(m *Mapping) []pairKey {
	var bad []pairKey
	for _, id := range pr.ops {
		tl := pr.stor[id]
		if tl == nil {
			continue
		}
		child, ok := m.Placements[id]
		if !ok {
			continue
		}
		for _, p := range pr.parents[id] {
			parent, ok := m.Placements[p]
			if !ok {
				continue
			}
			area := child.Footprint().OverlapArea(parent.Footprint())
			if area == 0 {
				continue
			}
			// The parent occupies the shared cells until it finishes.
			pw := pr.win[p]
			if !tl.CanOverlap(area, pw[0], pw[1]) {
				bad = append(bad, pairKey{id, p})
			}
		}
	}
	return bad
}

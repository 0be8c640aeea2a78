package place

import (
	"sort"

	"mfsynth/internal/arch"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/storage"
	"mfsynth/internal/synerr"
)

// greedyRuns is the number of multi-start variants tried: combinations of
// root-lattice offsets and shape-preference rotations, each with and
// without port attraction (compact runs shorten routing and reduce #v;
// unconstrained runs sometimes spread the pump load better — the primary
// max-pump key picks whichever wins).
const greedyRuns = 32

// greedyState carries one constructive run: the shared search state and
// the variant's knobs.
type greedyState struct {
	state
	greedyVariant
	// wearAware selects cost.less's wear-prior key order.
	wearAware bool
}

// solveGreedy is the standalone greedy mapper: a multi-start constructive
// heuristic over all operations. When no main-phase variant places every
// operation, the packing phase still may: the drop-tolerant run reaches
// it, and its result is kept whenever it drops nothing.
func (pr *problem) solveGreedy(sp *obs.Span) (*Mapping, error) {
	fixed, c, err := pr.multiStartGreedy(sp, pr.ops, map[int]arch.Placement{}, pr.seedPump())
	if err != nil && !pr.cfg.BestEffort {
		tolerant := *pr
		tolerant.cfg.BestEffort = true
		if full, tc, terr := tolerant.multiStartGreedy(sp, pr.ops, map[int]arch.Placement{}, pr.seedPump()); terr == nil && len(full) == len(pr.ops) {
			fixed, c, err = full, tc, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return pr.finishMapping(fixed, Stats{RCRelaxed: c.rcRelaxed}), nil
}

// greedyVariant is one multi-start knob combination. Variants are built as
// an explicit deduplicated list, so the multi-start loop never runs the
// same combination twice.
type greedyVariant struct {
	rootOff  grid.Point
	shapeRot int
	noPull   bool // disable port attraction
	// packLimit, when positive, switches the scoring into packing mode:
	// placements may load valves up to this limit and prefer already-used
	// valves, minimising the number of manufactured valves at equal
	// worst-case wear.
	packLimit int
}

// greedyVariants enumerates the multi-start knob combinations in the
// legacy run order, skipping duplicate (rootOff, shapeRot, noPull) tuples
// (the run/2 derivation re-visits offsets once the mixed-radix range is
// exhausted, e.g. with RootStride 1 every offset is {0,0}).
func (pr *problem) greedyVariants(runs int, withPull bool, packLimit int) []greedyVariant {
	stride := pr.cfg.RootStride
	if stride < 1 {
		stride = 1
	}
	seen := map[greedyVariant]bool{}
	out := make([]greedyVariant, 0, runs)
	for run := 0; run < runs; run++ {
		v := run
		if withPull {
			v = run / 2
		}
		gv := greedyVariant{
			rootOff:   grid.Point{X: v % stride, Y: (v / stride) % stride},
			shapeRot:  v / (stride * stride),
			packLimit: packLimit,
		}
		if withPull {
			gv.noPull = run%2 == 1
		}
		if seen[gv] {
			continue
		}
		seen[gv] = true
		out = append(out, gv)
	}
	return out
}

// runVariant executes one constructive run; nil state means infeasible.
func (pr *problem) runVariant(gv greedyVariant, free []int, fixed map[int]arch.Placement, pump []int) (*greedyState, error) {
	st := &greedyState{state: newState(fixed, pump), greedyVariant: gv, wearAware: pr.wearAware()}
	for _, op := range free {
		if err := pr.greedyPlace(st, op); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// greedyDone is the multi-start early-exit rule: nothing can beat a
// complete mapping with one pump use per valve and no relaxations.
func greedyDone(st *greedyState) bool {
	return st != nil && st.dropped == 0 && st.maxPump <= 1 && st.rcRelaxed == 0
}

// multiStartGreedy places the free operations on top of the fixed context,
// trying several deterministic variants (root-lattice offsets × shape-order
// rotations) and keeping the best by cost; it returns the winner's
// placements and cost.
func (pr *problem) multiStartGreedy(sp *obs.Span, free []int, fixed map[int]arch.Placement, pump []int) (map[int]arch.Placement, cost, error) {
	variants := pr.greedyVariants(greedyRuns, true, 0)
	gsp := sp.Start("place.greedy",
		obs.KV("ops", len(free)), obs.KV("variants", len(variants)))
	best, firstErr := pr.bestVariant(variants, nil, true, free, fixed, pump)
	if best == nil {
		gsp.Set(obs.KV("error", "infeasible"))
		gsp.End()
		return nil, cost{}, firstErr
	}
	// Packing phase: with the achievable worst-case load known, re-place
	// while preferring already-actuated valves up to that load — the same
	// worst-case wear with fewer manufactured valves. Pointless at load 1,
	// where every ring is necessarily fresh, and skipped under a wear
	// prior, where concentrating duty on already-actuated valves is the
	// opposite of the balancing the prior asks for.
	if best.maxPump > 1 && !pr.wearAware() {
		packing := pr.greedyVariants(greedyRuns/2, false, best.maxPump)
		best, _ = pr.bestVariant(packing, best, false, free, fixed, pump)
	}
	gsp.Set(obs.KV("max_pump", best.maxPump), obs.KV("rc_relaxed", best.rcRelaxed))
	gsp.End()
	gsp.Metrics().Counter("place_greedy_runs_total").Add(int64(len(variants)))
	return best.fixed, best.cost, nil
}

// bestVariant runs the variants in order and keeps the first state that
// beats the incumbent. When earlyExit is set (the main phase; the packing
// phase has none) it stops at the first incumbent that meets greedyDone,
// skipping the remaining runs.
func (pr *problem) bestVariant(variants []greedyVariant, best *greedyState, earlyExit bool, free []int, fixed map[int]arch.Placement, pump []int) (*greedyState, error) {
	var firstErr error
	for _, gv := range variants {
		st, err := pr.runVariant(gv, free, fixed, pump)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || st.better(best) {
			best = st
		}
		if earlyExit && greedyDone(best) {
			break
		}
	}
	return best, firstErr
}

// better orders completed runs by cost; among equal costs it prefers the
// compact (port-attracted) run, which needs fewer control valves.
func (st *greedyState) better(o *greedyState) bool {
	if st.cost != o.cost {
		return st.cost.less(o.cost, st.wearAware)
	}
	return !st.noPull && o.noPull
}

// greedyPlace maps one operation within a run.
func (pr *problem) greedyPlace(st *greedyState, op int) error {
	pl, relaxed, err := pr.greedyPick(op, st)
	if err != nil {
		if pr.cfg.BestEffort {
			// Partial-result mode: skip the unplaceable operation and keep
			// going; the drop is reported through Mapping.Dropped.
			st.dropped++
			return nil
		}
		return err
	}
	if relaxed {
		st.rcRelaxed++
	}
	st.place(pr, op, pl)
	return nil
}

// greedyPick chooses the best placement for op, scoring each candidate as
// it is enumerated and keeping the first strict minimum; when the
// routing-convenient window admits no candidate it retries with the
// constraint relaxed.
func (pr *problem) greedyPick(op int, st *greedyState) (arch.Placement, bool, error) {
	var best arch.Placement
	var bestKey [3]int
	found := false
	pick := func(pl arch.Placement) {
		if key := pr.greedyScore(op, pl, st); !found || keyLess(key, bestKey) {
			best, bestKey, found = pl, key, true
		}
	}
	opts := candOpts{rootOff: st.rootOff, shapeRot: st.shapeRot}
	pr.eachCandidate(op, st.fixed, opts, pick)
	relaxed := false
	if !found {
		opts.relaxRC = true
		pr.eachCandidate(op, st.fixed, opts, pick)
		relaxed = true
	}
	if !found {
		return arch.Placement{}, false, synerr.Infeasible("place",
			"no feasible placement for %s on a %dx%d chip",
			pr.res.Assay.Op(op).Name, pr.cfg.Grid, pr.cfg.Grid)
	}
	return best, relaxed, nil
}

// greedyScore returns (resulting max load, added load, attraction distance).
// The attraction term pulls an operation toward its placed device parents
// (routing-convenient) and toward placed siblings — operations that share a
// future child, which will need to sit within distance d of both.
func (pr *problem) greedyScore(op int, pl arch.Placement, st *greedyState) [3]int {
	maxLoad, added := 0, 0
	switch {
	case !pr.pump[op]:
	case st.packLimit > 0:
		// Packing mode: any load within the limit is free; prefer rings
		// that open the fewest fresh valves.
		at, offs := pr.ring(pl)
		for _, off := range offs {
			n := st.load[at+off]
			if n+1 > st.packLimit {
				maxLoad += n + 1 - st.packLimit
			}
			if n == 0 {
				added++
			}
		}
	default:
		maxLoad, added = pr.ringLoad(pl, st.load)
	}
	fp := pl.Footprint()
	dist := 0
	for _, p := range pr.parents[op] {
		if ppl, ok := st.fixed[p]; ok {
			dist += 4 * fp.Distance(ppl.Footprint())
		}
	}
	// Sibling attraction: the future child must reach both parents, so
	// penalise spread beyond what a child of minimum dimension can span.
	for _, sib := range pr.siblings[op] {
		if spl, ok := st.fixed[sib]; ok {
			if over := fp.Distance(spl.Footprint()) - (2*pr.d + 2); over > 0 {
				dist += 16 * over
			}
		}
	}
	// Port attraction: operations loaded from input ports and operations
	// draining to the output port prefer short routes, which keeps the
	// number of control valves (and thus #v) low.
	if !st.noPull {
		dist += pr.portPull(op, fp)
	}
	return [3]int{maxLoad, added, dist}
}

// portPull returns the port-proximity penalty of placing op at fp.
func (pr *problem) portPull(op int, fp grid.Rect) int {
	pull := 0
	if loads := pr.inLoads[op]; loads > 0 {
		best := -1
		for _, port := range pr.chip.Ports {
			if port.Kind != arch.InPort {
				continue
			}
			d := fp.Distance(grid.RectWH(port.At.X, port.At.Y, 1, 1))
			if best < 0 || d < best {
				best = d
			}
		}
		if best > 0 {
			pull += loads * best
		}
	}
	if pr.leaf[op] {
		for _, port := range pr.chip.Ports {
			if port.Kind == arch.OutPort {
				pull += fp.Distance(grid.RectWH(port.At.X, port.At.Y, 1, 1))
			}
		}
	}
	return pull
}

func keyLess(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// finishMapping assembles the Mapping from chosen placements. Operations
// absent from fixed (skipped under BestEffort) get no window or storage and
// are listed in Mapping.Dropped.
func (pr *problem) finishMapping(fixed map[int]arch.Placement, stats Stats) *Mapping {
	m := &Mapping{
		Placements: fixed,
		Windows:    map[int][2]int{},
		Storages:   map[int]*storage.Timeline{},
		Stats:      stats,
	}
	pump := make([]int, pr.cfg.Grid*pr.cfg.Grid)
	for _, op := range pr.ops {
		pl, placed := fixed[op]
		if !placed {
			m.Dropped = append(m.Dropped, op)
			continue
		}
		m.Windows[op] = pr.win[op]
		m.Storages[op] = pr.stor[op]
		if pr.pump[op] {
			at, offs := pr.ring(pl)
			for _, off := range offs {
				if pump[at+off]++; pump[at+off] > m.MaxPumpOps {
					m.MaxPumpOps = pump[at+off]
				}
			}
		}
	}
	sort.Ints(m.Dropped)
	return m
}

package place

import (
	"sort"

	"mfsynth/internal/arch"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/par"
	"mfsynth/internal/storage"
	"mfsynth/internal/synerr"
)

// greedyRuns is the number of multi-start variants tried: combinations of
// root-lattice offsets and shape-preference rotations, each with and
// without port attraction (compact runs shorten routing and reduce #v;
// unconstrained runs sometimes spread the pump load better — the primary
// max-pump key picks whichever wins).
const greedyRuns = 32

// greedyState carries one constructive run.
type greedyState struct {
	fixed map[int]arch.Placement
	pump  map[grid.Point]int
	// variant knobs
	rootOff  grid.Point
	shapeRot int
	noPull   bool // disable port attraction
	// packLimit, when positive, switches the scoring into packing mode:
	// placements may load valves up to this limit and prefer already-used
	// valves, minimising the number of manufactured valves at equal
	// worst-case wear.
	packLimit int

	// dropped lists operations skipped under Config.BestEffort because no
	// candidate (even RC-relaxed) was admissible. Placing more operations
	// always beats any other quality key.
	dropped []int

	rcRelaxed int
	maxPump   int
	usedCells int // distinct pump valves touched
	sumSq     int // Σ load² over valves, the spread tie-breaker

	// wearAware flips the usedCells/sumSq tie-break order: under a wear
	// prior, spreading load away from worn valves (sumSq, which the prior
	// inflates) matters more than the manufactured-valve count.
	wearAware bool
}

// solveGreedy is the standalone greedy mapper: a multi-start constructive
// heuristic over all operations. When no main-phase variant places every
// operation, the packing phase still may: the drop-tolerant run reaches
// it, and its result is kept whenever it drops nothing.
func (pr *problem) solveGreedy(sp *obs.Span) (*Mapping, error) {
	fixed, info, err := pr.multiStartGreedy(sp, pr.ops, map[int]arch.Placement{}, pr.seedPump())
	if err != nil && !pr.cfg.BestEffort {
		tolerant := *pr
		tolerant.cfg.BestEffort = true
		if full, tinfo, terr := tolerant.multiStartGreedy(sp, pr.ops, map[int]arch.Placement{}, pr.seedPump()); terr == nil && len(full) == len(pr.ops) {
			fixed, info, err = full, tinfo, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return pr.finishMapping(fixed, Stats{RCRelaxed: info.rcRelaxed}), nil
}

// greedyInfo summarises a multi-start result.
type greedyInfo struct {
	maxPump   int
	rcRelaxed int
}

// greedyVariant is one multi-start knob combination. Variants are built as
// an explicit deduplicated list so the serial loop and the parallel
// fan-out iterate the exact same sequence.
type greedyVariant struct {
	rootOff   grid.Point
	shapeRot  int
	noPull    bool
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
func (pr *problem) runVariant(gv greedyVariant, free []int, fixed map[int]arch.Placement, pump map[grid.Point]int) (*greedyState, error) {
	st := &greedyState{
		fixed:     clonePlacements(fixed),
		pump:      clonePump(pump),
		rootOff:   gv.rootOff,
		shapeRot:  gv.shapeRot,
		noPull:    gv.noPull,
		packLimit: gv.packLimit,
		wearAware: pr.wearAware(),
	}
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
	return st != nil && len(st.dropped) == 0 && st.maxPump <= 1 && st.rcRelaxed == 0
}

// multiStartGreedy places the free operations on top of the fixed context,
// trying several deterministic variants (root-lattice offsets × shape-order
// rotations) and keeping the best by (max pump load, load spread, RC
// relaxations). With Config.Workers != 1 the variants run concurrently;
// the merge scans results in variant order with the same early-exit rule,
// so the chosen state is identical to the serial loop's.
func (pr *problem) multiStartGreedy(sp *obs.Span, free []int, fixed map[int]arch.Placement, pump map[grid.Point]int) (map[int]arch.Placement, greedyInfo, error) {
	variants := pr.greedyVariants(greedyRuns, true, 0)
	gsp := sp.Start("place.greedy",
		obs.KV("ops", len(free)), obs.KV("variants", len(variants)))
	best, firstErr := pr.bestVariant(gsp, variants, nil, true, free, fixed, pump)
	if best == nil {
		gsp.Set(obs.KV("error", "infeasible"))
		gsp.End()
		return nil, greedyInfo{}, firstErr
	}
	// Packing phase: with the achievable worst-case load known, re-place
	// while preferring already-actuated valves up to that load — the same
	// worst-case wear with fewer manufactured valves. Pointless at load 1,
	// where every ring is necessarily fresh, and skipped under a wear
	// prior, where concentrating duty on already-actuated valves is the
	// opposite of the balancing the prior asks for.
	if best.maxPump > 1 && !pr.wearAware() {
		packing := pr.greedyVariants(greedyRuns/2, false, best.maxPump)
		best, _ = pr.bestVariant(gsp, packing, best, false, free, fixed, pump)
	}
	gsp.Set(obs.KV("max_pump", best.maxPump), obs.KV("rc_relaxed", best.rcRelaxed))
	gsp.End()
	gsp.Metrics().Counter("place_greedy_runs_total").Add(int64(len(variants)))
	return best.fixed, greedyInfo{maxPump: best.maxPump, rcRelaxed: best.rcRelaxed}, nil
}

// bestVariant runs the variants (serially or fanned out over the worker
// pool) and merges them deterministically: scan in variant order, keep the
// first state that beats the incumbent, and — when earlyExit is set (the
// main phase; the legacy packing loop has no early exit) — stop
// considering further variants once the early-exit rule fires. The merge
// order makes the chosen state identical to the serial loop's regardless
// of worker count.
func (pr *problem) bestVariant(sp *obs.Span, variants []greedyVariant, best *greedyState, earlyExit bool, free []int, fixed map[int]arch.Placement, pump map[grid.Point]int) (*greedyState, error) {
	var firstErr error
	workers := par.Workers(pr.cfg.Workers)
	if workers <= 1 {
		// Legacy serial loop: the early exit also skips the runs themselves.
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
	type runResult struct {
		st  *greedyState
		err error
	}
	ctx := pr.ctx
	if po := sp.Trace().Pool(sp, "greedy.variant"); po != nil {
		ctx = par.WithObserver(ctx, po)
	}
	// Per-variant errors travel inside runResult, so a non-nil pool error
	// is a recovered worker panic (surfaced as *par.TaskPanic since the
	// pool stopped re-raising) — abort rather than silently dropping the
	// variant a serial run would have died on.
	results, poolErr := par.MapCtx(ctx, workers, len(variants), func(slot, i int) (runResult, error) {
		st, err := pr.runVariant(variants[i], free, fixed, pump)
		return runResult{st: st, err: err}, nil
	})
	if poolErr != nil {
		return nil, poolErr
	}
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if best == nil || r.st.better(best) {
			best = r.st
		}
		if earlyExit && greedyDone(best) {
			break
		}
	}
	return best, firstErr
}

// better orders completed runs: mapping completeness first (fewest dropped
// operations — only relevant under BestEffort), then pump quality, then
// routing-convenient fidelity, then the number of manufactured pump valves,
// then load spread; among remaining ties prefer the compact (port-attracted)
// run, which needs fewer control valves.
func (st *greedyState) better(o *greedyState) bool {
	if len(st.dropped) != len(o.dropped) {
		return len(st.dropped) < len(o.dropped)
	}
	if st.maxPump != o.maxPump {
		return st.maxPump < o.maxPump
	}
	if st.rcRelaxed != o.rcRelaxed {
		return st.rcRelaxed < o.rcRelaxed
	}
	if st.wearAware {
		if st.sumSq != o.sumSq {
			return st.sumSq < o.sumSq
		}
		if st.usedCells != o.usedCells {
			return st.usedCells < o.usedCells
		}
	} else {
		if st.usedCells != o.usedCells {
			return st.usedCells < o.usedCells
		}
		if st.sumSq != o.sumSq {
			return st.sumSq < o.sumSq
		}
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
			st.dropped = append(st.dropped, op)
			return nil
		}
		return err
	}
	if relaxed {
		st.rcRelaxed++
	}
	st.fixed[op] = pl
	if pr.pump[op] {
		for _, pt := range pl.Ring() {
			st.sumSq += 2*st.pump[pt] + 1 // (n+1)² - n²
			if st.pump[pt] == 0 {
				st.usedCells++
			}
			st.pump[pt]++
			if st.pump[pt] > st.maxPump {
				st.maxPump = st.pump[pt]
			}
		}
	}
	return nil
}

// greedyPick chooses the best placement for op; when the routing-convenient
// window admits no candidate it retries with the constraint relaxed.
func (pr *problem) greedyPick(op int, st *greedyState) (arch.Placement, bool, error) {
	opts := candOpts{rootOff: st.rootOff, shapeRot: st.shapeRot}
	cands := pr.candidates(op, st.fixed, opts)
	relaxed := false
	if len(cands) == 0 {
		opts.relaxRC = true
		cands = pr.candidates(op, st.fixed, opts)
		relaxed = true
	}
	if len(cands) == 0 {
		return arch.Placement{}, false, synerr.Infeasible("place",
			"no feasible placement for %s on a %dx%d chip",
			pr.res.Assay.Op(op).Name, pr.cfg.Grid, pr.cfg.Grid)
	}
	best := cands[0]
	bestKey := pr.greedyScore(op, best, st)
	for _, c := range cands[1:] {
		if key := pr.greedyScore(op, c, st); keyLess(key, bestKey) {
			best, bestKey = c, key
		}
	}
	return best, relaxed, nil
}

// greedyScore returns (resulting max load, added load, attraction distance).
// The attraction term pulls an operation toward its placed device parents
// (routing-convenient) and toward placed siblings — operations that share a
// future child, which will need to sit within distance d of both.
func (pr *problem) greedyScore(op int, pl arch.Placement, st *greedyState) [3]int {
	maxLoad, added := 0, 0
	if pr.pump[op] {
		if st.packLimit > 0 {
			// Packing mode: any load within the limit is free; prefer rings
			// that open the fewest fresh valves.
			over, fresh := 0, 0
			for _, pt := range pl.Ring() {
				if st.pump[pt]+1 > st.packLimit {
					over += st.pump[pt] + 1 - st.packLimit
				}
				if st.pump[pt] == 0 {
					fresh++
				}
			}
			maxLoad, added = over, fresh
		} else {
			for _, pt := range pl.Ring() {
				n := st.pump[pt] + 1
				if n > maxLoad {
					maxLoad = n
				}
				added += st.pump[pt]
			}
		}
	}
	fp := pl.Footprint()
	dist := 0
	a := pr.res.Assay
	for _, p := range a.DeviceParents(op) {
		if ppl, ok := st.fixed[p]; ok {
			dist += 4 * fp.Distance(ppl.Footprint())
		}
	}
	// Sibling attraction: the future child must reach both parents, so
	// penalise spread beyond what a child of minimum dimension can span.
	for _, sib := range pr.siblings(op) {
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
	a := pr.res.Assay
	pull := 0
	loads := 0
	for _, e := range a.In(op) {
		if a.Op(e.From).Kind == graph.Input {
			loads++
		}
	}
	if loads > 0 {
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
	if len(a.Children(op)) == 0 {
		for _, port := range pr.chip.Ports {
			if port.Kind == arch.OutPort {
				pull += fp.Distance(grid.RectWH(port.At.X, port.At.Y, 1, 1))
			}
		}
	}
	return pull
}

// siblings lists the other device parents of op's children.
func (pr *problem) siblings(op int) []int {
	var out []int
	seen := map[int]bool{op: true}
	for _, child := range pr.res.Assay.Children(op) {
		if _, onChip := pr.win[child]; !onChip {
			continue
		}
		for _, p := range pr.res.Assay.DeviceParents(child) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func keyLess(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func clonePlacements(m map[int]arch.Placement) map[int]arch.Placement {
	out := make(map[int]arch.Placement, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func clonePump(m map[grid.Point]int) map[grid.Point]int {
	out := make(map[grid.Point]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
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
	pump := map[grid.Point]int{}
	for _, op := range pr.ops {
		pl, placed := fixed[op]
		if !placed {
			m.Dropped = append(m.Dropped, op)
			continue
		}
		m.Windows[op] = pr.win[op]
		m.Storages[op] = pr.stor[op]
		if pr.pump[op] {
			for _, pt := range pl.Ring() {
				pump[pt]++
				if pump[pt] > m.MaxPumpOps {
					m.MaxPumpOps = pump[pt]
				}
			}
		}
	}
	sort.Ints(m.Dropped)
	return m
}

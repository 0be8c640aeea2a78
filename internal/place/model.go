package place

import (
	"fmt"

	"mfsynth/internal/arch"
	"mfsynth/internal/grid"
	"mfsynth/internal/milp"
	"mfsynth/internal/obs"
	"mfsynth/internal/synerr"
)

// batchOpts controls one ILP build.
type batchOpts struct {
	// noRC drops the routing-convenient rows and candidate pruning
	// (feasibility fallback).
	noRC bool
	// obs is the span this ILP build and solve report under (nil = off).
	obs *obs.Span
}

// batchInfo reports one batch.
type batchInfo struct {
	nodes     int
	exact     bool
	rcRelaxed int
	// certified is set when greedy met the counting bound and no model was
	// built; solved counts the models built and solved.
	certified bool
	solved    int
	// noIncumbent counts solves (this batch's retries included) that hit
	// the node budget without an incumbent — milp status Limit.
	noIncumbent int
}

// opModel holds the per-operation model pieces.
type opModel struct {
	op    int
	cands []arch.Placement
	vars  []milp.Var
	// Boundary coordinate expressions over the selection variables
	// (replacing the paper's auxiliary integer variables b_i,le etc.).
	left, right, bottom, top []milp.Term
}

// PumpBound is the counting lower bound on the largest per-valve pump load
// w of any mapping on a g×g chip. A footprint keeps its one-valve wall band
// on the lattice (arch.Chip.PlacementArea), so every ring lies in the
// (g−2)² inner cells, and a mix op of ring volume V adds one use to exactly
// V of them; the fullest inner cell carries at least the mean:
//
//	w ≥ max(largest past load, ⌈(past inner load + rings) / (g−2)²⌉)
//
// rings is the summed ring volume of the mix ops to place and past the load
// already on the valves (fixed placements, wear prior) as a flat g×g slice
// indexed y·g+x, nil for none. The bound stays valid on faulty chips:
// excluded cells only raise the true minimum.
func PumpBound(g, rings int, past []int) int {
	inner := grid.RectWH(0, 0, g, g).Expand(-1)
	maxPast, total := 0, rings
	for i, n := range past {
		if n > maxPast {
			maxPast = n
		}
		if inner.Contains(grid.Point{X: i % g, Y: i / g}) {
			total += n
		}
	}
	cells := inner.Area()
	if cells == 0 {
		return maxPast
	}
	if lb := (total + cells - 1) / cells; lb > maxPast {
		return lb
	}
	return maxPast
}

// batchGreedy is a batch's multi-start greedy result: the placements of the
// batch's operations, the resulting largest load on any valve (past load
// included) and greedy's RC relaxations, or the error when greedy failed.
type batchGreedy struct {
	placements map[int]arch.Placement
	load       int
	rcRelaxed  int
	err        error
}

// runBatchGreedy runs the multi-start greedy over the batch once; its
// result is the certificate candidate, the ILP incumbent and the fallback.
func (pr *problem) runBatchGreedy(sp *obs.Span, free []int, fixed map[int]arch.Placement, pump []int) batchGreedy {
	all, c, err := pr.multiStartGreedy(sp, free, fixed, pump)
	if err != nil {
		return batchGreedy{err: err}
	}
	g := batchGreedy{placements: make(map[int]arch.Placement, len(free)), rcRelaxed: c.rcRelaxed}
	load := append([]int(nil), pump...)
	for _, op := range free {
		pl, ok := all[op]
		if !ok {
			return batchGreedy{err: synerr.Infeasible("place", "greedy left %s unplaced", pr.res.Assay.Op(op).Name)}
		}
		g.placements[op] = pl
		if pr.pump[op] {
			at, offs := pr.ring(pl)
			for _, off := range offs {
				load[at+off]++
			}
		}
	}
	for _, n := range load {
		if n > g.load {
			g.load = n
		}
	}
	return g
}

// solveBatch maps the free operations with already fixed placements as
// context. It runs the multi-start greedy once; when greedy's largest load
// meets PumpBound, no mapping can lower w and the batch returns greedy's
// placements without building the model. That is the solver's own stopping
// rule (AbsGap 0.999 stops once nothing can beat the incumbent by a whole
// pump use, and the compactness term stays below it) fed a bound that
// costs O(ops) instead of a root LP. Otherwise the paper's ILP is built and
// solved, with greedy's result as incumbent and final fallback.
func (pr *problem) solveBatch(free []int, fixed map[int]arch.Placement, pump []int, opts batchOpts) (map[int]arch.Placement, batchInfo, error) {
	g := pr.runBatchGreedy(opts.obs, free, fixed, pump)
	rings := 0
	for _, op := range free {
		if pr.pump[op] {
			rings += pr.vol[op]
		}
	}
	lb := PumpBound(pr.cfg.Grid, rings, pump)
	certified := g.err == nil && g.load <= lb
	opts.obs.Set(obs.KV("lb", lb), obs.KV("certified", certified))
	if certified {
		return g.placements, batchInfo{exact: true, certified: true, rcRelaxed: g.rcRelaxed}, nil
	}
	return pr.solveModel(free, fixed, pump, opts, g)
}

// solveModel maps the free operations via the paper's ILP, with already
// fixed placements as context: their footprints prune candidates and their
// peristaltic loads enter the v(x,y) accumulation as constants.
func (pr *problem) solveModel(free []int, fixed map[int]arch.Placement, pump []int, opts batchOpts, g batchGreedy) (map[int]arch.Placement, batchInfo, error) {
	info := batchInfo{exact: true, solved: 1}

	// 1. Candidates.
	oms := make([]*opModel, 0, len(free))
	numCands := 0
	for _, op := range free {
		cands := pr.candidates(op, fixed, candOpts{relaxRC: opts.noRC, fullRoots: true})
		if len(cands) == 0 && !opts.noRC {
			cands = pr.candidates(op, fixed, candOpts{relaxRC: true, fullRoots: true})
			info.rcRelaxed++
		}
		if len(cands) == 0 {
			return nil, info, synerr.Infeasible("place", "no feasible placement for %s on a %dx%d chip",
				pr.res.Assay.Op(op).Name, pr.cfg.Grid, pr.cfg.Grid)
		}
		numCands += len(cands)
		oms = append(oms, &opModel{op: op, cands: cands})
	}
	opts.obs.Set(obs.KV("candidates", numCands))
	opts.obs.Metrics().Counter("place_ilp_candidates_total").Add(int64(numCands))

	// 2. Model.
	m := milp.NewModel()
	maxPast := 0
	for _, n := range pump {
		if n > maxPast {
			maxPast = n
		}
	}
	w := m.AddVar("w", float64(maxPast), milp.Inf, 1)

	// Tiny secondary objective: prefer compact placements (near fixed
	// parents and the chip ports). The coefficient is far below the unit
	// cost of one extra pump use, so w-optimality always dominates; it only
	// breaks the huge positional symmetry, which both speeds up the search
	// and keeps routing (and therefore #v) short.
	// summed over a whole batch the secondary terms stay well below the
	// 0.999 integrality gap of the objective w.
	const eps = 0.0002

	coordCover := make([][]milp.Term, len(pump)) // ring coverage terms per valve
	for _, om := range oms {
		assign := make([]milp.Term, 0, len(om.cands))
		for ci, pl := range om.cands {
			attract := pr.portPull(om.op, pl.Footprint())
			for _, p := range pr.parents[om.op] {
				if ppl, ok := fixed[p]; ok {
					attract += 4 * pl.Footprint().Distance(ppl.Footprint())
				}
			}
			v := m.AddBinary(fmt.Sprintf("s.%d.%d", om.op, ci), eps*float64(attract))
			om.vars = append(om.vars, v)
			assign = append(assign, milp.T(v, 1))
			fp := pl.Footprint()
			om.left = append(om.left, milp.T(v, float64(fp.X0)))
			om.right = append(om.right, milp.T(v, float64(fp.X1)))
			om.bottom = append(om.bottom, milp.T(v, float64(fp.Y0)))
			om.top = append(om.top, milp.T(v, float64(fp.Y1)))
			if pr.pump[om.op] {
				at, offs := pr.ring(pl)
				for _, off := range offs {
					coordCover[at+off] = append(coordCover[at+off], milp.T(v, 1))
				}
			}
		}
		m.AddRow(assign, milp.EQ, 1) // constraint (1)
		m.AddSOS1(om.vars)           // branch by splitting the candidate set
	}
	// Constraints (2) and (9): w bounds the accumulated peristaltic load,
	// one row per covered valve in (y, x) order. The simplex pivot path
	// (and with it the perf gate's work counters) follows the row order,
	// even though the optimum does not.
	for i, terms := range coordCover {
		if len(terms) > 0 {
			m.AddRow(append(terms, milp.T(w, -1)), milp.LE, float64(-pump[i]))
		}
	}

	bigM := float64(3*pr.cfg.Grid + 8)
	index := map[int]*opModel{}
	for _, om := range oms {
		index[om.op] = om
	}

	// Non-overlap disjunctions, constraints (3)-(8) and (12).
	var disjs []disj
	for i := 0; i < len(oms); i++ {
		for j := i + 1; j < len(oms); j++ {
			a, b := oms[i], oms[j]
			if !pr.overlapsInTime(a.op, b.op) {
				continue
			}
			relaxable := pr.storagePair(a.op, b.op) || pr.storagePair(b.op, a.op)
			choices, relax := m.AddDisjunctionLE(
				fmt.Sprintf("no%d.%d", a.op, b.op),
				[]milp.Disjunct{
					{Terms: subExpr(a.right, b.left), RHS: -1},
					{Terms: subExpr(b.right, a.left), RHS: -1},
					{Terms: subExpr(a.top, b.bottom), RHS: -1},
					{Terms: subExpr(b.top, a.bottom), RHS: -1},
				}, bigM, relaxable)
			disjs = append(disjs, disj{choices: choices, relax: relax, a: a, b: b})
		}
	}

	// Routing-convenient rows, constraints (13)-(16), for free-free pairs
	// (fixed-parent pairs were enforced through candidate pruning).
	if !opts.noRC {
		for _, pc := range pr.rcPairs() {
			p, c := index[pc[0]], index[pc[1]]
			if p == nil || c == nil {
				continue
			}
			pr.addProximityRows(m, p, c, pr.d)
		}
	}
	// Parents of a common future child are pulled together by the greedy
	// incumbent's sibling attraction; hard proximity rows between siblings
	// are deliberately not added — they can make the model infeasible and
	// reject the incumbent, while a scattered pair costs only a
	// routing-convenient relaxation later.

	// 3. Incumbent from the greedy heuristic.
	incumbent := buildIncumbent(m, oms, disjs, g, w)

	// 4. Solve.
	res, err := m.Solve(milp.Options{
		MaxNodes:  pr.cfg.MaxNodes,
		Timeout:   pr.cfg.SolveTimeout,
		Ctx:       pr.ctx,
		Incumbent: incumbent,
		AbsGap:    0.999, // w counts whole operations
		Obs:       opts.obs,
		ColdLP:    pr.cfg.coldLP,
		Arenas:    pr.arenas,
	})
	if err != nil {
		return nil, info, err
	}
	info.nodes = res.Nodes
	switch res.Status {
	case milp.Optimal:
		// exact stays true
	case milp.Feasible:
		info.exact = false
	default:
		// No solution from the ILP. Retry without routing-convenient rows,
		// then fall back to pure greedy placements.
		if res.Status == milp.Limit {
			// The node budget ran out with no incumbent at all: the hard
			// condition the other candidates exist for. Count it before the
			// fallbacks mask it.
			info.noIncumbent++
		}
		if !opts.noRC {
			o2 := opts
			o2.noRC = true
			placements, inner, err := pr.solveModel(free, fixed, pump, o2, g)
			inner.rcRelaxed += len(free)
			inner.exact = false
			inner.noIncumbent += info.noIncumbent
			inner.solved += info.solved
			return placements, inner, err
		}
		if g.err != nil {
			return nil, info, fmt.Errorf("place: ILP %v for batch of %d ops and greedy failed: %v",
				res.Status, len(free), g.err)
		}
		info.exact = false
		info.rcRelaxed += g.rcRelaxed
		return g.placements, info, nil
	}

	out := map[int]arch.Placement{}
	for _, om := range oms {
		chosen := -1
		for ci, v := range om.vars {
			if res.X[v] > 0.5 {
				chosen = ci
				break
			}
		}
		if chosen < 0 {
			return nil, info, fmt.Errorf("place: op %d has no selected placement", om.op)
		}
		out[om.op] = om.cands[chosen]
	}
	return out, info, nil
}

// addProximityRows adds the four directed-gap rows keeping the footprints
// of a and b within Chebyshev distance dist.
func (pr *problem) addProximityRows(m *milp.Model, a, b *opModel, dist int) {
	d := float64(dist)
	m.AddRow(subExpr(b.left, a.right), milp.LE, d)
	m.AddRow(subExpr(a.left, b.right), milp.LE, d)
	m.AddRow(subExpr(b.bottom, a.top), milp.LE, d)
	m.AddRow(subExpr(a.bottom, b.top), milp.LE, d)
}

// subExpr returns the term list for (Σ a) - (Σ b).
func subExpr(a, b []milp.Term) []milp.Term {
	out := make([]milp.Term, 0, len(a)+len(b))
	out = append(out, a...)
	for _, t := range b {
		out = append(out, milp.T(t.Var, -t.Coef))
	}
	return out
}

// disj records one built non-overlap disjunction.
type disj struct {
	choices []milp.Var
	relax   milp.Var
	a, b    *opModel
}

// buildIncumbent turns the batch's greedy placements into a full variable
// assignment (selection vars, disjunction binaries, w). Returns nil when
// greedy failed or picked a candidate outside the model (e.g. an
// RC-relaxed placement the model forbids).
func buildIncumbent(m *milp.Model, oms []*opModel, disjs []disj, g batchGreedy, w milp.Var) []float64 {
	if g.err != nil {
		return nil
	}
	chosen := map[int]int{} // op -> candidate index
	for _, om := range oms {
		pl := g.placements[om.op]
		ci := -1
		for k, c := range om.cands {
			if c == pl {
				ci = k
				break
			}
		}
		if ci < 0 {
			return nil
		}
		chosen[om.op] = ci
	}

	x := make([]float64, m.NumVars())
	x[w] = float64(g.load)
	for _, om := range oms {
		x[om.vars[chosen[om.op]]] = 1
	}
	// Disjunction binaries consistent with the chosen placements.
	for _, dj := range disjs {
		fa := om2fp(dj.a, chosen)
		fb := om2fp(dj.b, chosen)
		sat := -1
		switch {
		case fa.X1 <= fb.X0-1:
			sat = 0
		case fb.X1 <= fa.X0-1:
			sat = 1
		case fa.Y1 <= fb.Y0-1:
			sat = 2
		case fb.Y1 <= fa.Y0-1:
			sat = 3
		}
		if sat < 0 {
			if dj.relax < 0 {
				return nil // infeasible greedy (should not happen)
			}
			x[dj.relax] = 1
			for _, c := range dj.choices {
				x[c] = 1
			}
			continue
		}
		for k, c := range dj.choices {
			if k != sat {
				x[c] = 1
			}
		}
	}
	return x
}

func om2fp(om *opModel, chosen map[int]int) grid.Rect {
	return om.cands[chosen[om.op]].Footprint()
}

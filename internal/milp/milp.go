// Package milp implements a mixed-integer linear programming solver: branch
// and bound with most-fractional branching, depth-first search guided toward
// the LP-relaxation value, LP-rounding incumbents and node/time limits.
//
// Together with internal/lp it replaces the commercial ILP solver used by
// the paper for the dynamic-device mapping model.
package milp

import (
	"context"
	"fmt"
	"math"
	"time"

	"mfsynth/internal/lp"
	"mfsynth/internal/obs"
	"mfsynth/internal/synerr"
)

// Re-exported row relations, for convenience of model-building code.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

// Inf is the unbounded upper bound.
var Inf = lp.Inf

// Var is a variable handle, shared with the LP layer.
type Var = lp.Var

// Term is one linear coefficient.
type Term struct {
	Var  Var
	Coef float64
}

// T builds a Term; convenient for callers outside this package, where
// unkeyed Term literals trip go vet's composite-literal check.
func T(v Var, coef float64) Term { return Term{Var: v, Coef: coef} }

// Model is a MILP: an LP plus integrality marks.
type Model struct {
	lp      *lp.Problem
	integer []bool
	rows    []savedRow // kept for incumbent feasibility checks
	sos1    [][]Var    // special-ordered sets for branching (see AddSOS1)
}

type savedRow struct {
	terms []Term
	rel   lp.Rel
	rhs   float64
}

// NewModel returns an empty minimisation model.
func NewModel() *Model {
	return &Model{lp: lp.NewProblem()}
}

// AddVar adds a continuous variable.
func (m *Model) AddVar(name string, lower, upper, obj float64) Var {
	v := m.lp.AddVar(name, lower, upper, obj)
	m.integer = append(m.integer, false)
	return v
}

// AddInt adds an integer variable with inclusive bounds.
func (m *Model) AddInt(name string, lower, upper, obj float64) Var {
	v := m.lp.AddVar(name, lower, upper, obj)
	m.integer = append(m.integer, true)
	return v
}

// AddBinary adds a {0,1} variable.
func (m *Model) AddBinary(name string, obj float64) Var {
	return m.AddInt(name, 0, 1, obj)
}

// SetObj overwrites the objective coefficient of v.
func (m *Model) SetObj(v Var, c float64) { m.lp.SetObj(v, c) }

// AddRow adds the constraint Σ terms {rel} rhs.
func (m *Model) AddRow(terms []Term, rel lp.Rel, rhs float64) {
	own := make([]Term, len(terms))
	copy(own, terms)
	m.rows = append(m.rows, savedRow{own, rel, rhs})
	low := make([]lp.Term, len(terms))
	for i, t := range terms {
		low[i] = lp.Term{Var: t.Var, Coef: t.Coef}
	}
	m.lp.AddRow(low, rel, rhs)
}

// Fix pins v to a value by collapsing its bounds.
func (m *Model) Fix(v Var, value float64) { m.lp.SetBounds(v, value, value) }

// Bounds returns the current bounds of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.lp.Bounds(v) }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.integer) }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.rows) }

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: incumbent proved optimal.
	Optimal Status = iota
	// Feasible: an integer solution was found but optimality was not proved
	// (a node/time limit was hit).
	Feasible
	// Infeasible: no integer solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
	// Limit: a limit was hit before any integer solution was found.
	Limit
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Options configures Solve.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (0 = 1<<20).
	MaxNodes int
	// Timeout bounds wall-clock time (0 = none).
	Timeout time.Duration
	// Ctx, when non-nil, cancels the search: Solve returns a
	// synerr.ErrDeadline-compatible error as soon as a node observes the
	// cancellation. Unlike Timeout (which returns the incumbent found so
	// far with Status Limit), cancellation abandons the solve entirely.
	Ctx context.Context
	// Incumbent, when non-nil, is a known feasible assignment used as the
	// initial upper bound. It must be integer-feasible; otherwise it is
	// ignored.
	Incumbent []float64
	// AbsGap stops the search when the incumbent is within AbsGap of the
	// best bound (useful because actuation counts are integers: 0.999).
	AbsGap float64
	// Obs, when non-nil, is the parent span the solve reports under: a
	// milp.solve child span plus the milp.* metrics (nodes, LP solves,
	// simplex pivots, incumbent updates, deadline checks, bound-gap
	// histogram) on its trace. Observation never changes results.
	Obs *obs.Span
	// ColdLP disables the warm-start machinery (objective-floor fathoming,
	// dual-simplex re-solves from parent bases, warm infeasibility prunes):
	// every node pays a from-scratch LP solve, as the search did before
	// warm-starting existed. Both modes are exact searches over the same
	// model and agree on final incumbents and statuses; the explored trees
	// may differ where a relaxation has several optimal vertices (the two
	// solvers can branch from different ones). The switch exists for
	// benchmarking and differential tests.
	ColdLP bool
	// Arenas, when non-nil, supplies reusable solver state shared across
	// Solve calls (see Arenas). Nil means a private bundle per solve.
	Arenas *Arenas
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status Status
	// Obj and X describe the incumbent (valid for Optimal and Feasible).
	Obj float64
	X   []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Bound is the best proven lower bound on the optimum.
	Bound float64
}

const intTol = 1e-6

// Solve runs branch and bound. The model's variable bounds are restored on
// return, so a Model can be re-solved after adding rows.
func (m *Model) Solve(opts Options) (*Result, error) {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	sp := opts.Obs.Start("milp.solve",
		obs.KV("vars", m.NumVars()), obs.KV("rows", m.NumRows()))
	ar := opts.Arenas
	if ar == nil {
		ar = NewArenas()
	}
	scratch, warm := ar.bind(m.lp)
	s := &search{
		m:        m,
		maxNodes: maxNodes,
		absGap:   opts.AbsGap,
		bestObj:  math.Inf(1),
		bound:    math.Inf(-1),
		coldLP:   opts.ColdLP,
		scratch:  scratch,
		warm:     warm,
		snaps:    ar.snaps,
		span:     sp,
		gapHist:  sp.Metrics().Histogram("milp_bound_gap", []float64{0.5, 1, 2, 4, 8, 16}),
	}
	// Live-progress plumbing: gauges mirror the search state for /metrics
	// scrapes, and the progress bus (enabled by a debug server or progress
	// log) receives periodic snapshots. Pulses only mirror state out and
	// never influence search decisions, so results stay bit-identical with
	// telemetry on or off.
	if mm, bus := sp.Metrics(), opts.Obs.Trace().ProgressBus(); mm != nil || bus != nil {
		s.pulseOn = true
		s.bus = bus
		s.solveID = bus.NextSolve()
		s.liveNodes = mm.Gauge("milp_nodes")
		s.liveWarm = mm.Gauge("milp_warm_resolves")
		s.liveCold = mm.Gauge("milp_cold_solves")
		s.fgIncumbent = mm.FloatGauge("milp_incumbent")
		s.fgBound = mm.FloatGauge("milp_bound")
		s.fgGap = mm.FloatGauge("milp_gap")
	}
	if opts.Timeout > 0 {
		// The deadline existence check is hoisted out of the per-node hot
		// loop: node() polls time.Now only when hasDeadline is set.
		s.hasDeadline = true
		s.deadline = time.Now().Add(opts.Timeout)
	}
	if opts.Ctx != nil {
		// Same hoist for cancellation: ctx.Err() (an atomic load) is polled
		// per node only when a context is attached.
		s.hasCtx = true
		s.ctx = opts.Ctx
	}
	if opts.Incumbent != nil {
		if ok, obj := m.CheckFeasible(opts.Incumbent); ok {
			s.bestObj = obj
			s.bestX = append([]float64(nil), opts.Incumbent...)
		}
	}
	// Save root bounds to restore afterwards.
	saved := make([][2]float64, m.NumVars())
	for v := range saved {
		saved[v][0], saved[v][1] = m.lp.Bounds(lp.Var(v))
	}
	defer func() {
		for v := range saved {
			m.lp.SetBounds(lp.Var(v), saved[v][0], saved[v][1])
		}
	}()

	st, err := s.node(nil, nil)
	if err != nil {
		sp.Set(obs.KV("error", err.Error()))
		sp.End()
		return nil, err
	}
	s.complete = st == nodeDone
	res := &Result{Nodes: s.nodes, Bound: s.bound}
	switch {
	case st == nodeUnbounded && s.bestX == nil:
		res.Status = Unbounded
	case s.bestX != nil && s.complete:
		res.Status = Optimal
		res.Obj = s.bestObj
		res.X = s.bestX
	case s.bestX != nil:
		res.Status = Feasible
		res.Obj = s.bestObj
		res.X = s.bestX
	case s.complete:
		res.Status = Infeasible
	default:
		res.Status = Limit
	}
	s.flushObs(res)
	sp.End()
	return res, nil
}

// flushObs records the solve's accumulated counters and result attributes
// on the trace and emits the final progress pulse. No-op when tracing is
// disabled (nil span).
func (s *search) flushObs(res *Result) {
	s.pulse()
	mm := s.span.Metrics()
	if mm == nil {
		return
	}
	mm.Counter("milp_nodes_total").Add(int64(s.nodes))
	mm.Counter("milp_lp_solves_total").Add(s.lpSolves)
	mm.Counter("milp_simplex_pivots_total").Add(s.pivots)
	mm.Counter("milp_incumbents_total").Add(s.incumbents)
	mm.Counter("milp_deadline_checks_total").Add(s.deadlineChecks)
	mm.Counter("milp_floor_fathoms_total").Add(s.floorFathoms)
	mm.Counter("milp_warm_fathoms_total").Add(s.warmFathoms)
	mm.Counter("milp_warm_resolves_total").Add(s.warmResolves)
	mm.Counter("milp_warm_infeasible_total").Add(s.warmInfeasible)
	mm.Counter("milp_warm_failures_total").Add(s.warmFailures)
	mm.Counter("milp_warm_fail_pivots_total").Add(s.warmFailPivots)
	s.span.Set(obs.KV("status", res.Status.String()), obs.KV("nodes", res.Nodes))
	if !math.IsInf(res.Bound, 0) {
		s.span.Set(obs.KV("bound", res.Bound))
	}
	if res.Status == Optimal || res.Status == Feasible {
		s.span.Set(obs.KV("obj", res.Obj))
	}
}

// CheckFeasible evaluates x against all rows, bounds and integrality; when
// feasible it returns the objective value.
func (m *Model) CheckFeasible(x []float64) (bool, float64) {
	if len(x) != m.NumVars() {
		return false, 0
	}
	for v := 0; v < m.NumVars(); v++ {
		lo, hi := m.lp.Bounds(lp.Var(v))
		if x[v] < lo-intTol || x[v] > hi+intTol {
			return false, 0
		}
		if m.integer[v] && math.Abs(x[v]-math.Round(x[v])) > intTol {
			return false, 0
		}
	}
	for _, r := range m.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch r.rel {
		case lp.LE:
			if lhs > r.rhs+1e-6 {
				return false, 0
			}
		case lp.GE:
			if lhs < r.rhs-1e-6 {
				return false, 0
			}
		case lp.EQ:
			if math.Abs(lhs-r.rhs) > 1e-6 {
				return false, 0
			}
		}
	}
	return true, m.Objective(x)
}

// Objective evaluates the model objective at x.
func (m *Model) Objective(x []float64) float64 {
	// The lp layer holds the coefficients; recompute via a probe.
	obj := 0.0
	for v := 0; v < m.NumVars(); v++ {
		obj += m.objCoef(lp.Var(v)) * x[v]
	}
	return obj
}

// objCoef digs the objective coefficient out of the LP.
func (m *Model) objCoef(v lp.Var) float64 { return m.lp.ObjCoef(v) }

type nodeStatus int

const (
	nodeDone nodeStatus = iota
	nodeUnbounded
	nodeLimit
)

type search struct {
	m           *Model
	nodes       int
	maxNodes    int
	hasDeadline bool // hoisted deadline.IsZero(), kept out of the hot loop
	deadline    time.Time
	hasCtx      bool // hoisted Ctx != nil, same reasoning
	ctx         context.Context
	absGap      float64

	bestObj  float64
	bestX    []float64
	bound    float64 // best lower bound proven at the root
	complete bool    // true when the whole tree was explored
	rootSet  bool

	// Observability accumulators, flushed once by flushObs.
	span           *obs.Span
	gapHist        *obs.Histogram // relaxation gap above the root bound
	lpSolves       int64
	pivots         int64
	incumbents     int64
	deadlineChecks int64
	floorFathoms   int64 // nodes pruned by the objective floor, no LP at all
	warmFathoms    int64 // nodes pruned by a warm dual re-solve's bound
	warmInfeasible int64 // nodes pruned by a warm infeasibility certificate
	warmResolves   int64 // warm re-solves attempted
	warmFailures   int64 // warm re-solves that fell back to the cold path
	warmFailPivots int64 // pivots spent inside those failed re-solves

	// Live-progress plumbing (pulse): pulses mirror state out, never feed
	// anything back into the search.
	pulseOn     bool
	bus         *obs.ProgressBus
	solveID     int64
	liveNodes   *obs.Gauge
	liveWarm    *obs.Gauge
	liveCold    *obs.Gauge
	fgIncumbent *obs.FloatGauge
	fgBound     *obs.FloatGauge
	fgGap       *obs.FloatGauge

	// coldLP disables floor fathoming and warm re-solves (Options.ColdLP).
	coldLP bool
	// scratch is the tableau arena, reused across the node solves.
	scratch *lp.Scratch
	// warm is the dual-simplex re-solver.
	warm *lp.WarmSolver
	// snaps pools the frozen node tableaus warm re-solves start from.
	snaps *lp.WarmArena
}

// boundMargin is the safety margin on the early warm fathoming checks
// (objective floor, warm re-solve bound): a node is pruned before its LP
// solution is even materialised only when the bound clears the fathoming
// threshold by this much. Bounds inside the margin flow into the regular
// fathom check instead, so a hair's-breadth call is made by exactly the
// same comparison the cold path uses.
const boundMargin = 1e-6

// fathomThreshold returns the value at or above which a node bound prunes
// the node: the exact constant serial fathoming has always used (incumbent
// minus 1e-9, or minus AbsGap when set).
func (s *search) fathomThreshold() float64 {
	if math.IsInf(s.bestObj, 1) {
		return math.Inf(1)
	}
	t := s.bestObj - 1e-9
	if s.absGap > 0 && s.bestObj-s.absGap < t {
		t = s.bestObj - s.absGap
	}
	return t
}

// node solves the relaxation under the current bounds and recurses. parent
// is the frozen optimal tableau of the parent node (nil at the root or
// below a node whose tableau could not be kept) and own the bound
// tightenings this node adds to it; together they feed the warm-start
// ladder that replaces the from-scratch LP solve:
//
//  1. objective floor — O(n) over the bounds, no tableau at all;
//  2. warm dual re-solve from the parent basis — usually a handful of
//     pivots; an Optimal outcome IS the node's LP solve and an Infeasible
//     one prunes the node outright;
//  3. cold two-phase solve — the root, warm failures (iteration cap,
//     numerical doubt) and ColdLP mode.
//
// Warm and cold solves of the same node agree on the LP value to far
// better than any fathoming tolerance, so the two modes explore the same
// decisions wherever the optimum is unique; at degenerate alternate optima
// the vertex (and hence the branching order) may differ, but both modes
// remain exact branch-and-bound searches over the same model — final
// incumbents and statuses agree (see TestWarmMatchesCold and the
// conformance suite).
func (s *search) node(parent *lp.WarmSnap, own []lp.BoundDelta) (nodeStatus, error) {
	if s.nodes >= s.maxNodes {
		return nodeLimit, nil
	}
	if s.hasDeadline {
		s.deadlineChecks++
		if time.Now().After(s.deadline) {
			return nodeLimit, nil
		}
	}
	if s.hasCtx {
		if err := s.ctx.Err(); err != nil {
			return nodeLimit, synerr.Deadline("milp", err)
		}
	}
	s.nodes++
	if s.nodes%pulseEvery == 0 {
		s.pulse()
	}

	warmMode := !s.coldLP
	thresh := s.fathomThreshold()

	if warmMode && !math.IsInf(thresh, 1) {
		if fl := s.m.lp.ObjectiveFloor(); fl >= thresh+boundMargin {
			s.floorFathoms++
			if !s.rootSet {
				// The floor is a valid (if weak) lower bound on the optimum.
				s.bound = fl
				s.rootSet = true
			}
			return nodeDone, nil
		}
	}

	var sol *lp.Solution
	var retained *lp.WarmSnap
	warmValid := false // warm solver's tableau holds this node's optimum
	if warmMode && parent != nil && len(own) > 0 {
		res := s.warm.Resolve(parent, own)
		s.warmResolves++
		s.pivots += int64(res.Iters)
		switch res.Status {
		case lp.Optimal:
			if !math.IsInf(thresh, 1) && res.Obj >= thresh+boundMargin {
				s.warmFathoms++
				return nodeDone, nil
			}
			sol = s.warm.Solution(res.Obj, res.Iters)
			warmValid = true
		case lp.Infeasible:
			// A violated row with no eligible entering column certifies the
			// tightened box empty: prune without a cold solve.
			s.warmInfeasible++
			return nodeDone, nil
		default:
			// IterLimit (cap or numerical doubt) falls through to the cold
			// path.
			s.warmFailures++
			s.warmFailPivots += int64(res.Iters)
		}
	}
	if sol == nil {
		var err error
		if warmMode {
			sol, retained, err = s.m.lp.SolveScratchRetain(s.scratch, s.snaps)
		} else {
			sol, err = s.m.lp.SolveScratch(s.scratch)
		}
		if err != nil {
			return nodeDone, err
		}
		s.lpSolves++
		s.pivots += int64(sol.Iters)
	}
	// nodeSnap freezes this node's optimum for its children, preferring the
	// cold tableau (available whenever presolve was a no-op; numerically
	// fresh) over re-freezing the warm re-solve.
	var nodeSnap *lp.WarmSnap
	defer func() {
		if nodeSnap != retained {
			s.snaps.Release(retained)
		}
		s.snaps.Release(nodeSnap)
	}()
	switch sol.Status {
	case lp.Infeasible:
		return nodeDone, nil
	case lp.Unbounded:
		return nodeUnbounded, nil
	case lp.IterLimit:
		// Cannot trust the node; treat as explored-without-proof.
		return nodeLimit, nil
	}
	if !s.rootSet {
		s.bound = sol.Obj
		s.rootSet = true
	}
	s.gapHist.Observe(sol.Obj - s.bound)
	if sol.Obj >= s.bestObj-1e-9 || (s.absGap > 0 && sol.Obj >= s.bestObj-s.absGap) {
		return nodeDone, nil // fathom by bound
	}

	// SOS1 branching first: splitting a fractional selection group in two
	// kills far more symmetric subtrees per node than fixing one binary.
	if branches := s.chooseSOS1(sol); branches[0] != nil {
		nodeSnap = s.pickSnap(retained, warmValid)
		return s.exploreBranches(branches, nodeSnap)
	}

	// Find the most fractional integer variable.
	branch, frac := -1, 0.0
	for v := 0; v < s.m.NumVars(); v++ {
		if !s.m.integer[v] {
			continue
		}
		f := math.Abs(sol.X[v] - math.Round(sol.X[v]))
		if f > intTol && f > frac {
			branch, frac = v, f
		}
	}
	if branch < 0 {
		// Integer feasible.
		if sol.Obj < s.bestObj-1e-9 {
			s.bestObj = sol.Obj
			s.bestX = roundInts(s.m, sol.X)
			s.noteIncumbent()
		}
		return nodeDone, nil
	}

	// Rounding heuristic: snap all integers and test.
	if s.bestX == nil {
		cand := roundInts(s.m, sol.X)
		if ok, obj := s.m.CheckFeasible(cand); ok && obj < s.bestObj {
			s.bestObj, s.bestX = obj, cand
			s.noteIncumbent()
		}
	}

	v := lp.Var(branch)
	lo, hi := s.m.lp.Bounds(v)
	floor := math.Floor(sol.X[branch])
	// Explore the side nearer the LP value first.
	first, second := [2]float64{lo, floor}, [2]float64{floor + 1, hi}
	if sol.X[branch]-floor > 0.5 {
		first, second = second, first
	}
	nodeSnap = s.pickSnap(retained, warmValid)
	for _, side := range [][2]float64{first, second} {
		if side[0] > side[1] {
			continue
		}
		s.m.lp.SetBounds(v, side[0], side[1])
		cst, err := s.node(nodeSnap, []lp.BoundDelta{{Var: v, Lo: side[0], Hi: side[1]}})
		s.m.lp.SetBounds(v, lo, hi)
		if err != nil {
			return nodeDone, err
		}
		if cst == nodeUnbounded {
			return nodeUnbounded, nil
		}
		if cst == nodeLimit {
			return nodeLimit, nil
		}
	}
	return nodeDone, nil
}

// pickSnap chooses the tableau to freeze for a branching node's children:
// the cold solve's retained tableau when available, else a snapshot of the
// warm re-solve's optimum, else nothing (children start cold).
func (s *search) pickSnap(retained *lp.WarmSnap, warmValid bool) *lp.WarmSnap {
	if retained != nil {
		return retained
	}
	if warmValid {
		return s.warm.Snapshot(s.snaps)
	}
	return nil
}

// noteIncumbent records an incumbent improvement: a counter bump, a point
// mark on the solve span (the incumbent trajectory in the trace) and a
// progress pulse.
func (s *search) noteIncumbent() {
	s.incumbents++
	s.span.Mark("milp.incumbent", obs.KV("obj", s.bestObj), obs.KV("node", s.nodes))
	s.pulse()
}

// pulseEvery is the node interval of periodic progress pulses: frequent
// enough that /metrics scrapes see a moving picture, rare enough that the
// modulo check is the only per-node cost.
const pulseEvery = 256

// pulse mirrors the live search state onto the registry gauges and the
// progress bus. Infinities (no incumbent yet, no root bound yet) are
// mapped to zeros so snapshots stay JSON-marshalable.
func (s *search) pulse() {
	if !s.pulseOn {
		return
	}
	hasInc := s.bestX != nil
	incumbent, bound, gap := 0.0, 0.0, 0.0
	if hasInc {
		incumbent = s.bestObj
	}
	if s.rootSet {
		bound = s.bound
	}
	if hasInc && s.rootSet {
		gap = s.bestObj - s.bound
	}
	s.liveNodes.Set(int64(s.nodes))
	s.liveWarm.Set(s.warmResolves)
	s.liveCold.Set(s.lpSolves)
	if s.rootSet {
		s.fgBound.Set(bound)
	}
	if hasInc {
		s.fgIncumbent.Set(incumbent)
		if s.rootSet {
			s.fgGap.Set(gap)
		}
	}
	s.bus.Update(func(p *obs.Progress) {
		p.MILP = &obs.MILPProgress{
			Solve:        s.solveID,
			Nodes:        int64(s.nodes),
			Incumbent:    incumbent,
			HasIncumbent: hasInc,
			Bound:        bound,
			Gap:          gap,
			WarmResolves: s.warmResolves,
			ColdSolves:   s.lpSolves,
			Incumbents:   s.incumbents,
		}
	})
}

// roundInts snaps integer variables of x to the nearest integer.
func roundInts(m *Model, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for v := range out {
		if m.integer[v] {
			out[v] = math.Round(out[v])
		}
	}
	return out
}

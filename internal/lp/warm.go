package lp

// Warm-started re-solving for branch and bound.
//
// A branch-and-bound child differs from its parent only in variable bounds,
// and bound changes never disturb dual feasibility: the parent's optimal
// basis is a dual-feasible starting point for the child. The WarmSolver
// below exploits that. It keeps a frozen copy of the parent's final simplex
// tableau (a WarmSnap), applies the child's bound tightenings directly to
// the basic values — O(m) per changed variable — and runs the bounded dual
// simplex until the basis is primal feasible again. The objective at that
// point is the child's exact LP-relaxation value, usually reached in a
// handful of pivots instead of a full two-phase solve.
//
// The MILP layer uses the warm tableau as the node's LP solve: an Optimal
// re-solve yields the node's exact relaxation value and (via Solution) its
// optimal point, and a dual-infeasibility certificate prunes the node as
// infeasible — both without the cold path. Any numerical doubt (iteration
// cap, eroded dual feasibility, a non-tightening delta) makes Resolve
// report failure and the caller falls back to the cold two-phase solve,
// which remains the sole authority in those cases.

import "math"

// BoundDelta is one bound tightening applied between a parent node and its
// child. Branching only ever shrinks boxes, so Lo ≥ parent lower and
// Hi ≤ parent upper; deltas outside the parent box are rejected.
type BoundDelta struct {
	Var    Var
	Lo, Hi float64
}

// WarmSnap is a frozen optimal tableau: everything the dual simplex needs
// to resume from a node's optimum under tightened bounds. Snapshots are
// plain memory, pooled through a WarmArena.
type WarmSnap struct {
	m, n, nStru, artBase int

	a       []float64 // m×n, row-major
	b       []float64 // m basic values
	upper   []float64 // n shifted column bounds (Inf allowed)
	cost2   []float64 // n phase-2 reduced costs
	lower   []float64 // nStru current structural lower bounds
	basis   []int32   // m
	inBasis []bool    // n
	atUpper []bool    // n

	rc int // reference count, managed by WarmArena
	// gen advances every time the snapshot returns to the pool, so a
	// WarmSolver that mirrors it can tell a live snapshot from a recycled
	// one at the same address.
	gen uint64
}

// WarmArena pools WarmSnaps: branch and bound creates and discards one
// snapshot per surviving node, all identically sized within one model, so
// a freelist removes the dominant allocation. Release is reference-counted:
// a child whose tableau equals its parent's shares the parent's snapshot
// (see WarmSolver.Snapshot). An arena serves one search at a time.
type WarmArena struct {
	free []*WarmSnap
}

// NewWarmArena returns an empty snapshot pool.
func NewWarmArena() *WarmArena { return &WarmArena{} }

// get returns a snapshot with capacity for an m×n tableau over nStru
// structural variables, drawing from the freelist when possible. The
// returned snapshot has rc == 1.
func (wa *WarmArena) get(m, n, nStru int) *WarmSnap {
	var s *WarmSnap
	if wa != nil {
		if k := len(wa.free); k > 0 {
			s = wa.free[k-1]
			wa.free = wa.free[:k-1]
		}
	}
	if s == nil {
		s = &WarmSnap{}
	}
	s.m, s.n, s.nStru = m, n, nStru
	s.a = growF(s.a, m*n)
	s.b = growF(s.b, m)
	s.upper = growF(s.upper, n)
	s.cost2 = growF(s.cost2, n)
	s.lower = growF(s.lower, nStru)
	s.basis = growI32(s.basis, m)
	s.inBasis = growB(s.inBasis, n)
	s.atUpper = growB(s.atUpper, n)
	s.rc = 1
	return s
}

// Release drops one reference; the last release returns s to the pool.
func (wa *WarmArena) Release(s *WarmSnap) {
	if s == nil {
		return
	}
	if s.rc--; s.rc > 0 {
		return
	}
	s.gen++ // solvers mirroring s must copy in again
	if wa == nil {
		return // unpooled: let the GC take it
	}
	wa.free = append(wa.free, s)
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// snapFromTableau freezes the final state of a solved tableau. Only valid
// when t was built over the full problem (no presolve reduction), so the
// structural columns map 1:1 onto the problem's variables.
func snapFromTableau(t *tableau, wa *WarmArena) *WarmSnap {
	s := wa.get(t.m, t.n, t.nStru)
	s.artBase = t.artBase
	for i := 0; i < t.m; i++ {
		copy(s.a[i*t.n:(i+1)*t.n], t.a[i])
	}
	copy(s.b, t.b)
	copy(s.upper, t.upper)
	copy(s.cost2, t.cost2)
	copy(s.lower, t.p.lower[:t.nStru])
	for i, bi := range t.basis {
		s.basis[i] = int32(bi)
	}
	copy(s.inBasis, t.inBasis)
	copy(s.atUpper, t.atUpper)
	return s
}

// WarmResult reports one warm re-solve. Obj is meaningful only for Optimal.
// Infeasible means the tightened bounds admit no feasible point; IterLimit
// is the generic "no usable answer, use the cold path" outcome (iteration
// cap, numerical erosion, or an unusable delta).
type WarmResult struct {
	Status Status
	Obj    float64
	Iters  int
}

// WarmSolver re-solves LP relaxations from parent snapshots via the bounded
// dual simplex. One solver serves one search: it owns a working tableau
// sized to the model, reused across Resolve calls and — via Rebind —
// across models of similar size. It reads only the problem's immutable
// structure (objective, offset), never its mutable bounds.
//
// The solver remembers which snapshot, if any, its working tableau is
// bit-identical to (the mirror): the one it last froze, or the parent of a
// Resolve that changed nothing. A Resolve from the mirror skips the m×n
// copy-in, so the first child of a branching node resolves in place, and
// a Snapshot of an unchanged tableau shares the mirror instead of copying
// it. Neither shortcut changes any arithmetic.
type WarmSolver struct {
	p *Problem

	m, n, nStru, artBase int

	af      []float64 // m×n backing
	a       [][]float64
	b       []float64
	upper   []float64
	cost2   []float64
	lower   []float64
	basis   []int
	inBasis []bool
	atUpper []bool

	mirror    *WarmSnap
	mirrorGen uint64 // mirror.gen when the mirror was taken
}

// NewWarmSolver returns a solver for p.
func NewWarmSolver(p *Problem) *WarmSolver { return &WarmSolver{p: p} }

// Rebind points the solver at a new problem, keeping its working buffers.
func (w *WarmSolver) Rebind(p *Problem) { w.p = p }

// load copies a snapshot into the working tableau.
func (w *WarmSolver) load(s *WarmSnap) {
	m, n := s.m, s.n
	w.m, w.n, w.nStru, w.artBase = m, n, s.nStru, s.artBase
	w.af = growF(w.af, m*n)
	copy(w.af, s.a)
	if cap(w.a) < m {
		w.a = make([][]float64, m)
	}
	w.a = w.a[:m]
	for i := range w.a {
		w.a[i] = w.af[i*n : (i+1)*n]
	}
	w.b = growF(w.b, m)
	copy(w.b, s.b)
	w.upper = growF(w.upper, n)
	copy(w.upper, s.upper)
	w.cost2 = growF(w.cost2, n)
	copy(w.cost2, s.cost2)
	w.lower = growF(w.lower, s.nStru)
	copy(w.lower, s.lower)
	if cap(w.basis) < m {
		w.basis = make([]int, m)
	}
	w.basis = w.basis[:m]
	for i, bi := range s.basis {
		w.basis[i] = int(bi)
	}
	w.inBasis = growB(w.inBasis, n)
	copy(w.inBasis, s.inBasis)
	w.atUpper = growB(w.atUpper, n)
	copy(w.atUpper, s.atUpper)
}

// mirrors reports whether the working tableau is bit-identical to s: s is
// the mirror and has not been recycled since.
func (w *WarmSolver) mirrors(s *WarmSnap) bool {
	return s != nil && w.mirror == s && w.mirrorGen == s.gen
}

// applyDelta tightens the bounds of one structural variable in the working
// tableau: basic variables re-shift their stored value, nonbasic variables
// move with their resting bound (an O(m) column update). moved is false
// when the delta leaves the variable's box, and hence every tableau entry,
// exactly as it was. ok is false when the delta is unusable (empty box or
// not a tightening), telling the caller to fall back to a cold solve.
func (w *WarmSolver) applyDelta(d BoundDelta) (moved, ok bool) {
	v := int(d.Var)
	if v < 0 || v >= w.nStru {
		return false, false
	}
	oldLo := w.lower[v]
	oldHi := math.Inf(1)
	if !math.IsInf(w.upper[v], 1) {
		oldHi = oldLo + w.upper[v]
	}
	lo, hi := d.Lo, d.Hi
	if lo < oldLo-1e-12 || hi > oldHi+1e-12 {
		return false, false // a relaxation, not a tightening: basis may be stale
	}
	if lo < oldLo {
		lo = oldLo
	}
	if hi > oldHi {
		hi = oldHi
	}
	if hi < lo {
		return false, false
	}
	newUpper := Inf
	if !math.IsInf(hi, 1) {
		newUpper = hi - lo
	}
	if lo == oldLo && hi == oldHi && newUpper == w.upper[v] && !(newUpper == 0 && w.atUpper[v]) {
		return false, true // the updates below would rewrite every value unchanged
	}

	if w.inBasis[v] {
		// Basic: the stored value is measured from the lower bound; re-shift.
		for i := 0; i < w.m; i++ {
			if w.basis[i] == v {
				w.b[i] -= lo - oldLo
				break
			}
		}
	} else {
		// Nonbasic: the variable rests on a bound, and the bound moved.
		rest := oldLo
		newRest := lo
		if w.atUpper[v] {
			rest, newRest = oldHi, hi
		}
		if delta := newRest - rest; delta != 0 {
			for i := 0; i < w.m; i++ {
				if aiv := w.a[i][v]; aiv != 0 {
					w.b[i] -= delta * aiv
				}
			}
		}
	}
	w.lower[v] = lo
	w.upper[v] = newUpper
	if w.upper[v] == 0 {
		w.atUpper[v] = false
	}
	return true, true
}

// dualSimplex restores primal feasibility from a dual-feasible basis:
// repeatedly drop the most-violated basic variable to its violated bound
// and bring in the column that preserves dual feasibility (smallest
// reduced-cost ratio, lowest index on near-ties). Terminates Optimal
// (primal feasible), Infeasible (a violated row with no eligible column
// proves the box empty) or IterLimit.
func (w *WarmSolver) dualSimplex(maxIt int) (Status, int) {
	for it := 0; ; it++ {
		if it >= maxIt {
			return IterLimit, it
		}
		// Most violated basic variable.
		leave, leaveAtUpper := -1, false
		worst := epsFeas
		for i := 0; i < w.m; i++ {
			bi := w.b[i]
			if -bi > worst {
				worst, leave, leaveAtUpper = -bi, i, false
			}
			if ub := w.upper[w.basis[i]]; !math.IsInf(ub, 1) && bi-ub > worst {
				worst, leave, leaveAtUpper = bi-ub, i, true
			}
		}
		if leave < 0 {
			return Optimal, it
		}

		// Dual ratio test over eligible entering columns.
		row := w.a[leave]
		enter, bestRatio := -1, math.Inf(1)
		for j := 0; j < w.artBase; j++ {
			if w.inBasis[j] || w.upper[j] == 0 {
				continue
			}
			arj := row[j]
			if math.Abs(arj) <= epsPivot {
				continue
			}
			// The leaving variable must move back toward its violated bound:
			// increase when it fell below lower, decrease when above upper.
			var ok bool
			if !leaveAtUpper {
				ok = (!w.atUpper[j] && arj < 0) || (w.atUpper[j] && arj > 0)
			} else {
				ok = (!w.atUpper[j] && arj > 0) || (w.atUpper[j] && arj < 0)
			}
			if !ok {
				continue
			}
			ratio := math.Abs(w.cost2[j]) / math.Abs(arj)
			if ratio < bestRatio-1e-12 {
				bestRatio, enter = ratio, j
			}
		}
		if enter < 0 {
			return Infeasible, it
		}
		w.dualPivot(leave, enter, leaveAtUpper)
	}
}

// dualPivot swaps entering column j into the basis at row r, moving the
// leaving variable exactly onto its violated bound.
func (w *WarmSolver) dualPivot(r, j int, leaveAtUpper bool) {
	row := w.a[r]
	piv := row[j]
	leaving := w.basis[r]
	target := 0.0
	if leaveAtUpper {
		target = w.upper[leaving]
	}
	dx := (w.b[r] - target) / piv // change in the entering variable's value
	e0 := 0.0
	if w.atUpper[j] {
		e0 = w.upper[j]
	}
	enterVal := e0 + dx

	for i := 0; i < w.m; i++ {
		if i == r {
			continue
		}
		if aij := w.a[i][j]; aij != 0 {
			w.b[i] -= aij * dx
		}
	}
	inv := 1 / piv
	for k := 0; k < w.n; k++ {
		row[k] *= inv
	}
	for i := 0; i < w.m; i++ {
		if i == r {
			continue
		}
		f := w.a[i][j]
		if f == 0 {
			continue
		}
		ri := w.a[i]
		for k := 0; k < w.n; k++ {
			ri[k] -= f * row[k]
		}
		ri[j] = 0
	}
	if f := w.cost2[j]; f != 0 {
		for k := 0; k < w.n; k++ {
			w.cost2[k] -= f * row[k]
		}
		w.cost2[j] = 0
	}
	w.b[r] = enterVal
	w.inBasis[leaving] = false
	w.atUpper[leaving] = leaveAtUpper
	if w.upper[leaving] == 0 {
		w.atUpper[leaving] = false
	}
	w.inBasis[j] = true
	w.atUpper[j] = false
	w.basis[r] = j
}

// dualClean verifies dual feasibility survived the pivots; erosion beyond
// tolerance voids the bound and the caller must go cold.
func (w *WarmSolver) dualClean() bool {
	for j := 0; j < w.artBase; j++ {
		if w.inBasis[j] || w.upper[j] == 0 {
			continue
		}
		if !w.atUpper[j] {
			if w.cost2[j] < -1e-7 {
				return false
			}
		} else if w.cost2[j] > 1e-7 {
			return false
		}
	}
	return true
}

// objective evaluates the problem objective at the working tableau's point.
func (w *WarmSolver) objective() float64 {
	obj := w.p.objOff
	for j := 0; j < w.nStru; j++ {
		if w.inBasis[j] {
			continue
		}
		x := w.lower[j]
		if w.atUpper[j] {
			x += w.upper[j]
		}
		obj += w.p.obj[j] * x
	}
	for i := 0; i < w.m; i++ {
		if bj := w.basis[i]; bj < w.nStru {
			obj += w.p.obj[bj] * (w.lower[bj] + w.b[i])
		}
	}
	return obj
}

// Resolve computes the LP value of a child node from its parent's frozen
// optimum: load the snapshot (unless the working tableau already mirrors
// it), tighten the bounds, restore primal feasibility dual-simplex-wise.
// The parent snapshot is not modified. On Optimal the working tableau
// holds the child's optimum and may be frozen with Snapshot for the
// grandchildren.
func (w *WarmSolver) Resolve(parent *WarmSnap, deltas []BoundDelta) WarmResult {
	if !w.mirrors(parent) {
		w.load(parent)
	}
	w.mirror = nil
	moved := false
	for _, d := range deltas {
		m, ok := w.applyDelta(d)
		if !ok {
			return WarmResult{Status: IterLimit}
		}
		moved = moved || m
	}
	st, iters := w.dualSimplex(4*w.m + 100)
	if !moved && iters == 0 {
		w.mirror, w.mirrorGen = parent, parent.gen
	}
	if st == Optimal && !w.dualClean() {
		return WarmResult{Status: IterLimit, Iters: iters}
	}
	res := WarmResult{Status: st, Iters: iters}
	if st == Optimal {
		res.Obj = w.objective()
	}
	return res
}

// Solution materialises the working tableau's point as a full LP solution
// in the problem's variable space (valid after an Optimal Resolve): every
// nonbasic structural at its resting bound, every basic one at its row's
// value. obj and iters come from the Resolve that produced the tableau.
func (w *WarmSolver) Solution(obj float64, iters int) *Solution {
	x := make([]float64, w.nStru)
	for j := 0; j < w.nStru; j++ {
		if w.inBasis[j] {
			continue
		}
		x[j] = w.lower[j]
		if w.atUpper[j] {
			x[j] += w.upper[j]
		}
	}
	for i := 0; i < w.m; i++ {
		if bj := w.basis[i]; bj < w.nStru {
			x[bj] = w.lower[bj] + w.b[i]
		}
	}
	return &Solution{Status: Optimal, Obj: obj, X: x, Iters: iters}
}

// Snapshot freezes the working tableau (valid after an Optimal Resolve).
// When the tableau mirrors a live snapshot, that snapshot gains a
// reference and is returned instead of a copy; either way the caller
// releases the result once.
func (w *WarmSolver) Snapshot(wa *WarmArena) *WarmSnap {
	if w.mirrors(w.mirror) {
		w.mirror.rc++
		return w.mirror
	}
	s := wa.get(w.m, w.n, w.nStru)
	s.artBase = w.artBase
	copy(s.a, w.af[:w.m*w.n])
	copy(s.b, w.b)
	copy(s.upper, w.upper)
	copy(s.cost2, w.cost2)
	copy(s.lower, w.lower)
	for i, bi := range w.basis {
		s.basis[i] = int32(bi)
	}
	copy(s.inBasis, w.inBasis)
	copy(s.atUpper, w.atUpper)
	w.mirror, w.mirrorGen = s, s.gen
	return s
}

// ObjectiveFloor returns a lower bound on the optimal objective computed
// from the variable bounds alone — every row ignored, every variable at its
// cheapest feasible value (the dual bound of the all-zero dual point). It
// is O(n) and exact arithmetic over the bounds, so branch and bound can
// test it against the incumbent before paying for an LP solve; -Inf when a
// negative-cost variable is unbounded above.
func (p *Problem) ObjectiveFloor() float64 {
	fl := p.objOff
	for j, c := range p.obj {
		switch {
		case c > 0:
			fl += c * p.lower[j]
		case c < 0:
			u := p.upper[j]
			if math.IsInf(u, 1) {
				return math.Inf(-1)
			}
			fl += c * u
		}
	}
	return fl
}

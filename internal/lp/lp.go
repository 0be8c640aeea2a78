// Package lp implements a linear-programming solver: a dense two-phase
// primal simplex with bounded variables (nonbasic variables may rest at
// their lower or upper bound) and a Bland anti-cycling fallback.
//
// It is the foundation of the MILP solver in internal/milp, which together
// replace the commercial ILP solver (Gurobi) used by the paper. The solver
// is deliberately dense and allocation-friendly: the dynamic-device mapping
// models it has to carry are a few hundred rows by a few thousand columns.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a row relation.
type Rel int

// Row relations.
const (
	LE Rel = iota // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
	EQ            // Σ aᵢxᵢ = b
)

// String returns the relation symbol.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("rel(%d)", int(r))
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Inf is the upper bound meaning "no upper bound".
var Inf = math.Inf(1)

// Var is a variable handle (an index into the problem's variables).
type Var int

// Term is one coefficient of a linear row.
type Term struct {
	Var  Var
	Coef float64
}

// Problem is an LP in the form
//
//	minimize   c·x
//	subject to Σ aᵢxᵢ {≤,=,≥} b   per row
//	           l ≤ x ≤ u          per variable (l finite, u may be +Inf)
type Problem struct {
	obj    []float64
	lower  []float64
	upper  []float64
	names  []string
	rows   [][]Term
	rels   []Rel
	rhs    []float64
	maxIt  int
	objOff float64
}

// NewProblem returns an empty minimisation problem.
func NewProblem() *Problem { return &Problem{} }

// SetIterLimit bounds the total number of simplex pivots (0 = automatic).
func (p *Problem) SetIterLimit(n int) { p.maxIt = n }

// AddVar adds a variable with bounds [lower, upper] and objective
// coefficient obj. lower must be finite; upper may be lp.Inf.
func (p *Problem) AddVar(name string, lower, upper, obj float64) Var {
	if math.IsInf(lower, 0) || math.IsNaN(lower) {
		panic(fmt.Sprintf("lp: variable %q needs a finite lower bound", name))
	}
	if upper < lower {
		panic(fmt.Sprintf("lp: variable %q has upper %g < lower %g", name, upper, lower))
	}
	p.obj = append(p.obj, obj)
	p.lower = append(p.lower, lower)
	p.upper = append(p.upper, upper)
	p.names = append(p.names, name)
	return Var(len(p.obj) - 1)
}

// AddBinary adds a {0,1}-bounded variable (continuous here; the MILP layer
// enforces integrality).
func (p *Problem) AddBinary(name string, obj float64) Var {
	return p.AddVar(name, 0, 1, obj)
}

// SetObj overwrites the objective coefficient of v.
func (p *Problem) SetObj(v Var, c float64) { p.obj[v] = c }

// ObjCoef returns the objective coefficient of v.
func (p *Problem) ObjCoef(v Var) float64 { return p.obj[v] }

// AddObjOffset adds a constant to the objective value.
func (p *Problem) AddObjOffset(c float64) { p.objOff += c }

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// Name returns the name of v.
func (p *Problem) Name(v Var) string { return p.names[v] }

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v Var) (lower, upper float64) { return p.lower[v], p.upper[v] }

// SetBounds changes the bounds of v (used by branch & bound).
func (p *Problem) SetBounds(v Var, lower, upper float64) {
	p.lower[v], p.upper[v] = lower, upper
}

// BoundsSnapshot returns copies of the full lower and upper bound vectors.
func (p *Problem) BoundsSnapshot() (lower, upper []float64) {
	return append([]float64(nil), p.lower...), append([]float64(nil), p.upper...)
}

// RestoreBounds overwrites every variable's bounds from vectors previously
// produced by BoundsSnapshot.
func (p *Problem) RestoreBounds(lower, upper []float64) {
	copy(p.lower, lower)
	copy(p.upper, upper)
}

// AddRow adds the constraint Σ terms {rel} rhs. Terms may repeat a variable;
// coefficients are summed.
func (p *Problem) AddRow(terms []Term, rel Rel, rhs float64) {
	own := make([]Term, len(terms))
	copy(own, terms)
	p.rows = append(p.rows, own)
	p.rels = append(p.rels, rel)
	p.rhs = append(p.rhs, rhs)
}

// Solution is the result of a successful solve.
type Solution struct {
	Status Status
	// Obj is the objective value (including any offset).
	Obj float64
	// X holds the variable values.
	X []float64
	// Iters is the number of simplex pivots performed.
	Iters int
}

// Value returns the value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

const (
	epsCost  = 1e-9 // reduced-cost optimality tolerance
	epsPivot = 1e-8 // minimum pivot magnitude
	epsFeas  = 1e-7 // feasibility tolerance (phase-1 residual)
)

// ErrBadModel reports a structurally unusable model.
var ErrBadModel = errors.New("lp: bad model")

// Solve runs presolve followed by two-phase bounded simplex. The problem
// is not modified. The returned solution has Status Optimal, Infeasible,
// Unbounded or IterLimit; X is only meaningful for Optimal.
func (p *Problem) Solve() (*Solution, error) { return p.SolvePresolved() }

// tableau is the dense working form. All structural variables are shifted so
// their lower bound is 0; nonbasic variables rest at value 0 ("low") or at
// their (shifted) upper bound.
type tableau struct {
	p *Problem

	m, n   int // rows, total columns (structural + slack + artificial)
	nStru  int
	nSlack int

	a     [][]float64 // m × n constraint matrix, updated in place by pivots
	b     []float64   // m basic values
	upper []float64   // n column upper bounds (shifted); Inf allowed
	cost2 []float64   // phase-2 reduced costs, length n
	cost1 []float64   // phase-1 reduced costs, length n
	z1    float64     // phase-1 objective (sum of artificial values)
	z2    float64     // phase-2 objective (shifted)

	basis   []int  // basis[i] = column basic in row i
	inBasis []bool // per column
	atUpper []bool // per nonbasic column
	artBase int    // first artificial column
	iters   int
	maxIt   int
}

func newTableau(p *Problem, scratch *Scratch) (*tableau, error) {
	m := len(p.rows)
	nStru := len(p.obj)
	// Count slacks: one per LE/GE row.
	nSlack := 0
	for _, r := range p.rels {
		if r != EQ {
			nSlack++
		}
	}
	n := nStru + nSlack + m // artificials allocated per row; unused ones get upper bound 0
	if scratch != nil {
		scratch.begin(m, n)
	}
	t := &tableau{
		p: p, m: m, n: n, nStru: nStru, nSlack: nSlack,
		a:       scratch.matrix(m, n),
		b:       scratch.floats(m),
		upper:   scratch.floats(n),
		cost2:   scratch.floats(n),
		cost1:   scratch.floats(n),
		basis:   scratch.intSlice(m),
		inBasis: scratch.boolSlice(n),
		atUpper: scratch.boolSlice(n),
		artBase: nStru + nSlack,
		maxIt:   p.maxIt,
	}
	if t.maxIt == 0 {
		t.maxIt = 2000 * (m + n + 10)
	}
	for j := 0; j < nStru; j++ {
		t.upper[j] = p.upper[j] - p.lower[j]
		t.cost2[j] = p.obj[j]
	}

	// Build rows: shift structurals, add slacks, normalise rhs ≥ 0, add
	// artificials where the slack cannot serve as the initial basic var.
	slack := nStru
	for i := 0; i < m; i++ {
		row := t.a[i] // zeroed by the arena (or fresh)
		for _, term := range p.rows[i] {
			if int(term.Var) < 0 || int(term.Var) >= nStru {
				return nil, fmt.Errorf("%w: row %d references unknown variable %d", ErrBadModel, i, term.Var)
			}
			row[term.Var] += term.Coef
		}
		rhs := p.rhs[i]
		for j := 0; j < nStru; j++ {
			rhs -= row[j] * p.lower[j]
		}
		sCol := -1
		switch p.rels[i] {
		case LE:
			sCol = slack
			row[sCol] = 1
			t.upper[sCol] = Inf
			slack++
		case GE:
			sCol = slack
			row[sCol] = -1
			t.upper[sCol] = Inf
			slack++
		case EQ:
			// no slack
		default:
			return nil, fmt.Errorf("%w: row %d has unknown relation", ErrBadModel, i)
		}
		if rhs < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		t.a[i] = row
		t.b[i] = rhs

		if sCol >= 0 && row[sCol] > 0 {
			// Slack has +1 after normalisation: use it as the basic var.
			t.basis[i] = sCol
			t.inBasis[sCol] = true
			t.upper[t.artBase+i] = 0 // artificial unused
		} else {
			art := t.artBase + i
			t.a[i][art] = 1
			t.upper[art] = Inf
			t.cost1[art] = 1
			t.basis[i] = art
			t.inBasis[art] = true
		}
	}

	// Initial reduced costs: subtract basic-cost multiples of rows. Only
	// artificials carry phase-1 cost, and they start with identity columns,
	// so d1_j = -Σ over artificial-basic rows of a[i][j].
	for i := 0; i < m; i++ {
		if t.basis[i] >= t.artBase {
			for j := 0; j < t.n; j++ {
				t.cost1[j] -= t.a[i][j]
			}
			t.z1 += t.b[i]
		}
	}
	// cost1 of the basic artificials themselves becomes 0 (1 - 1).
	return t, nil
}

// solve runs phase 1 then phase 2.
func (t *tableau) solve() (*Solution, error) {
	// Phase 1: minimise artificial sum.
	if t.z1 > epsFeas {
		st := t.iterate(true)
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		if t.z1 > epsFeas {
			return &Solution{Status: Infeasible, Iters: t.iters}, nil
		}
	}
	t.expelArtificials()

	st := t.iterate(false)
	if st != Optimal {
		return &Solution{Status: st, Iters: t.iters}, nil
	}
	return t.extract(), nil
}

// iterate runs simplex pivots on the phase-1 (phase1=true) or phase-2
// reduced costs until optimal, unbounded or the iteration limit.
func (t *tableau) iterate(phase1 bool) Status {
	stall := 0
	lastZ := math.Inf(1)
	for {
		if t.iters >= t.maxIt {
			return IterLimit
		}
		cost := t.cost2
		if phase1 {
			cost = t.cost1
		}
		bland := stall > 2*(t.m+10)
		j, dir := t.chooseEntering(cost, phase1, bland)
		if j < 0 {
			return Optimal
		}
		leave, tMax, flip := t.ratioTest(j, dir)
		if leave < 0 && !flip {
			if phase1 {
				// Phase-1 objective is bounded below by 0; treat as stalled
				// optimality of the phase.
				return Optimal
			}
			return Unbounded
		}
		t.applyStep(j, dir, leave, tMax, flip)
		t.iters++

		z := t.z2
		if phase1 {
			z = t.z1
		}
		if z < lastZ-1e-12 {
			lastZ = z
			stall = 0
		} else {
			stall++
		}
		if phase1 && t.z1 <= epsFeas {
			return Optimal
		}
	}
}

// chooseEntering picks an entering column and direction (+1 = increase from
// lower, -1 = decrease from upper). Dantzig rule by default; Bland when
// stalled. Returns -1 when optimal.
func (t *tableau) chooseEntering(cost []float64, phase1, bland bool) (col, dir int) {
	best, bestScore := -1, epsCost
	bestDir := 0
	for j := 0; j < t.n; j++ {
		if t.inBasis[j] || t.upper[j] == 0 {
			continue
		}
		if !phase1 && j >= t.artBase {
			continue // artificials stay out in phase 2
		}
		var score float64
		var d int
		if !t.atUpper[j] && cost[j] < -epsCost {
			score, d = -cost[j], +1
		} else if t.atUpper[j] && cost[j] > epsCost {
			score, d = cost[j], -1
		} else {
			continue
		}
		if bland {
			return j, d
		}
		if score > bestScore {
			best, bestScore, bestDir = j, score, d
		}
	}
	return best, bestDir
}

// ratioTest finds how far the entering column j can move in direction dir.
// It returns the leaving row (-1 if none), the step length, and whether the
// step is a pure bound flip of j.
func (t *tableau) ratioTest(j, dir int) (leaveRow int, step float64, flip bool) {
	limit := t.upper[j] // bound-flip distance
	leaveRow = -1
	step = limit
	leaveAtUpper := false
	for i := 0; i < t.m; i++ {
		aij := t.a[i][j] * float64(dir)
		if math.Abs(aij) < epsPivot {
			continue
		}
		bi := t.basis[i]
		var ratio float64
		var hitsUpper bool
		if aij > 0 {
			// Basic value decreases toward 0.
			ratio = t.b[i] / aij
			hitsUpper = false
		} else {
			// Basic value increases toward its upper bound.
			ub := t.upper[bi]
			if math.IsInf(ub, 1) {
				continue
			}
			ratio = (ub - t.b[i]) / -aij
			hitsUpper = true
		}
		if ratio < -1e-12 {
			ratio = 0
		}
		if ratio < step-1e-12 || (ratio < step+1e-12 && leaveRow >= 0 && t.basis[i] < t.basis[leaveRow]) {
			step = ratio
			leaveRow = i
			leaveAtUpper = hitsUpper
		}
	}
	if leaveRow < 0 {
		if math.IsInf(limit, 1) {
			return -1, 0, false
		}
		return -1, limit, true // bound flip
	}
	_ = leaveAtUpper
	return leaveRow, step, false
}

// applyStep performs either a bound flip of column j or a pivot where j
// enters the basis and basis[leave] leaves.
func (t *tableau) applyStep(j, dir, leave int, step float64, flip bool) {
	if flip {
		// Move j across its range: basic values shift, costs unchanged.
		if step != 0 {
			for i := 0; i < t.m; i++ {
				t.b[i] -= float64(dir) * step * t.a[i][j]
			}
			t.z1 += float64(dir) * step * t.cost1[j]
			t.z2 += float64(dir) * step * t.cost2[j]
		}
		t.atUpper[j] = !t.atUpper[j]
		return
	}

	// The entering variable's new basic value (measured from its lower
	// bound): step if entering from lower, upper-step if from upper.
	enterVal := step
	if dir < 0 {
		enterVal = t.upper[j] - step
	}

	piv := t.a[leave][j]
	// If entering from upper bound, it is convenient to first re-express
	// the column as "distance below upper": handled implicitly below by
	// computing the new rhs directly.
	leaving := t.basis[leave]

	// Update basic values for all rows except the pivot row.
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		t.b[i] -= float64(dir) * step * t.a[i][j]
	}
	t.z1 += float64(dir) * step * t.cost1[j]
	t.z2 += float64(dir) * step * t.cost2[j]

	// Determine whether the leaving variable exits at lower (0) or upper.
	leaveVal := t.b[leave] - float64(dir)*step*piv
	lvUpper := false
	if ub := t.upper[leaving]; !math.IsInf(ub, 1) && math.Abs(leaveVal-ub) < math.Abs(leaveVal) {
		lvUpper = true
	}

	// Normalise pivot row.
	inv := 1 / piv
	row := t.a[leave]
	for k := 0; k < t.n; k++ {
		row[k] *= inv
	}
	t.b[leave] = enterVal

	// Eliminate column j elsewhere.
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][j]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for k := 0; k < t.n; k++ {
			ri[k] -= f * row[k]
		}
		ri[j] = 0
	}
	// Update both cost rows.
	for _, cost := range [][]float64{t.cost1, t.cost2} {
		f := cost[j]
		if f != 0 {
			for k := 0; k < t.n; k++ {
				cost[k] -= f * row[k]
			}
			cost[j] = 0
		}
	}

	t.inBasis[leaving] = false
	t.atUpper[leaving] = lvUpper
	t.inBasis[j] = true
	t.atUpper[j] = false
	t.basis[leave] = j
}

// expelArtificials pivots basic artificial variables (at value ~0) out of
// the basis or zeroes their rows, so phase 2 cannot reuse them.
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		bi := t.basis[i]
		if bi < t.artBase {
			continue
		}
		// Find any usable pivot among non-artificial columns.
		pivCol := -1
		for j := 0; j < t.artBase; j++ {
			if !t.inBasis[j] && t.upper[j] != 0 && math.Abs(t.a[i][j]) > epsPivot {
				pivCol = j
				break
			}
		}
		if pivCol < 0 {
			// Redundant row: keep the artificial basic at 0 but forbid it
			// from moving by clamping its bound.
			t.upper[bi] = 0
			continue
		}
		t.pivotInPlace(i, pivCol)
	}
	// Freeze all nonbasic artificials at 0.
	for j := t.artBase; j < t.n; j++ {
		if !t.inBasis[j] {
			t.upper[j] = 0
			t.atUpper[j] = false
		}
	}
}

// pivotInPlace performs a degenerate pivot: the entering column j joins the
// basis at its current bound value and the leaving (artificial, value ~0)
// variable exits, with no change to any variable's value.
func (t *tableau) pivotInPlace(leave, j int) {
	piv := t.a[leave][j]
	leaving := t.basis[leave]
	enterVal := 0.0
	if t.atUpper[j] {
		enterVal = t.upper[j]
	}
	inv := 1 / piv
	row := t.a[leave]
	for k := 0; k < t.n; k++ {
		row[k] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][j]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for k := 0; k < t.n; k++ {
			ri[k] -= f * row[k]
		}
		ri[j] = 0
		// No b update: nothing moves in a degenerate pivot.
	}
	for _, cost := range [][]float64{t.cost1, t.cost2} {
		f := cost[j]
		if f != 0 {
			for k := 0; k < t.n; k++ {
				cost[k] -= f * row[k]
			}
			cost[j] = 0
		}
	}
	t.b[leave] = enterVal
	t.inBasis[leaving] = false
	t.atUpper[leaving] = false
	t.inBasis[j] = true
	t.atUpper[j] = false
	t.basis[leave] = j
}

// extract builds the Solution from the final tableau.
func (t *tableau) extract() *Solution {
	x := make([]float64, t.nStru)
	for j := 0; j < t.nStru; j++ {
		if t.atUpper[j] {
			x[j] = t.upper[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.nStru {
			x[t.basis[i]] = t.b[i]
		}
	}
	obj := t.p.objOff
	for j := 0; j < t.nStru; j++ {
		x[j] += t.p.lower[j]
		obj += t.p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, Obj: obj, X: x, Iters: t.iters}
}

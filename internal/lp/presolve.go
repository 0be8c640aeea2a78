package lp

import (
	"fmt"
	"math"
)

// presolve produces a reduced problem with all fixed variables (lower ==
// upper) substituted into the rows and the objective. With the
// branch-and-bound searches above fixing large variable sets to zero, the
// per-node tableau shrinks accordingly.
type presolved struct {
	reduced *Problem
	// keep[i] is the original index of reduced variable i.
	keep []Var
	// fixedVal[v] is the value of original variable v if fixed.
	fixedVal map[Var]float64
	// objOff accumulates the fixed variables' objective contribution.
	objOff float64
	// infeasible is set when a row without free variables is violated.
	infeasible bool
}

const fixTol = 1e-12

// reduce builds the presolved problem. It never modifies p.
func (p *Problem) reduce() *presolved {
	pr := &presolved{fixedVal: map[Var]float64{}}
	nFixed := 0
	for v := 0; v < p.NumVars(); v++ {
		if p.upper[v]-p.lower[v] <= fixTol {
			pr.fixedVal[Var(v)] = p.lower[v]
			nFixed++
		}
	}
	if nFixed == 0 {
		pr.reduced = p
		return pr
	}

	red := NewProblem()
	red.maxIt = p.maxIt
	newIdx := make([]Var, p.NumVars())
	for v := 0; v < p.NumVars(); v++ {
		if val, fixed := pr.fixedVal[Var(v)]; fixed {
			newIdx[v] = -1
			pr.objOff += p.obj[v] * val
			continue
		}
		newIdx[v] = red.AddVar(p.names[v], p.lower[v], p.upper[v], p.obj[v])
		pr.keep = append(pr.keep, Var(v))
	}
	red.AddObjOffset(p.objOff + pr.objOff)

	for i := range p.rows {
		rhs := p.rhs[i]
		var terms []Term
		for _, t := range p.rows[i] {
			if val, fixed := pr.fixedVal[t.Var]; fixed {
				rhs -= t.Coef * val
				continue
			}
			terms = append(terms, Term{Var: newIdx[t.Var], Coef: t.Coef})
		}
		if len(terms) == 0 {
			// Constant row: feasible or not, no variable can change it.
			ok := true
			switch p.rels[i] {
			case LE:
				ok = rhs >= -1e-7
			case GE:
				ok = rhs <= 1e-7
			case EQ:
				ok = math.Abs(rhs) <= 1e-7
			}
			if !ok {
				pr.infeasible = true
				return pr
			}
			continue
		}
		red.AddRow(terms, p.rels[i], rhs)
	}
	pr.reduced = red
	return pr
}

// expand maps a reduced solution back to the original variable space.
func (pr *presolved) expand(p *Problem, sol *Solution) *Solution {
	if pr.reduced == p {
		return sol
	}
	x := make([]float64, p.NumVars())
	for v, val := range pr.fixedVal {
		x[v] = val
	}
	for i, orig := range pr.keep {
		x[orig] = sol.X[i]
	}
	return &Solution{Status: sol.Status, Obj: sol.Obj, X: x, Iters: sol.Iters}
}

// SolvePresolved runs reduce + simplex + expand. Problem.Solve delegates
// here; the split exists so tests can target the presolve path directly.
func (p *Problem) SolvePresolved() (*Solution, error) { return p.SolveScratch(nil) }

// SolveScratch is SolvePresolved drawing its tableau from the given arena
// (nil = allocate fresh). Branch-and-bound callers keep one Scratch and
// pass it to every node solve.
func (p *Problem) SolveScratch(scratch *Scratch) (*Solution, error) {
	for i := range p.rows {
		for _, t := range p.rows[i] {
			if int(t.Var) < 0 || int(t.Var) >= p.NumVars() {
				return nil, fmt.Errorf("%w: row %d references unknown variable %d", ErrBadModel, i, t.Var)
			}
		}
	}
	pr := p.reduce()
	if pr.infeasible {
		return &Solution{Status: Infeasible}, nil
	}
	if pr.reduced.NumVars() == 0 {
		// Everything fixed and all rows satisfied.
		x := make([]float64, p.NumVars())
		obj := p.objOff
		for v, val := range pr.fixedVal {
			x[v] = val
			obj += p.obj[v] * val
		}
		return &Solution{Status: Optimal, Obj: obj, X: x}, nil
	}
	t, err := newTableau(pr.reduced, scratch)
	if err != nil {
		return nil, fmt.Errorf("lp: presolved model: %w", err)
	}
	sol, err := t.solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		return sol, nil
	}
	return pr.expand(p, sol), nil
}

// SolveScratchRetain is SolveScratch that additionally freezes the final
// simplex tableau as a warm-start seed for child-node re-solves. To keep
// the tableau columns mapped 1:1 onto problem variables — the layout the
// warm re-solver expects — it solves the problem full-space, skipping
// presolve: fixed variables (lower == upper) have zero range after the
// tableau's bound shift and are never priced into the basis, so they cost
// column space but no pivots. The snapshot is available whenever the solve
// ends Optimal; otherwise it is nil and callers use the cold path. The
// caller owns the returned snapshot and must Release it to wa.
func (p *Problem) SolveScratchRetain(scratch *Scratch, wa *WarmArena) (*Solution, *WarmSnap, error) {
	for i := range p.rows {
		for _, t := range p.rows[i] {
			if int(t.Var) < 0 || int(t.Var) >= p.NumVars() {
				return nil, nil, fmt.Errorf("%w: row %d references unknown variable %d", ErrBadModel, i, t.Var)
			}
		}
	}
	if p.NumVars() == 0 {
		sol, err := p.SolveScratch(scratch)
		return sol, nil, err
	}
	t, err := newTableau(p, scratch)
	if err != nil {
		return nil, nil, err
	}
	sol, err := t.solve()
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != Optimal {
		return sol, nil, nil
	}
	return sol, snapFromTableau(t, wa), nil
}

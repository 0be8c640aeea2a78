package milp

import "mfsynth/internal/lp"

// Arenas bundles the reusable solver state of branch and bound: a tableau
// arena, a warm-start solver and a pool of frozen-basis snapshots. A caller
// that solves many related models — the rolling-horizon mapper solves one
// per window — keeps a single Arenas and passes it through Options so
// tableaus, dual-simplex working buffers and snapshots survive across
// solves instead of being reallocated per batch. When Options.Arenas is
// nil, Solve creates a private one. An Arenas serves one solve at a time.
type Arenas struct {
	scratch *lp.Scratch
	warm    *lp.WarmSolver
	snaps   *lp.WarmArena
}

// NewArenas returns an empty arena bundle.
func NewArenas() *Arenas {
	return &Arenas{scratch: lp.NewScratch(), snaps: lp.NewWarmArena()}
}

// bind returns the tableau arena and the warm solver, (re)bound to p.
func (a *Arenas) bind(p *lp.Problem) (*lp.Scratch, *lp.WarmSolver) {
	if a.warm == nil {
		a.warm = lp.NewWarmSolver(p)
	} else {
		a.warm.Rebind(p)
	}
	return a.scratch, a.warm
}

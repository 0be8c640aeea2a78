package place

import (
	"mfsynth/internal/arch"
	"mfsynth/internal/obs"
	"mfsynth/internal/synerr"
)

// solveRolling runs the rolling-horizon decomposition: the ILP of
// solveBatch over consecutive creation-order batches, with all earlier
// placements fixed and their peristaltic loads carried as constants in the
// v(x,y) accumulation. The constraint system per batch is exactly the
// paper's; only the scope of simultaneously-open decisions is reduced,
// which is what makes the two dilution benchmarks tractable for a
// from-scratch MILP solver.
func (pr *problem) solveRolling(sp *obs.Span) (*Mapping, error) {
	fixed := map[int]arch.Placement{}
	pump := pr.seedPump() // wear prior: past load enters the ILP as constants
	stats := Stats{Exact: true}

	for start := 0; start < len(pr.ops); start += pr.cfg.BatchSize {
		if err := pr.ctx.Err(); err != nil {
			return nil, synerr.Deadline("place", err)
		}
		end := start + pr.cfg.BatchSize
		if end > len(pr.ops) {
			end = len(pr.ops)
		}
		batch := pr.ops[start:end]
		bsp := sp.Start("place.batch",
			obs.KV("start", start), obs.KV("ops", len(batch)))
		placements, info, err := pr.solveBatch(batch, fixed, pump, batchOpts{obs: bsp})
		bsp.End()
		if err != nil {
			return nil, err
		}
		stats.ILPSolves += info.solved
		stats.ILPNodes += info.nodes
		stats.RCRelaxed += info.rcRelaxed
		stats.NoIncumbent += info.noIncumbent
		if info.certified {
			stats.Certified++
		}
		if !info.exact {
			stats.Exact = false
		}
		for op, pl := range placements {
			fixed[op] = pl
			if pr.pump[op] {
				for _, pt := range pl.Ring() {
					pump[pt]++
				}
			}
		}
	}
	// Decomposition never proves global optimality.
	if len(pr.ops) > pr.cfg.BatchSize {
		stats.Exact = false
	}
	return pr.finishMapping(fixed, stats), nil
}

// solveMonolithic solves the paper's single ILP over every operation.
func (pr *problem) solveMonolithic(sp *obs.Span) (*Mapping, error) {
	placements, info, err := pr.solveBatch(pr.ops, map[int]arch.Placement{}, pr.seedPump(), batchOpts{
		maxNodes: pr.cfg.MaxNodes,
		obs:      sp,
	})
	if err != nil {
		return nil, err
	}
	stats := Stats{
		ILPSolves:   info.solved,
		ILPNodes:    info.nodes,
		RCRelaxed:   info.rcRelaxed,
		Exact:       info.exact,
		NoIncumbent: info.noIncumbent,
	}
	if info.certified {
		stats.Certified = 1
	}
	return pr.finishMapping(placements, stats), nil
}

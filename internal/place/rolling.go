package place

import (
	"mfsynth/internal/arch"
	"mfsynth/internal/obs"
	"mfsynth/internal/synerr"
)

// solveRolling runs the rolling-horizon decomposition: the ILP of
// solveBatch over consecutive creation-order batches of size ops, with all
// earlier placements fixed and their peristaltic loads carried as
// constants in the v(x,y) accumulation. The constraint system per batch is
// exactly the paper's; only the scope of simultaneously-open decisions is
// reduced, which is what makes the two dilution benchmarks tractable for a
// from-scratch MILP solver. Monolithic mode is the one batch of every op.
func (pr *problem) solveRolling(sp *obs.Span, size int) (*Mapping, error) {
	fixed := map[int]arch.Placement{}
	pump := pr.seedPump() // wear prior: past load enters the ILP as constants
	stats := Stats{Exact: true}

	for start := 0; start < len(pr.ops); start += size {
		if err := pr.ctx.Err(); err != nil {
			return nil, synerr.Deadline("place", err)
		}
		end := start + size
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
				at, offs := pr.ring(pl)
				for _, off := range offs {
					pump[at+off]++
				}
			}
		}
	}
	// Decomposition never proves global optimality.
	if len(pr.ops) > size {
		stats.Exact = false
	}
	return pr.finishMapping(fixed, stats), nil
}

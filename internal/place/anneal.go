package place

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"mfsynth/internal/arch"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/par"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// Defaults of the annealing schedule. They are part of the request
// fingerprint contract: verify.CanonicalRequest spells a zero-valued knob
// as its default through AnnealOptions.WithDefaults, so the values may only
// change together with a canonical-request version bump.
const (
	defaultAnnealSeed = 1
	defaultReplicates = 8
	defaultIters      = 4000
	// initTemp is the starting temperature, in units of one pump-load step
	// (the objective's quantum).
	initTemp = 1.5
	// cooling is the per-move geometric cooling factor; at the default
	// budget it freezes the walk (temp ≈ 5e-4) near the end.
	cooling = 0.998
)

// AnnealOptions tunes the simulated-annealing mapper. The zero value means
// the defaults, so a zero-valued struct and one with the defaults spelled
// out fingerprint identically (the canonical-request contract).
type AnnealOptions struct {
	// Seed is the base RNG seed (default 1); replicate r draws from a
	// generator seeded with mix(Seed, r). The result is a pure function of
	// the seed: same seed, same mapping.
	Seed int64
	// Replicates is the number of independent restarts (default 8).
	Replicates int
	// Iters is the per-replicate move budget (default 4000). The budget,
	// not wall-clock, is what terminates a healthy replicate — that keeps
	// results machine-independent.
	Iters int
}

// WithDefaults returns the options with every zero field replaced by its
// default.
func (a AnnealOptions) WithDefaults() AnnealOptions {
	if a.Seed == 0 {
		a.Seed = defaultAnnealSeed
	}
	if a.Replicates == 0 {
		a.Replicates = defaultReplicates
	}
	if a.Iters == 0 {
		a.Iters = defaultIters
	}
	return a
}

// Anneal is the seeded simulated-annealing mapper, the producer beside the
// ILP and greedy for instances the exact search cannot crack and for
// assays where even the rolling decomposition is too slow for a
// bounded-latency answer. cfg describes the problem as for MapCtx (grid,
// faults, ablation switches and BestEffort apply; Mode is ignored, and so
// is WearPrior: the walk minimises this run's load). workers bounds the
// replicate fan-out (0 = runtime.GOMAXPROCS, 1 = serial).
//
// Every state a replicate holds is built from admissible placements, so
// accepted states satisfy the full constraint system by construction: the
// walk searches inside the feasible region rather than penalising its
// boundary. Replicates merge in index order by cost, so the mapping and the
// anneal_* counters are bit-identical at any worker count, provided the
// context does not cancel mid-run. The mapper is anytime: cancellation cuts
// replicates at their next poll and the best incumbent found so far is
// returned; the error is ErrDeadline-compatible only when cancellation
// struck before any replicate constructed a state.
func Anneal(ctx context.Context, res *schedule.Result, cfg Config, an AnnealOptions, workers int) (*Mapping, error) {
	cfg = cfg.WithDefaults()
	an = an.WithDefaults()
	pr, err := newProblem(res, cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Obs.Start("place.anneal",
		obs.KV("replicates", an.Replicates), obs.KV("iters", an.Iters),
		obs.KV("seed", int(an.Seed)))
	defer sp.End()

	parCtx := ctx
	if po := sp.Trace().Pool(sp, "anneal.replicate"); po != nil {
		parCtx = par.WithObserver(parCtx, po)
	}
	// Replicate errors and cut-shorts travel inside the result struct; the
	// pool error is either a recovered panic or the context cancellation,
	// and cancellation must not discard the incumbents already collected.
	results, poolErr := par.MapCtx(parCtx, par.Workers(workers), an.Replicates, func(rep int) (*replicate, error) {
		return pr.runReplicate(ctx, an, sp, rep), nil
	})
	var tp *par.TaskPanic
	if errors.As(poolErr, &tp) {
		return nil, poolErr
	}

	// Deterministic merge: scan replicates in index order, keep the first
	// strictly-best incumbent, sum the work counters.
	var ran, iters, accepted, improved int64
	var best *replicate
	bestRep, cutShort := 0, false
	var firstErr error
	for rep, r := range results {
		if r == nil {
			continue // skipped: cancelled before the replicate started
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		ran++
		iters += r.iters
		accepted += r.accepted
		improved += r.improved
		cutShort = cutShort || r.cutShort
		if best == nil || r.bestCost.less(best.bestCost, false) {
			best, bestRep = r, rep
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, synerr.Deadline("anneal", ctx.Err())
	}

	m := pr.finishMapping(best.best, Stats{RCRelaxed: best.bestCost.rcRelaxed})
	// Defensive audit: admissible-built states are violation-free by
	// construction; a non-zero count here would mean that contract broke,
	// and silently returning the mapping would poison downstream phases.
	if n := len(pr.storageViolations(m)); n > 0 {
		return nil, synerr.Infeasible("anneal", "annealed mapping has %d storage violations", n)
	}

	mm := sp.Metrics()
	mm.Counter("anneal_replicates_total").Add(ran)
	mm.Counter("anneal_iters_total").Add(iters)
	mm.Counter("anneal_accepted_total").Add(accepted)
	mm.Counter("anneal_incumbents_total").Add(improved)
	sp.Set(obs.KV("best_max_pump", best.bestCost.maxPump),
		obs.KV("best_replicate", bestRep),
		obs.KV("cut_short", cutShort))
	return m, nil
}

// mix64 is a splitmix64 finaliser: replicate seeds decorrelate even for
// adjacent base seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// replicate is one restart's outcome: its incumbent and work counters
// (iters counts attempted moves, accepted the accepted ones, improved the
// new incumbents, the initial construction included).
type replicate struct {
	err      error
	best     map[int]arch.Placement
	bestCost cost
	iters    int64
	accepted int64
	improved int64
	cutShort bool
}

// runReplicate executes one seeded restart: a constructive initial state
// in creation order (scored like the greedy mapper, ties broken by the
// replicate RNG for diversity), then Iters bounded-neighbourhood moves
// with Metropolis acceptance under geometric cooling. An op is dropped
// (under BestEffort) exactly when it has no placement.
func (pr *problem) runReplicate(ctx context.Context, an AnnealOptions, sp *obs.Span, rep int) *replicate {
	r := &replicate{}
	rng := rand.New(rand.NewSource(int64(mix64(uint64(an.Seed)) ^ mix64(uint64(rep)+1))))
	bus := sp.Trace().ProgressBus()
	hook := pr.cfg.acceptHook

	st := newState(nil, make([]int, pr.cfg.Grid*pr.cfg.Grid))
	// rcExempt marks ops whose routing-convenient coupling was relaxed at
	// construction (the candidate set was empty otherwise); the exemption
	// is permanent for the replicate and counts into cost.rcRelaxed.
	rcExempt := map[int]bool{}

	var ties []arch.Placement
	for _, op := range pr.ops {
		ties = pr.startTies(&st, op, false, ties[:0])
		if len(ties) == 0 {
			ties = pr.startTies(&st, op, true, ties)
			if len(ties) > 0 {
				rcExempt[op] = true
				st.rcRelaxed++
			}
		}
		if len(ties) == 0 {
			if pr.cfg.BestEffort {
				st.dropped++
				continue
			}
			r.err = synerr.Infeasible("anneal",
				"no feasible placement for %s on a %dx%d chip",
				pr.res.Assay.Op(op).Name, pr.cfg.Grid, pr.cfg.Grid)
			return r
		}
		st.place(pr, op, ties[rng.Intn(len(ties))])
	}
	if hook != nil {
		hook(st.fixed)
	}

	cur := st.cost
	r.best = clonePlacements(st.fixed)
	r.bestCost = cur
	r.improved++

	temp := initTemp
	for it := 0; it < an.Iters; it++ {
		if it%32 == 0 && ctx.Err() != nil {
			r.cutShort = true
			break
		}
		if bus != nil && it%512 == 0 {
			publish(bus, an, rep, it, temp, r)
		}
		r.iters++
		temp *= cooling

		op := pr.ops[rng.Intn(len(pr.ops))]
		pl, ok := pr.proposal(&st, rcExempt, rng, op)
		if !ok {
			continue
		}
		if old, placed := st.fixed[op]; !placed {
			// Re-placing a dropped operation dominates every other key;
			// always accept.
			st.place(pr, op, pl)
			st.dropped--
		} else {
			if pl == old {
				continue
			}
			st.lift(pr, op, old)
			st.place(pr, op, pl)
			delta := st.energy() - cur.energy()
			if delta > 0 && rng.Float64() >= math.Exp(-delta/temp) {
				// Reject: revert.
				st.lift(pr, op, pl)
				st.place(pr, op, old)
				continue
			}
		}
		cur = st.cost
		r.accepted++
		if hook != nil {
			hook(st.fixed)
		}
		if cur.less(r.bestCost, false) {
			r.bestCost = cur
			r.best = clonePlacements(st.fixed)
			r.improved++
		}
	}
	if bus != nil {
		publish(bus, an, rep, an.Iters, temp, r)
	}
	return r
}

// startTies appends to ties the candidates of op that rank first under
// greedy's primary keys (resulting max load, added load), in enumeration
// order: good starts that still differ per replicate.
func (pr *problem) startTies(st *state, op int, relaxRC bool, ties []arch.Placement) []arch.Placement {
	bestKey := [2]int{math.MaxInt, 0}
	pr.eachCandidate(op, st.fixed, candOpts{relaxRC: relaxRC, fullRoots: true}, func(pl arch.Placement) {
		var key [2]int
		if pr.pump[op] {
			key[0], key[1] = pr.ringLoad(pl, st.load)
		}
		switch {
		case key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]):
			bestKey = key
			ties = append(ties[:0], pl)
		case key == bestKey:
			ties = append(ties, pl)
		}
	})
	return ties
}

// proposal draws one bounded-neighbourhood candidate for op: a random
// chip-fitting shape at either a local position (Chebyshev radius 3
// around the current anchor) or a uniform one, filtered through the full
// admissibility rules including the child-side routing-convenient check
// that only a relocating search needs. ok is false when the draw is
// inadmissible (a cheap rejected move) — for dropped ops, a feasibility
// probe that usually fails until the chip decongests.
func (pr *problem) proposal(st *state, rcExempt map[int]bool, rng *rand.Rand, op int) (arch.Placement, bool) {
	shapes := pr.shp[op]
	s := shapes[rng.Intn(len(shapes))]
	area := pr.chip.PlacementArea(s)
	var x, y int
	cur, placed := st.fixed[op]
	if placed && rng.Intn(2) == 0 {
		const radius = 3
		x = clamp(cur.At.X+rng.Intn(2*radius+1)-radius, area.X0, area.X1-1)
		y = clamp(cur.At.Y+rng.Intn(2*radius+1)-radius, area.Y0, area.Y1-1)
	} else {
		x = area.X0 + rng.Intn(area.X1-area.X0)
		y = area.Y0 + rng.Intn(area.Y1-area.Y0)
	}
	pl := arch.Placement{At: grid.Point{X: x, Y: y}, Shape: s}
	ok := pr.admits(op, pl, st.fixed, rcExempt[op]) && pr.nearChildren(op, pl, st.fixed, rcExempt)
	return pl, ok
}

func publish(bus *obs.ProgressBus, an AnnealOptions, rep, it int, temp float64, r *replicate) {
	p := &obs.AnnealProgress{
		Replicates:  int64(an.Replicates),
		Replicate:   int64(rep),
		Iter:        int64(it),
		Temp:        temp,
		BestMaxPump: int64(r.bestCost.maxPump),
		HasBest:     r.best != nil,
		Accepted:    r.accepted,
	}
	bus.Update(func(pr *obs.Progress) { pr.Anneal = p })
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

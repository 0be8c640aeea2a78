// Package anneal is the stochastic third mapper backend beside the ILP
// and the greedy heuristic: seeded simulated annealing over dynamic-device
// placements. It exists for the instances exact search cannot crack — the
// node-capped branch-and-bound solves that end with no incumbent — and
// for oversized assays where even the rolling decomposition is too slow
// for a bounded-latency answer.
//
// The search runs a fixed schedule of independent replicates (restarts),
// each with its own deterministic RNG derived from the base seed, so the
// result is a pure function of (problem, Config): same seed, same mapping,
// same work counters, at any worker count. Every state a replicate ever
// holds is built exclusively from place.Instance-admissible placements,
// so accepted states satisfy the full constraint system (non-overlap,
// storage free space, faults, routing convenience) by construction — the
// anneal searches inside the feasible region rather than penalising its
// boundary.
//
// The mapper is anytime: cancellation cuts replicates at their next poll
// and the best incumbent found so far is returned, which is what lets the
// candidate selection in internal/core collect a result from an expired
// deadline instead of an error.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"mfsynth/internal/arch"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/par"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// Defaults of the annealing schedule. They are part of the request
// fingerprint contract: verify.CanonicalRequest spells a zero-valued knob
// as its default, using these constants, so the values may only change
// together with a canonical-request version bump.
const (
	// DefaultSeed is the base RNG seed when Config.Seed is zero.
	DefaultSeed = 1
	// DefaultReplicates is the number of independent restarts.
	DefaultReplicates = 8
	// DefaultIters is the per-replicate move budget.
	DefaultIters = 4000
	// DefaultInitTemp is the starting temperature, in units of one
	// pump-load step (the objective's quantum).
	DefaultInitTemp = 1.5
	// DefaultCooling is the per-move geometric cooling factor; at the
	// default budget it freezes the walk (temp ≈ 5e-4) near the end.
	DefaultCooling = 0.998
)

// Config tunes the annealer.
type Config struct {
	// Place describes the mapping problem exactly as for place.MapCtx:
	// grid, faults, ablation switches and BestEffort all apply. Mode is
	// ignored (the annealer is its own mode).
	Place place.Config
	// Seed is the base RNG seed; replicate r draws from a generator
	// seeded with mix(Seed, r) (fixed seed schedule). Zero means
	// DefaultSeed, so the zero value and the spelled default agree —
	// required by the canonical-request contract.
	Seed int64
	// Replicates is the number of independent restarts (default 8).
	Replicates int
	// Iters is the per-replicate move budget (default 4000). The budget,
	// not wall-clock, is what terminates a healthy replicate — that keeps
	// results machine-independent.
	Iters int
	// InitTemp and Cooling define the geometric temperature schedule
	// temp(i) = InitTemp · Cooling^i (defaults 1.5 and 0.998).
	InitTemp float64
	Cooling  float64
	// Workers bounds the replicate fan-out (0 = Place.Workers resolution,
	// 1 = serial). Results and counters are bit-identical at any worker
	// count provided the context does not cancel mid-run (a deadline cuts
	// replicates at timing-dependent iterations).
	Workers int
	// Obs, when non-nil, is the span the annealer reports under; replicate
	// progress is published on its trace's ProgressBus.
	Obs *obs.Span
	// AcceptHook, when non-nil, receives every accepted state (the initial
	// construction included) of every replicate — the property-test hook
	// proving accepted states stay conformant. The map must not be
	// retained or mutated across calls; clone what you keep. Only sensible
	// with Workers=1 (concurrent replicates would interleave calls).
	AcceptHook func(fixed map[int]arch.Placement)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Replicates == 0 {
		c.Replicates = DefaultReplicates
	}
	if c.Iters == 0 {
		c.Iters = DefaultIters
	}
	if c.InitTemp == 0 {
		c.InitTemp = DefaultInitTemp
	}
	if c.Cooling == 0 {
		c.Cooling = DefaultCooling
	}
	if c.Workers == 0 {
		c.Workers = c.Place.Workers
	}
	return c
}

// Cost is the annealer's objective, ordered lexicographically with the
// exact key sequence of the greedy mapper's run comparison: completeness
// first, then the paper's objective (worst per-valve pump load), then
// routing-convenient fidelity, manufactured pump valves and load spread.
// MaxPump is place.Mapping.MaxPumpOps of the same state, which is what
// ties the annealer's objective to report's Table 1 accounting
// (VsPump1 = MaxPump × PumpActuations).
type Cost struct {
	Dropped   int
	MaxPump   int
	RCRelaxed int
	UsedCells int
	SumSq     int
}

// Less orders costs, best first.
func (c Cost) Less(o Cost) bool {
	if c.Dropped != o.Dropped {
		return c.Dropped < o.Dropped
	}
	if c.MaxPump != o.MaxPump {
		return c.MaxPump < o.MaxPump
	}
	if c.RCRelaxed != o.RCRelaxed {
		return c.RCRelaxed < o.RCRelaxed
	}
	if c.UsedCells != o.UsedCells {
		return c.UsedCells < o.UsedCells
	}
	return c.SumSq < o.SumSq
}

// energy scalarises the cost for Metropolis acceptance. RCRelaxed is
// omitted: relaxations are fixed at construction, so the term is constant
// within a replicate and cancels in every delta. The weights keep the
// tie-break terms strictly below one pump-load step so the primary
// objective always dominates acceptance.
func (c Cost) energy() float64 {
	return 1e9*float64(c.Dropped) + float64(c.MaxPump) +
		1e-3*float64(c.UsedCells) + 1e-7*float64(c.SumSq)
}

// Stats reports the search effort, deterministically in the seed (and the
// worker count, absent cancellation): counters aggregate per replicate
// and merge in replicate order.
type Stats struct {
	// Replicates is the number of replicates that ran (skipped ones —
	// cancelled before starting — are not counted).
	Replicates int
	// Iters counts attempted moves across all replicates; Accepted the
	// accepted ones, Improved the new incumbents (initial constructions
	// included).
	Iters    int64
	Accepted int64
	Improved int64
	// CutShort is true when cancellation stopped at least one replicate
	// before its move budget.
	CutShort bool
	// Best is the winning replicate's incumbent cost.
	Best Cost
	// BestReplicate is the winning replicate's index.
	BestReplicate int
}

// Map runs the annealer without cancellation.
func Map(res *schedule.Result, cfg Config) (*place.Mapping, Stats, error) {
	return MapCtx(context.Background(), res, cfg)
}

// MapCtx anneals a mapping for the scheduled assay. The replicates fan
// out over the worker pool and merge in replicate order by (Cost, index),
// so the returned mapping is bit-identical at any worker count; under
// cancellation the incumbents found so far still merge and a mapping is
// returned as long as at least one replicate constructed a state (the
// anytime contract). The error is ErrDeadline-compatible only when
// cancellation struck before any incumbent existed.
func MapCtx(ctx context.Context, res *schedule.Result, cfg Config) (*place.Mapping, Stats, error) {
	cfg = cfg.withDefaults()
	inst, err := place.NewInstance(res, cfg.Place)
	if err != nil {
		return nil, Stats{}, err
	}
	sp := cfg.Obs.Start("place.anneal",
		obs.KV("replicates", cfg.Replicates), obs.KV("iters", cfg.Iters),
		obs.KV("seed", int(cfg.Seed)))
	defer sp.End()

	workers := par.Workers(cfg.Workers)
	parCtx := ctx
	if po := sp.Trace().Pool(sp, "anneal.replicate"); po != nil {
		parCtx = par.WithObserver(parCtx, po)
	}
	// Replicate errors and cut-shorts travel inside the result struct; the
	// pool error is either a recovered panic or the context cancellation,
	// and cancellation must not discard the incumbents already collected.
	results, poolErr := par.MapCtx(parCtx, workers, cfg.Replicates, func(_, rep int) (*replicate, error) {
		return runReplicate(ctx, inst, cfg, rep), nil
	})
	if tp := (*par.TaskPanic)(nil); poolErr != nil {
		if asTaskPanic(poolErr, &tp) {
			return nil, Stats{}, poolErr
		}
	}

	// Deterministic merge: scan replicates in index order, keep the first
	// strictly-best incumbent, sum the work counters.
	var stats Stats
	var best *replicate
	var firstErr error
	for _, r := range results {
		if r == nil {
			continue // skipped: cancelled before the replicate started
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		stats.Replicates++
		stats.Iters += r.iters
		stats.Accepted += r.accepted
		stats.Improved += r.improved
		stats.CutShort = stats.CutShort || r.cutShort
		if best == nil || r.bestCost.Less(best.bestCost) {
			best = r
			stats.BestReplicate = r.rep
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, stats, firstErr
		}
		return nil, stats, synerr.Deadline("anneal", ctx.Err())
	}
	stats.Best = best.bestCost

	m := inst.Finish(best.bestFixed, place.Stats{RCRelaxed: best.bestCost.RCRelaxed})
	// Defensive audit: admissible-built states are violation-free by
	// construction; a non-zero count here would mean the Instance contract
	// broke, and silently returning the mapping would poison downstream
	// phases.
	if n := inst.StorageViolations(m); n > 0 {
		return nil, stats, synerr.Infeasible("anneal", "annealed mapping has %d storage violations", n)
	}

	mm := sp.Metrics()
	mm.Counter("anneal_replicates_total").Add(int64(stats.Replicates))
	mm.Counter("anneal_iters_total").Add(stats.Iters)
	mm.Counter("anneal_accepted_total").Add(stats.Accepted)
	mm.Counter("anneal_incumbents_total").Add(stats.Improved)
	sp.Set(obs.KV("best_max_pump", stats.Best.MaxPump),
		obs.KV("best_replicate", stats.BestReplicate),
		obs.KV("cut_short", stats.CutShort))
	return m, stats, nil
}

// asTaskPanic reports whether err wraps a worker panic. Plain context
// errors from the pool are expected under a deadline and must not abort
// the merge.
func asTaskPanic(err error, tp **par.TaskPanic) bool {
	for e := err; e != nil; {
		if p, ok := e.(*par.TaskPanic); ok {
			*tp = p
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// mix64 is a splitmix64 finaliser: replicate seeds decorrelate even for
// adjacent base seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// replicate is one restart's outcome.
type replicate struct {
	rep       int
	err       error
	bestFixed map[int]arch.Placement
	bestCost  Cost
	iters     int64
	accepted  int64
	improved  int64
	cutShort  bool
}

// state is the mutable search position of one replicate, with incremental
// pump-load accounting (a load histogram makes removing a ring from the
// current maximum O(max load) instead of a full rescan).
type state struct {
	inst  *place.Instance
	fixed map[int]arch.Placement
	pump  map[grid.Point]int
	hist  []int // hist[n] = number of cells at load n (n ≥ 1)

	maxPump   int
	usedCells int
	sumSq     int

	dropped  map[int]bool
	nDropped int
	// rcExempt marks ops whose routing-convenient coupling was relaxed at
	// construction (the candidate set was empty otherwise); the exemption
	// is permanent for the replicate and counts into Cost.RCRelaxed.
	rcExempt  map[int]bool
	rcRelaxed int
}

func (st *state) cost() Cost {
	return Cost{
		Dropped:   st.nDropped,
		MaxPump:   st.maxPump,
		RCRelaxed: st.rcRelaxed,
		UsedCells: st.usedCells,
		SumSq:     st.sumSq,
	}
}

// addLoads accounts op's ring onto the pump map (mix ops only).
func (st *state) addLoads(op int, pl arch.Placement) {
	if !st.inst.IsPump(op) {
		return
	}
	for _, pt := range pl.Ring() {
		old := st.pump[pt]
		st.sumSq += 2*old + 1
		if old == 0 {
			st.usedCells++
		} else {
			st.hist[old]--
		}
		n := old + 1
		st.pump[pt] = n
		for n >= len(st.hist) {
			st.hist = append(st.hist, 0)
		}
		st.hist[n]++
		if n > st.maxPump {
			st.maxPump = n
		}
	}
}

// removeLoads reverses addLoads.
func (st *state) removeLoads(op int, pl arch.Placement) {
	if !st.inst.IsPump(op) {
		return
	}
	for _, pt := range pl.Ring() {
		old := st.pump[pt]
		st.sumSq -= 2*old - 1
		st.hist[old]--
		n := old - 1
		if n == 0 {
			st.usedCells--
			delete(st.pump, pt)
		} else {
			st.pump[pt] = n
			st.hist[n]++
		}
	}
	for st.maxPump > 0 && st.hist[st.maxPump] == 0 {
		st.maxPump--
	}
}

// runReplicate executes one seeded restart: a constructive initial state
// in creation order (scored like the greedy mapper, ties broken by the
// replicate RNG for diversity), then Iters bounded-neighbourhood moves
// with Metropolis acceptance under geometric cooling.
func runReplicate(ctx context.Context, inst *place.Instance, cfg Config, rep int) *replicate {
	r := &replicate{rep: rep}
	rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.Seed)) ^ mix64(uint64(rep)+1))))
	bus := cfg.Obs.Trace().ProgressBus()

	st := &state{
		inst:     inst,
		fixed:    map[int]arch.Placement{},
		pump:     map[grid.Point]int{},
		hist:     make([]int, 4),
		dropped:  map[int]bool{},
		rcExempt: map[int]bool{},
	}

	// Initial construction.
	for _, op := range inst.Ops() {
		cands := inst.Candidates(op, st.fixed, false)
		if len(cands) == 0 {
			cands = inst.Candidates(op, st.fixed, true)
			if len(cands) > 0 {
				st.rcExempt[op] = true
				st.rcRelaxed++
			}
		}
		if len(cands) == 0 {
			if cfg.Place.BestEffort {
				st.dropped[op] = true
				st.nDropped++
				continue
			}
			r.err = synerr.Infeasible("anneal",
				"no feasible placement for %s on a %dx%d chip",
				inst.OpName(op), cfg.Place.Grid, cfg.Place.Grid)
			return r
		}
		// Greedy primary keys (resulting max load, added load), random
		// tie-break: good starts that still differ per replicate.
		bestKey := [2]int{int(^uint(0) >> 1), 0}
		var ties []arch.Placement
		for _, c := range cands {
			key := [2]int{0, 0}
			if inst.IsPump(op) {
				for _, pt := range c.Ring() {
					n := st.pump[pt] + 1
					if n > key[0] {
						key[0] = n
					}
					key[1] += st.pump[pt]
				}
			}
			switch {
			case key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]):
				bestKey = key
				ties = ties[:0]
				ties = append(ties, c)
			case key == bestKey:
				ties = append(ties, c)
			}
		}
		pl := ties[rng.Intn(len(ties))]
		st.fixed[op] = pl
		st.addLoads(op, pl)
	}
	if cfg.AcceptHook != nil {
		cfg.AcceptHook(st.fixed)
	}

	cur := st.cost()
	r.bestFixed = clonePlacements(st.fixed)
	r.bestCost = cur
	r.improved++

	ops := inst.Ops()
	temp := cfg.InitTemp
	for it := 0; it < cfg.Iters; it++ {
		if it%32 == 0 && ctx.Err() != nil {
			r.cutShort = true
			break
		}
		if bus != nil && it%512 == 0 {
			publish(bus, cfg, rep, it, temp, r)
		}
		r.iters++
		temp *= cfg.Cooling

		op := ops[rng.Intn(len(ops))]
		pl, ok := proposal(st, rng, op)
		if !ok {
			continue
		}
		if st.dropped[op] {
			// Re-placing a dropped operation dominates every other key;
			// always accept.
			st.fixed[op] = pl
			st.addLoads(op, pl)
			delete(st.dropped, op)
			st.nDropped--
		} else {
			old := st.fixed[op]
			if pl == old {
				continue
			}
			st.removeLoads(op, old)
			st.addLoads(op, pl)
			st.fixed[op] = pl
			next := st.cost()
			delta := next.energy() - cur.energy()
			if delta > 0 && rng.Float64() >= math.Exp(-delta/temp) {
				// Reject: revert.
				st.removeLoads(op, pl)
				st.addLoads(op, old)
				st.fixed[op] = old
				continue
			}
		}
		cur = st.cost()
		r.accepted++
		if cfg.AcceptHook != nil {
			cfg.AcceptHook(st.fixed)
		}
		if cur.Less(r.bestCost) {
			r.bestCost = cur
			r.bestFixed = clonePlacements(st.fixed)
			r.improved++
		}
	}
	if bus != nil {
		publish(bus, cfg, rep, cfg.Iters, temp, r)
	}
	return r
}

// proposal draws one bounded-neighbourhood candidate for op: a random
// chip-fitting shape at either a local position (Chebyshev radius 3
// around the current anchor) or a uniform one, filtered through the full
// admissibility rules including the child-side routing-convenient check
// that only a relocating search needs. ok is false when the draw is
// inadmissible (a cheap rejected move) — for dropped ops, a feasibility
// probe that usually fails until the chip decongests.
func proposal(st *state, rng *rand.Rand, op int) (arch.Placement, bool) {
	shapes := st.inst.Shapes(op)
	s := shapes[rng.Intn(len(shapes))]
	area := st.inst.PlacementArea(s)
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
	if !st.inst.Admissible(op, pl, st.fixed, st.rcExempt[op]) {
		return pl, false
	}
	if !st.inst.RCWithChildren(op, pl, st.fixed, st.rcExempt) {
		return pl, false
	}
	return pl, true
}

func publish(bus *obs.ProgressBus, cfg Config, rep, it int, temp float64, r *replicate) {
	p := &obs.AnnealProgress{
		Replicates:  int64(cfg.Replicates),
		Replicate:   int64(rep),
		Iter:        int64(it),
		Temp:        temp,
		BestMaxPump: int64(r.bestCost.MaxPump),
		HasBest:     r.bestFixed != nil,
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

func clonePlacements(m map[int]arch.Placement) map[int]arch.Placement {
	out := make(map[int]arch.Placement, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

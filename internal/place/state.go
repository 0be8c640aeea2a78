package place

import "mfsynth/internal/arch"

// cost ranks search states, the same way for greedy's runs and anneal's
// replicates: completeness first (fewest dropped operations, only non-zero
// under BestEffort), then the paper's objective (the largest per-valve pump
// load), then routing-convenient fidelity, the number of manufactured pump
// valves and the load spread. maxPump is Mapping.MaxPumpOps of the same
// state on a fresh chip, which ties the ranking to report's Table 1
// accounting (VsPump1 = maxPump × PumpActuations).
type cost struct {
	dropped   int
	maxPump   int
	rcRelaxed int
	usedCells int
	sumSq     int
}

// less orders costs, best first. wearAware swaps the last two keys: under
// a wear prior, spreading load away from worn valves (sumSq, which the
// prior inflates) matters more than the manufactured-valve count.
func (c cost) less(o cost, wearAware bool) bool {
	if c.dropped != o.dropped {
		return c.dropped < o.dropped
	}
	if c.maxPump != o.maxPump {
		return c.maxPump < o.maxPump
	}
	if c.rcRelaxed != o.rcRelaxed {
		return c.rcRelaxed < o.rcRelaxed
	}
	k1, k2, o1, o2 := c.usedCells, c.sumSq, o.usedCells, o.sumSq
	if wearAware {
		k1, k2, o1, o2 = k2, k1, o2, o1
	}
	if k1 != o1 {
		return k1 < o1
	}
	return k2 < o2
}

// energy scalarises the cost for anneal's Metropolis acceptance. rcRelaxed
// is omitted: relaxations are fixed at construction, so the term is
// constant within a replicate and cancels in every delta. The weights keep
// the tie-break terms strictly below one pump-load step so the primary
// objective always dominates acceptance.
func (c cost) energy() float64 {
	return 1e9*float64(c.dropped) + float64(c.maxPump) +
		1e-3*float64(c.usedCells) + 1e-7*float64(c.sumSq)
}

// state is one search position: the placements so far and their pump-load
// accounting, kept in step by place and lift.
type state struct {
	fixed map[int]arch.Placement
	load  []int // per-valve pump load, flat y·Grid+x
	hist  []int // hist[n] = number of cells at load n (n ≥ 1)
	// cost holds the counters. maxPump is the largest load on a cell a ring
	// placed in this state covers, so an untouched peak of the start loads
	// (a wear prior, earlier batches) does not raise it; sumSq is the growth
	// of Σ load² over the start loads.
	cost
}

// newState starts a search from the fixed context and the per-valve loads
// it carries; both are copied.
func newState(fixed map[int]arch.Placement, load []int) state {
	st := state{fixed: clonePlacements(fixed), load: append([]int(nil), load...), hist: make([]int, 4)}
	for _, n := range load {
		if n > 0 {
			st.count(n)
		}
	}
	return st
}

// count adds one cell at load n to the histogram.
func (st *state) count(n int) {
	for n >= len(st.hist) {
		st.hist = append(st.hist, 0)
	}
	st.hist[n]++
}

// place puts op at pl and accounts a mix op's ring onto the loads.
func (st *state) place(pr *problem, op int, pl arch.Placement) {
	st.fixed[op] = pl
	if !pr.pump[op] {
		return
	}
	at, offs := pr.ring(pl)
	for _, off := range offs {
		old := st.load[at+off]
		st.sumSq += 2*old + 1 // (n+1)² - n²
		if old == 0 {
			st.usedCells++
		} else {
			st.hist[old]--
		}
		n := old + 1
		st.load[at+off] = n
		st.count(n)
		if n > st.maxPump {
			st.maxPump = n
		}
	}
}

// lift reverses place of op at pl. Its max-pump rescan reads the histogram,
// which covers every cell, so it is exact only from zero start loads: the
// annealer's case, the one caller.
func (st *state) lift(pr *problem, op int, pl arch.Placement) {
	delete(st.fixed, op)
	if !pr.pump[op] {
		return
	}
	at, offs := pr.ring(pl)
	for _, off := range offs {
		old := st.load[at+off]
		st.sumSq -= 2*old - 1
		st.hist[old]--
		n := old - 1
		st.load[at+off] = n
		if n == 0 {
			st.usedCells--
		} else {
			st.hist[n]++
		}
	}
	for st.maxPump > 0 && st.hist[st.maxPump] == 0 {
		st.maxPump--
	}
}

// ringLoad walks pl's ring over the loads: the largest load a ring cell
// carries once pl is placed, and the load already on the ring.
func (pr *problem) ringLoad(pl arch.Placement, load []int) (maxLoad, added int) {
	at, offs := pr.ring(pl)
	for _, off := range offs {
		n := load[at+off]
		if n+1 > maxLoad {
			maxLoad = n + 1
		}
		added += n
	}
	return maxLoad, added
}

func clonePlacements(m map[int]arch.Placement) map[int]arch.Placement {
	out := make(map[int]arch.Placement, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

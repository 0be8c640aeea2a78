// Package fleet closes the reliability loop the paper motivates: instead of
// treating wear as a one-shot synthesis input, it simulates a fleet of chips
// executing a stream of assay requests over their whole service life, with
// per-valve cumulative actuation counters persisted per chip, and runs an
// autoscaler-style control loop around the synthesis engine:
//
//   - the collector accumulates each run's actuation profile into the chip's
//     lifetime counters and publishes fleet health through obs (remaining-life
//     gauges, promotion/re-synthesis counters);
//   - the analyzer flags chips whose first-valve remaining life falls below a
//     configurable horizon and promotes crossed-threshold valves to permanent
//     obstacles (fault.Set.Promote);
//   - the optimizer re-invokes core.SynthesizeCtx with the promoted fault set
//     and a wear-aware placement bias (core.Options.WearBias seeded from the
//     telemetry counters) that steers new duty onto lightly-worn valves;
//   - the actuator swaps the chip's active mapping between runs.
//
// Everything is deterministic in the campaign seed: per-valve lives, the
// request stream and every synthesis result are pure functions of the
// configuration, so a campaign's JSON artefact reproduces bit-identically
// (the benchgate -fleet contract).
package fleet

import (
	"fmt"

	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/wear"
)

// Workload is one assay the request stream can dispatch to a chip.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Assay is the bioassay to synthesize and execute.
	Assay *graph.Assay
	// Options is the synthesis configuration. Place.Grid must match (or be
	// left zero to inherit) the fleet's Grid; Faults, WearBias and
	// WearCounts must be unset — the control loop owns them.
	Options core.Options
}

// Config parameterises a fleet campaign.
type Config struct {
	// Chips is the fleet size (default 3).
	Chips int
	// Grid is the valve matrix side length of every chip (default: the
	// first workload's Place.Grid, else 10).
	Grid int
	// Seed determines the per-valve lives and the request stream; the
	// whole campaign is a pure function of it (default 1).
	Seed int64
	// Rounds bounds the campaign: each round dispatches one assay request
	// to every chip still alive (default 64).
	Rounds int
	// Rated is the nominal per-valve life in actuations (default
	// wear.DefaultRatedActuations).
	Rated int
	// LifeSpread is the ± fractional spread of individual valve lives
	// around Rated, drawn deterministically from Seed (default 0: every
	// valve lives exactly Rated actuations).
	LifeSpread float64
	// Horizon is the analyzer's look-ahead in runs: a chip whose
	// first-valve remaining life would be exceeded within Horizon further
	// runs of its active mapping is flagged for re-synthesis (default 2).
	Horizon int
	// WearBias is the optimizer's placement bias weight
	// (core.Options.WearBias; default 1).
	WearBias float64
	// Workloads is the assay mix of the request stream (required). With
	// more than one entry, each request picks a workload seeded-randomly.
	Workloads []Workload
	// Trace, when non-nil, receives the collector's fleet metrics and the
	// synthesis spans. Observation never changes campaign results.
	Trace *obs.Trace
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Workloads) == 0 {
		return c, fmt.Errorf("fleet: config needs at least one workload")
	}
	if c.Chips == 0 {
		c.Chips = 3
	}
	if c.Chips < 1 {
		return c, fmt.Errorf("fleet: %d chips", c.Chips)
	}
	if c.Grid == 0 {
		c.Grid = c.Workloads[0].Options.Place.Grid
	}
	if c.Grid == 0 {
		c.Grid = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 64
	}
	if c.Rated == 0 {
		c.Rated = wear.DefaultRatedActuations
	}
	if c.LifeSpread < 0 || c.LifeSpread >= 1 {
		return c, fmt.Errorf("fleet: LifeSpread %g outside [0, 1)", c.LifeSpread)
	}
	if c.Horizon == 0 {
		c.Horizon = 2
	}
	if c.WearBias == 0 {
		c.WearBias = 1
	}
	ws := make([]Workload, len(c.Workloads))
	copy(ws, c.Workloads)
	for i := range ws {
		w := &ws[i]
		if w.Assay == nil {
			return c, fmt.Errorf("fleet: workload %d has no assay", i)
		}
		if w.Name == "" {
			w.Name = w.Assay.Name
		}
		if w.Options.Place.Grid == 0 {
			w.Options.Place.Grid = c.Grid
		}
		if w.Options.Place.Grid != c.Grid {
			return c, fmt.Errorf("fleet: workload %q grid %d != fleet grid %d",
				w.Name, w.Options.Place.Grid, c.Grid)
		}
		if w.Options.Faults != nil || w.Options.WearBias != 0 || w.Options.WearCounts != nil {
			return c, fmt.Errorf("fleet: workload %q pre-sets faults or wear options; the control loop owns them", w.Name)
		}
	}
	c.Workloads = ws
	return c, nil
}

// ChipState is one chip's persisted telemetry: the cumulative per-valve
// actuation counters and the control loop's bookkeeping. The exported
// fields round-trip through Save/Load; the unexported ones are runtime
// state the loop rebuilds.
type ChipState struct {
	// ID is the chip's index in the fleet.
	ID int
	// Grid is the valve matrix side length.
	Grid int
	// Counts is the cumulative per-valve actuation counters, row-major
	// (index y·Grid+x), accumulated over every run of the chip's life.
	Counts []int
	// Runs is the number of assay executions completed.
	Runs int
	// Resyntheses counts mapping re-syntheses after the first per
	// workload (the optimizer reacting to wear).
	Resyntheses int
	// Promotions counts valves promoted to permanent obstacles.
	Promotions int
	// Dead marks a chip that failed a run (valve overran its life) or
	// could no longer obtain a complete mapping.
	Dead bool
	// DeathRound is the 1-based campaign round the chip died in (0 while
	// alive).
	DeathRound int

	lives       []int                // per-valve actuation budget, drawn from the seed
	promoted    *fault.Set           // valves retired by the analyzer
	active      map[int]*core.Result // workload index → active mapping (actuator state)
	hadMapping  map[int]bool         // workload index → a mapping was accepted before
	lastProfile []int                // most recent run's per-valve profile
	lastErr     error                // why the optimizer retired the chip, if it did
}

// newChip builds a fresh chip with seeded per-valve lives.
func newChip(id int, cfg Config) *ChipState {
	n := cfg.Grid * cfg.Grid
	c := &ChipState{
		ID:         id,
		Grid:       cfg.Grid,
		Counts:     make([]int, n),
		lives:      make([]int, n),
		promoted:   fault.NewSet(cfg.Grid),
		active:     map[int]*core.Result{},
		hadMapping: map[int]bool{},
	}
	for v := range c.lives {
		c.lives[v] = valveLife(cfg, id, v)
	}
	return c
}

// valveLife draws valve v's actuation budget: Rated exactly when
// LifeSpread is zero, else uniform in Rated·[1−spread, 1+spread), a pure
// function of (seed, chip, valve).
func valveLife(cfg Config, chip, v int) int {
	if cfg.LifeSpread == 0 {
		return cfg.Rated
	}
	h := mix64(mix64(uint64(cfg.Seed)) ^ (uint64(chip)<<32 | uint64(v) + 1))
	u := float64(h>>11) / (1 << 53) // uniform [0, 1)
	life := int(float64(cfg.Rated)*(1-cfg.LifeSpread) + float64(cfg.Rated)*2*cfg.LifeSpread*u + 0.5)
	if life < 1 {
		life = 1
	}
	return life
}

// cell maps a row-major counter index to its valve coordinate.
func (c *ChipState) cell(i int) grid.Point {
	return grid.Point{X: i % c.Grid, Y: i / c.Grid}
}

// promote retires valve i permanently; repeated promotion is a no-op.
func (c *ChipState) promote(i int) bool {
	pt := c.cell(i)
	if _, dead := c.promoted.At(pt); dead {
		return false
	}
	c.promoted.Promote(pt)
	c.Promotions++
	return true
}

// remainingRuns estimates how many more runs of the last profile the chip
// survives (MaxInt32 before its first run).
func (c *ChipState) remainingRuns() int {
	return wear.RemainingRuns(c.Counts, c.lastProfile, c.lives)
}

// mix64 is a splitmix64 finaliser, the repo's standard seeded-stream
// derivation (see place.Anneal): adjacent inputs decorrelate fully.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

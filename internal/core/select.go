package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// Backend names one mapping producer. The order backends are listed in
// Options.Backends is their tie-break priority: when two produce equally
// good results, the earlier one wins, which keeps the selection
// deterministic regardless of which goroutine finishes first.
type Backend string

// The mapping producers.
const (
	// BackendILP is the paper's exact mapper (rolling-horizon or
	// monolithic branch-and-bound, per Place.Mode).
	BackendILP Backend = "ilp"
	// BackendGreedy is the constructive multi-start heuristic.
	BackendGreedy Backend = "greedy"
	// BackendAnneal is the seeded simulated-annealing mapper
	// (place.Anneal).
	BackendAnneal Backend = "anneal"
)

// Backends returns every known backend in canonical priority order.
func Backends() []Backend { return []Backend{BackendILP, BackendGreedy, BackendAnneal} }

// ParseBackends parses a comma-separated backend list ("ilp,anneal").
// The empty string and "none" mean the place mode's default list. Order
// is preserved — it is the tie-break priority — and duplicates collapse
// to their first occurrence.
func ParseBackends(s string) ([]Backend, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	var out []Backend
	for _, f := range strings.Split(s, ",") {
		out = append(out, Backend(strings.TrimSpace(f)))
	}
	return normalizeBackends(out)
}

// normalizeBackends validates and dedupes, preserving first-occurrence
// order.
func normalizeBackends(bs []Backend) ([]Backend, error) {
	var out []Backend
	seen := map[Backend]bool{}
	for _, b := range bs {
		switch b {
		case BackendILP, BackendGreedy, BackendAnneal:
		default:
			return nil, fmt.Errorf("core: unknown backend %q (want ilp, greedy or anneal)", string(b))
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out, nil
}

// AnnealOptions tunes the simulated-annealing backend; zero fields mean
// the defaults (see place.AnnealOptions).
type AnnealOptions = place.AnnealOptions

// Cost is the one quality order that chooses between the results of
// different producers, compared lexicographically, best first:
// completeness, then the paper's objective and its tie-breaks in Table 1's
// reading order.
type Cost struct {
	// Incomplete counts dropped operations plus unrouted nets.
	Incomplete int
	VsMax1     int
	VsMax2     int
	UsedValves int
}

// Cost returns the result's quality key.
func (r *Result) Cost() Cost {
	return Cost{
		Incomplete: len(r.Mapping.Dropped) + r.FailedRoutes,
		VsMax1:     r.VsMax1,
		VsMax2:     r.VsMax2,
		UsedValves: r.UsedValves,
	}
}

// Less reports whether c is strictly better than o.
func (c Cost) Less(o Cost) bool {
	if c.Incomplete != o.Incomplete {
		return c.Incomplete < o.Incomplete
	}
	if c.VsMax1 != o.VsMax1 {
		return c.VsMax1 < o.VsMax1
	}
	if c.VsMax2 != o.VsMax2 {
		return c.VsMax2 < o.VsMax2
	}
	return c.UsedValves < o.UsedValves
}

// pickWinner returns the index of the best non-nil result by Cost,
// scanning in list order with a strictly-less comparison — ties go to the
// earlier candidate, so the choice does not depend on finish order.
// Returns -1 when every candidate failed.
func pickWinner(rs []*Result) int {
	win := -1
	for i, r := range rs {
		if r != nil && (win < 0 || r.Cost().Less(rs[win].Cost())) {
			win = i
		}
	}
	return win
}

// RaceReport records the nominal candidates of a call that had two or
// more, one lane per candidate in priority order.
type RaceReport struct {
	// Winner names the candidate whose result was returned; it is a
	// fallback candidate when every lane failed.
	Winner string `json:"winner"`
	// Lanes lists every nominal candidate's outcome.
	Lanes []RaceLane `json:"lanes"`
}

// RaceLane is one nominal candidate's outcome.
type RaceLane struct {
	Backend string `json:"backend"`
	// Ok is true when the candidate produced a result; Err carries its
	// failure otherwise (a deadline-expired exact solve, typically).
	Ok  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Seconds is the candidate's mapping plus routing wall-clock time.
	Seconds float64 `json:"seconds"`
	// The result quality, for Ok lanes.
	VsMax1       int `json:"vs_max1,omitempty"`
	VsMax2       int `json:"vs_max2,omitempty"`
	UsedValves   int `json:"used_valves,omitempty"`
	Dropped      int `json:"dropped,omitempty"`
	FailedRoutes int `json:"failed_routes,omitempty"`
	// Won marks the winning lane.
	Won bool `json:"won,omitempty"`
}

// candidate is one producer run of the selection: a backend mapping under
// the configured place options, optionally with the storage-overlap (c5)
// and routing-convenient ((13)-(16)) couplings dropped or in best-effort
// mode.
type candidate struct {
	backend Backend
	relaxed bool
	partial bool
}

func (c candidate) String() string {
	s := string(c.backend)
	if c.relaxed {
		s += "-relaxed"
	}
	if c.partial {
		s += "-best-effort"
	}
	return s
}

// config derives the candidate's place configuration. The ILP keeps an
// exact mode; every other producer maps with the greedy mode (the
// annealer ignores Mode).
func (c candidate) config(base place.Config) place.Config {
	cfg := base
	switch {
	case c.backend != BackendILP:
		cfg.Mode = place.Greedy
	case cfg.Mode == place.Greedy:
		cfg.Mode = place.RollingHorizon
	}
	if c.relaxed {
		cfg.NoStorageOverlap, cfg.NoRoutingConvenient = true, true
	}
	if c.partial {
		cfg.BestEffort = true
	}
	return cfg
}

// produce runs the candidate's mapper; workers bounds the anneal
// replicate fan-out.
func (c candidate) produce(ctx context.Context, sched *schedule.Result, cfg place.Config, an AnnealOptions, workers int) (*place.Mapping, error) {
	if c.backend == BackendAnneal {
		return place.Anneal(ctx, sched, cfg, an, workers)
	}
	return place.MapCtx(ctx, sched, cfg)
}

// tier is a group of candidates that compete under Cost. A tier runs only
// when every candidate of every earlier tier failed, so a fallback never
// competes with a nominal result; level is the degradation a result from
// this tier reports.
type tier struct {
	level DegradationLevel
	cands []candidate
}

// tiers builds the call's candidate list:
//
//	tier 0  the nominal producers: Options.Backends, or by place mode
//	        ilp,greedy (rolling horizon), ilp (monolithic), greedy (greedy)
//	tier 1  each nominal producer with the couplings relaxed (the annealer
//	        relaxes as greedy)
//	tier 2  greedy
//	tier 3  greedy best-effort
//
// A configuration that already ran in an earlier tier is not repeated, and
// DisableDegradation keeps tier 0 only.
func tiers(opts Options) ([]tier, error) {
	nominal, err := normalizeBackends(opts.Backends)
	if err != nil {
		return nil, err
	}
	if len(nominal) == 0 {
		switch opts.Place.Mode {
		case place.Greedy:
			nominal = []Backend{BackendGreedy}
		case place.Monolithic:
			nominal = []Backend{BackendILP}
		default:
			nominal = []Backend{BackendILP, BackendGreedy}
		}
	}
	// Flags the base configuration already sets change nothing, so they
	// are normalised away before deduplication.
	relaxedBase := opts.Place.NoStorageOverlap && opts.Place.NoRoutingConvenient
	seen := map[candidate]bool{}
	var out []tier
	add := func(level DegradationLevel, cands ...candidate) {
		t := tier{level: level}
		for _, c := range cands {
			c.relaxed = c.relaxed && !relaxedBase
			c.partial = c.partial && !opts.Place.BestEffort
			if !seen[c] {
				seen[c] = true
				t.cands = append(t.cands, c)
			}
		}
		if len(t.cands) > 0 {
			out = append(out, t)
		}
	}
	var t0, t1 []candidate
	for _, b := range nominal {
		t0 = append(t0, candidate{backend: b})
		if b == BackendAnneal {
			b = BackendGreedy
		}
		t1 = append(t1, candidate{backend: b, relaxed: true})
	}
	add(DegradeNone, t0...)
	if opts.DisableDegradation {
		return out, nil
	}
	add(DegradeRelaxed, t1...)
	add(DegradeGreedy, candidate{backend: BackendGreedy})
	add(DegradePartial, candidate{backend: BackendGreedy, partial: true})
	return out, nil
}

// phaseClock accumulates the call's per-phase wall-clock seconds and
// announces the running phase on the progress bus.
type phaseClock struct {
	bus   *obs.ProgressBus
	assay string
	secs  map[string]float64
}

// enter publishes the running phase with the seconds accumulated so far;
// the map is cloned per update (published snapshots are immutable, see
// obs.Progress). A nil clock does nothing.
func (pc *phaseClock) enter(name string) {
	if pc == nil {
		return
	}
	pc.bus.Update(func(p *obs.Progress) {
		p.Assay = pc.assay
		p.Phase = name
		p.Done = false
		cl := make(map[string]float64, len(pc.secs))
		for k, v := range pc.secs {
			cl[k] = v
		}
		p.Phases = cl
	})
}

// lane is one candidate's outcome within a tier.
type lane struct {
	cand   candidate
	res    *Result
	err    error
	secs   float64
	mapEnd time.Time
}

// selectResult runs the tiers in order against one schedule and working
// fault set and returns the best result of the first tier in which any
// candidate succeeds. A tier whose every candidate failed aborts the call
// when one of them hit the deadline; otherwise its failures become the
// Attempts of the eventual result's Degradation.
func selectResult(ctx context.Context, a *graph.Assay, sched *schedule.Result, opts Options, ts []tier, root *obs.Span, pc *phaseClock) (*Result, error) {
	var attempts []Attempt
	var firstErr error
	var race *RaceReport
	for ti, t := range ts {
		lanes := runTier(ctx, a, sched, opts, t.cands, root, pc)
		rs := make([]*Result, len(lanes))
		for i, l := range lanes {
			rs[i] = l.res
		}
		win := pickWinner(rs)
		if ti == 0 && len(lanes) > 1 {
			race = raceReport(lanes, win)
		}
		if win < 0 {
			for _, l := range lanes {
				if errors.Is(l.err, synerr.ErrDeadline) {
					return nil, l.err
				}
			}
			for _, l := range lanes {
				if firstErr == nil {
					firstErr = l.err
				}
				attempts = append(attempts, Attempt{Rung: l.cand.String(), Err: l.err.Error()})
			}
			continue
		}
		w := lanes[win]
		res := w.res
		res.Backend = string(w.cand.backend)
		if race != nil {
			race.Winner = w.cand.String()
			res.Race = race
		}
		if ti > 0 {
			d := res.degrade()
			d.escalate(t.level)
			d.Attempts = attempts
		}
		root.Set(obs.KV("winner", w.cand.String()))
		return res, nil
	}
	return nil, fmt.Errorf("core: every placement candidate failed: %w", firstErr)
}

// runTier maps and completes every candidate of a tier concurrently, one
// goroutine per candidate: each lane routes and simulates its own mapping
// as soon as it has one, so a fast lane finishes before a slow one can
// run out the caller's deadline. The tier's wall time is attributed to
// "place" until the last mapping is done and to "route" after that. A
// panicking candidate fails its lane, not the call.
func runTier(ctx context.Context, a *graph.Assay, sched *schedule.Result, opts Options, cands []candidate, root *obs.Span, pc *phaseClock) []lane {
	pub := newRacePublisher(opts.Trace.ProgressBus(), cands)
	pc.enter("place")
	start := time.Now()
	lanes := make([]lane, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		wg.Add(1)
		go func(i int, c candidate) {
			defer wg.Done()
			l := &lanes[i]
			l.cand = c
			sp := root
			if len(cands) > 1 {
				sp = root.StartTrack("candidate:"+c.String(), "candidate", obs.KV("candidate", c.String()))
			}
			t0 := time.Now()
			func() {
				defer func() {
					if p := recover(); p != nil {
						l.res, l.err = nil, fmt.Errorf("core: candidate %s panic: %v", c, p)
					}
				}()
				cfg := c.config(opts.Place)
				if opts.Faults != nil {
					cfg.Faults = opts.Faults // the working set, wear promotions included
				}
				placeSp := sp.Start("place", obs.KV("candidate", c.String()))
				cfg.Obs = placeSp
				var m *place.Mapping
				phaseDo(ctx, "place", func(ctx context.Context) {
					m, l.err = c.produce(ctx, sched, cfg, opts.Anneal, opts.Workers)
				})
				placeSp.End()
				l.mapEnd = time.Now()
				if l.err == nil {
					l.res, l.err = complete(ctx, a, sched, m, opts, sp, pc)
				}
			}()
			l.secs = time.Since(t0).Seconds()
			if sp != root {
				if l.err != nil {
					sp.Set(obs.KV("error", l.err.Error()))
				} else {
					sp.Set(obs.KV("vs_max1", l.res.VsMax1), obs.KV("vs_max2", l.res.VsMax2))
				}
				sp.End()
			}
			pub.finish(i, l.res, l.secs)
		}(i, c)
	}
	wg.Wait()
	placeEnd := start
	for _, l := range lanes {
		if l.mapEnd.After(placeEnd) {
			placeEnd = l.mapEnd
		}
	}
	pc.secs["place"] += placeEnd.Sub(start).Seconds()
	pc.secs["route"] += time.Since(placeEnd).Seconds()
	return lanes
}

// raceReport summarises a tier's lanes; win is the winning index or -1.
func raceReport(lanes []lane, win int) *RaceReport {
	rep := &RaceReport{}
	for i, l := range lanes {
		rl := RaceLane{Backend: l.cand.String(), Seconds: l.secs, Won: i == win}
		if l.err != nil {
			rl.Err = l.err.Error()
		} else {
			rl.Ok = true
			rl.VsMax1 = l.res.VsMax1
			rl.VsMax2 = l.res.VsMax2
			rl.UsedValves = l.res.UsedValves
			rl.Dropped = len(l.res.Mapping.Dropped)
			rl.FailedRoutes = l.res.FailedRoutes
		}
		rep.Lanes = append(rep.Lanes, rl)
	}
	return rep
}

// racePublisher mirrors the lane states of a tier with two or more
// candidates onto the progress bus. A nil publisher does nothing.
type racePublisher struct {
	bus   *obs.ProgressBus
	mu    sync.Mutex
	lanes []obs.BackendLane
}

func newRacePublisher(bus *obs.ProgressBus, cands []candidate) *racePublisher {
	if bus == nil || len(cands) < 2 {
		return nil
	}
	p := &racePublisher{bus: bus}
	for _, c := range cands {
		p.lanes = append(p.lanes, obs.BackendLane{Backend: c.String(), State: "running"})
	}
	p.mu.Lock()
	p.publishLocked()
	p.mu.Unlock()
	return p
}

// publishLocked installs a clone of the lanes (published snapshots are
// immutable); mu must be held.
func (p *racePublisher) publishLocked() {
	cl := make([]obs.BackendLane, len(p.lanes))
	copy(cl, p.lanes)
	p.bus.Update(func(pr *obs.Progress) { pr.Race = &obs.RaceProgress{Backends: cl} })
}

func (p *racePublisher) finish(i int, res *Result, secs float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lanes[i].Seconds = secs
	p.lanes[i].State = "failed"
	if res != nil {
		p.lanes[i].State = "done"
		p.lanes[i].VsMax1 = res.VsMax1
	}
	p.publishLocked()
}

// Package core implements the paper's overall reliability-aware synthesis
// (Algorithm 1): it takes a bioassay and a scheduling policy, produces the
// scheduling result, maps every operation to a dynamic device on the
// valve-centered architecture (internal/place), routes all fluid transports
// with storage pass-through and rip-up & re-route (internal/route), and
// simulates the per-valve actuation counts that Table 1 reports.
//
// Two evaluation settings are produced, as in the paper's Section 4:
//
//   - Setting 1: every ring valve of a dynamic mixer is actuated 40 times
//     per mixing operation — the same per-valve effort as a dedicated
//     mixer's pump valve (conservative).
//   - Setting 2: the same synthesis result, but the per-valve count is
//     scaled so a mixing operation costs 120 total actuations (three
//     dedicated pump valves × 40), e.g. 15 per valve on an 8-valve ring.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"mfsynth/internal/arch"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/grid"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/route"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
)

// DefaultPumpActuations is the per-valve actuation count of one mixing
// operation in setting 1 (from the paper, after [9]).
const DefaultPumpActuations = 40

// DefaultDedicatedPumpValves is the number of pump valves in a traditional
// dedicated mixer (Fig. 2), fixing setting 2's per-operation total at
// 3 × 40 = 120 actuations.
const DefaultDedicatedPumpValves = 3

// Options configures a synthesis run.
type Options struct {
	// Policy bounds device concurrency during scheduling (the traditional
	// design whose schedule is reused, as in the paper's evaluation).
	Policy schedule.Resources
	// TransportDelay in time units (default schedule.DefaultTransportDelay).
	TransportDelay int
	// Place configures the dynamic-device mapper. Place.Grid must be set.
	Place place.Config
	// PumpActuations is setting 1's per-valve per-operation count
	// (default 40).
	PumpActuations int
	// DedicatedPumpValves fixes setting 2's per-operation total as
	// DedicatedPumpValves × PumpActuations (default 3).
	DedicatedPumpValves int
	// DisableStoragePassthrough treats in situ storages as routing
	// obstacles (the Fig. 8(a) behaviour; ablation of Section 3.5).
	DisableStoragePassthrough bool
	// Workers bounds the synthesis-internal parallelism, the anneal
	// replicate fan-out (0 = runtime.GOMAXPROCS, 1 = serial). Every value
	// produces bit-identical results; only wall-clock time changes.
	Workers int
	// Trace, when non-nil, records a hierarchical span tree and metrics for
	// the run (one root span per Synthesize call). Tracing never changes
	// synthesis results; a nil Trace costs nothing.
	Trace *obs.Trace
	// Faults lists the defective valves the synthesis must work around:
	// stuck-closed cells are kept out of every footprint and path,
	// stuck-open cells out of every ring and wall band, and wear-out cells
	// whose actuation count would exceed their threshold are re-mapped
	// around. Nil means a fault-free chip and changes nothing — with no
	// faults the result is bit-identical to a run without this field.
	Faults *fault.Set
	// MaxRipups bounds the rip-up & re-route attempts per net
	// (Algorithm 1 L13-L17). Default 8, also for negative values.
	MaxRipups int
	// DisableDegradation keeps the nominal candidates only: when all of
	// them fail, so does the run. Failed routes and wear overruns are
	// still reported either way.
	DisableDegradation bool
	// Backends lists the nominal mapping producers, in tie-break priority
	// order. Each one maps, routes and simulates concurrently under the
	// caller's context and the best result by Cost wins. Empty means the
	// place mode's list: ilp,greedy for RollingHorizon, ilp for
	// Monolithic, greedy for Greedy.
	Backends []Backend
	// Anneal tunes the simulated-annealing backend (used only when
	// Backends lists "anneal"); zero fields mean the anneal defaults.
	Anneal AnnealOptions
	// WearBias scales how strongly cumulative per-valve wear steers the
	// placement objective: WearCounts is converted into per-operation load
	// units (count × WearBias / PumpActuations, rounded) and seeded into
	// the mapper's load accumulation (place.Config.WearPrior), so a
	// re-synthesis on a worn chip routes new duty onto lightly-used
	// valves. 0 disables the bias; 1 weighs past wear equally with new
	// load. The anneal backend searches per-run cost and ignores the
	// prior.
	WearBias float64
	// WearCounts is the chip's cumulative per-valve actuation counters in
	// row-major Place.Grid×Place.Grid order (fleet telemetry); consulted
	// only when WearBias > 0. An explicitly set Place.WearPrior takes
	// precedence.
	WearCounts []int
}

// WithDefaults resolves the option defaults shared by every entry point
// (SynthesizeCtx, Complete); the canonical request of internal/verify is
// written from it, so a request and its run cannot disagree on a default.
// Place's own defaults are place.Config.WithDefaults'.
func (o Options) WithDefaults() Options {
	if o.PumpActuations == 0 {
		o.PumpActuations = DefaultPumpActuations
	}
	if o.DedicatedPumpValves == 0 {
		o.DedicatedPumpValves = DefaultDedicatedPumpValves
	}
	if o.MaxRipups <= 0 {
		o.MaxRipups = 8
	}
	if o.Place.Grid == 0 {
		o.Place.Grid = 10
	}
	if o.WearBias > 0 && len(o.WearCounts) > 0 && o.Place.WearPrior == nil {
		o.Place.WearPrior = wearPriorUnits(o.WearCounts, o.WearBias, o.PumpActuations)
	}
	return o
}

// wearPriorUnits converts cumulative per-valve actuation counters into the
// per-operation load units place.Config.WearPrior expects, scaled by the
// bias weight: round(count × bias / pumpActuations).
func wearPriorUnits(counts []int, bias float64, pumpActuations int) []int {
	if pumpActuations <= 0 {
		pumpActuations = DefaultPumpActuations
	}
	out := make([]int, len(counts))
	for i, c := range counts {
		if c > 0 {
			out[i] = int(float64(c)*bias/float64(pumpActuations) + 0.5)
		}
	}
	return out
}

// EventKind classifies actuation events.
type EventKind int

// Event kinds.
const (
	// PumpEvent is a mixing operation's peristalsis on its ring valves.
	PumpEvent EventKind = iota
	// CtrlEvent is a transport path being opened and closed once.
	CtrlEvent
)

// Event is one actuation event of the synthesis result.
type Event struct {
	// T is the time the event occurs.
	T int
	// Kind classifies the event.
	Kind EventKind
	// Cells are the valves involved.
	Cells []grid.Point
	// Op is the operation that caused the event.
	Op int
	// Ring is the ring length of the pumping device (PumpEvent only); it
	// determines the per-valve count in setting 2.
	Ring int
}

// Transport is one routed fluid movement.
type Transport struct {
	// T is the transport time.
	T int
	// From and To name the endpoints (operation names or port names).
	From, To string
	// FromID and ToID are the endpoint operation IDs, -1 for chip ports.
	FromID, ToID int
	// Path is the routed cell sequence.
	Path route.Path
	// InPlace marks a transfer whose source and destination devices share
	// cells: the product is already inside the in situ storage, no valve
	// actuates (the paper's Section 3.3 benefit of turning a storage into
	// its device directly, "saving the transportation effort").
	InPlace bool
}

// Result is a complete synthesis result with both evaluation settings.
type Result struct {
	Assay    *graph.Assay
	Schedule *schedule.Result
	Mapping  *place.Mapping
	Grid     int

	// Events is the full actuation event log in time order.
	Events []Event
	// Transports lists every routed fluid movement.
	Transports []Transport

	// VsMax1 and VsPump1 are setting 1's largest total and pump-only
	// per-valve actuation counts (Table 1's "vs 1max" as "45(40)").
	VsMax1, VsPump1 int
	// VsMax2 and VsPump2 are setting 2's counterparts.
	VsMax2, VsPump2 int
	// UsedValves is the number of virtual valves that actuate at least
	// once — the valves actually manufactured (#v).
	UsedValves int
	// PumpBound is place.PumpBound over the mix operations the mapping
	// placed: no mapping of them can pump any valve fewer times, in pump
	// uses (multiply by PumpActuations for vs_pump). PumpGap is
	// Mapping.MaxPumpOps − PumpBound; 0 proves the mapping optimal on the
	// paper's objective.
	PumpBound, PumpGap int
	// FailedRoutes counts transports that could not be routed (0 on all
	// benchmarks; kept for diagnostics on dense custom assays). Each one
	// is itemised in Degradation.FailedNets.
	FailedRoutes int
	// Degradation is non-nil when the run deviated from nominal in any
	// way: a fallback tier of the candidate list produced the result,
	// operations were dropped, nets went unrouted, or wear-out valves were
	// promoted. Nil on every clean run, so nominal results are unchanged
	// bit for bit.
	Degradation *Degradation
	// Runtime is the wall-clock synthesis time.
	Runtime time.Duration
	// PhaseSeconds is the wall-clock time spent in each pipeline phase
	// (keys "schedule", "place", "route"), accumulated over candidate
	// tiers and wear-promotion rounds; the phases sum to at most Runtime.
	// "place" runs until the last candidate of a tier has its mapping, so
	// it covers every candidate's mapping time; route time includes the
	// actuation simulation.
	PhaseSeconds map[string]float64
	// Backend names the producer of the returned mapping ("ilp", "greedy"
	// or "anneal").
	Backend string
	// Race reports the nominal candidates when there were two or more.
	Race *RaceReport

	opts  Options
	route routeObs
}

// Options returns the effective options of the run, with defaults applied
// (PumpActuations, DedicatedPumpValves, Place.Grid). Conformance checkers
// need them to re-derive the actuation accounting from first principles.
func (r *Result) Options() Options { return r.opts }

// Synthesize runs the full flow on the assay.
func Synthesize(a *graph.Assay, opts Options) (*Result, error) {
	return SynthesizeCtx(context.Background(), a, opts)
}

// maxWearRounds bounds the wear-promotion re-mapping loop: each round may
// push actuations onto fresh wear-out cells, so without a bound a chip
// riddled with low-threshold valves could cycle. After the last round the
// remaining overruns are reported in Degradation.WearExceeded instead.
const maxWearRounds = 4

// SynthesizeCtx is Synthesize with cancellation: ctx is checked in every
// phase (scheduling, each branch-and-bound node, routing each net), and a
// cancelled run returns an error matching synerr.ErrDeadline. A panic
// anywhere in the pipeline is recovered and returned as an error — a
// synthesis call never takes the process down.
//
// The assay is scheduled once; the mapping is then chosen from a tiered
// candidate list (see tiers): every candidate of a tier is mapped, routed
// and simulated concurrently and the best result under Cost wins, and a
// later tier runs only when the whole earlier tier failed. A fallback
// tier's result reports its rung and the failed candidates in
// Result.Degradation rather than hiding them behind an error.
//
// With Options.Faults set, mapping and routing avoid the defective valves,
// and wear-out cells whose simulated actuation count exceeds their
// threshold are promoted to obstacles and the selection re-runs (bounded
// by maxWearRounds).
func SynthesizeCtx(ctx context.Context, a *graph.Assay, opts Options) (res *Result, err error) {
	start := time.Now()
	opts = opts.WithDefaults()
	root := opts.Trace.Start("synthesize",
		obs.KV("assay", a.Name), obs.KV("grid", opts.Place.Grid),
		obs.KV("workers", opts.Workers))
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("core: synthesis panic: %v", p)
		}
		if err != nil {
			root.Set(obs.KV("error", err.Error()))
		} else {
			root.Set(obs.KV("vs_max1", res.VsMax1), obs.KV("vs_max2", res.VsMax2),
				obs.KV("used_valves", res.UsedValves))
		}
		root.End()
	}()

	ts, err := tiers(opts)
	if err != nil {
		return nil, err
	}
	pc := &phaseClock{bus: opts.Trace.ProgressBus(), assay: a.Name, secs: map[string]float64{}}

	t0 := time.Now()
	pc.enter("schedule")
	schedSp := root.Start("schedule")
	var sched *schedule.Result
	phaseDo(ctx, "schedule", func(ctx context.Context) {
		sched, err = schedule.ListCtx(ctx, a, schedule.Options{
			TransportDelay: opts.TransportDelay,
			Resources:      opts.Policy,
			Obs:            schedSp,
		})
	})
	schedSp.End()
	pc.secs["schedule"] = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}

	// Wear-promotion loop: select, simulate the actuation counts, promote
	// over-threshold wear-out valves to obstacles, repeat.
	working := opts.Faults
	var worn []grid.Point
	for round := 0; ; round++ {
		roundOpts := opts
		roundOpts.Faults = working
		res, err = selectResult(ctx, a, sched, roundOpts, ts, root, pc)
		if err != nil {
			return nil, err
		}
		over := wearExceeded(res, working)
		if len(over) == 0 {
			break
		}
		if round == maxWearRounds-1 {
			res.degrade().WearExceeded = over
			break
		}
		working = working.Clone()
		for _, p := range over {
			working.Promote(p)
			worn = append(worn, p)
		}
		root.Mark("wear.promote",
			obs.KV("round", round), obs.KV("cells", len(over)))
	}
	if len(worn) > 0 {
		sort.Slice(worn, func(i, j int) bool {
			if worn[i].Y != worn[j].Y {
				return worn[i].Y < worn[j].Y
			}
			return worn[i].X < worn[j].X
		})
		res.degrade().WornValves = worn
	}
	res.recordRoute(root.Metrics())
	pc.enter("sim") // re-announce with the final phase seconds
	res.PhaseSeconds = pc.secs
	res.Runtime = time.Since(start)
	opts.Trace.ProgressBus().Update(func(p *obs.Progress) { p.Done = true })
	return res, nil
}

// phaseDo runs f under a pprof label marking the pipeline phase, so CPU
// profiles (continuous capture included, see internal/obs/export) can be
// filtered and attributed per phase. Labels propagate through the context
// into spawned worker goroutines.
func phaseDo(ctx context.Context, phase string, f func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels("mf_phase", phase), f)
}

// Complete routes and simulates an externally produced mapping against
// the given schedule, yielding a full Result with the Table 1 metrics —
// the downstream two thirds of the pipeline without the mapper. The
// candidate selection completes every candidate mapping through the same
// path, and the anneal property tests run every accepted annealing state
// through it so verify.Conformance can audit states the normal flow never
// surfaces.
func Complete(ctx context.Context, a *graph.Assay, sched *schedule.Result, m *place.Mapping, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	root := opts.Trace.Start("complete", obs.KV("assay", a.Name))
	defer root.End()
	start := time.Now()
	res, err := complete(ctx, a, sched, m, opts, root, nil)
	if err != nil {
		return nil, err
	}
	res.recordRoute(root.Metrics())
	res.Runtime = time.Since(start)
	return res, nil
}

// complete is Complete under a caller's span, announcing the route and
// sim phases on pc (nil: no announcements).
func complete(ctx context.Context, a *graph.Assay, sched *schedule.Result, m *place.Mapping, opts Options, sp *obs.Span, pc *phaseClock) (*Result, error) {
	res := &Result{
		Assay:    a,
		Schedule: sched,
		Mapping:  m,
		Grid:     opts.Place.Grid,
		opts:     opts,
	}
	if len(m.Dropped) > 0 {
		d := res.degrade()
		for _, op := range m.Dropped {
			d.DroppedOps = append(d.DroppedOps, a.Op(op).Name)
		}
		d.escalate(DegradePartial)
	}

	pc.enter("route")
	routeSp := sp.Start("route")
	var err error
	phaseDo(ctx, "route", func(ctx context.Context) {
		err = res.routeAndSimulate(ctx, routeSp)
	})
	routeSp.End()
	if err != nil {
		return nil, err
	}

	pc.enter("sim")
	simSp := sp.Start("sim")
	phaseDo(ctx, "sim", func(context.Context) {
		res.computeMetrics()
	})
	simSp.Set(obs.KV("events", len(res.Events)))
	simSp.End()
	return res, nil
}

// wearExceeded simulates the result's full actuation horizon and returns
// the wear-out cells of fs whose total count exceeds their threshold,
// sorted row-major.
func wearExceeded(r *Result, fs *fault.Set) []grid.Point {
	wearOuts := fs.WearOuts()
	if len(wearOuts) == 0 {
		return nil
	}
	chip := r.ChipAt(-1, 1)
	var out []grid.Point
	for _, f := range wearOuts {
		if chip.TotalAt(f.At.X, f.At.Y) > f.Threshold {
			out = append(out, f.At)
		}
	}
	return out
}

// routeObs tallies one result's routing work. A run routes every
// candidate's mapping but adds only the returned result's tallies to the
// trace metrics (recordRoute), so the route_* counters describe the chips
// a run returns.
type routeObs struct {
	// run is the per-run tally the progress bus carries.
	bus *obs.ProgressBus
	run obs.RouteProgress
	// pops and crossings complete the tally for the registry counters.
	pops, crossings int64
}

// publish mirrors the per-run tallies onto the progress bus (fresh
// sub-struct per update — published snapshots are immutable).
func (ro *routeObs) publish() {
	if ro.bus == nil {
		return
	}
	run := ro.run
	ro.bus.Update(func(p *obs.Progress) { p.Route = &run })
}

// recordRoute adds the result's routing tallies to the metrics registry
// (nil-safe).
func (r *Result) recordRoute(m *obs.Metrics) {
	ro := &r.route
	m.Counter("route_nets_total").Add(ro.run.Nets)
	m.Counter("route_in_place_total").Add(ro.run.InPlace)
	m.Counter("route_failed_total").Add(ro.run.Failed)
	m.Counter("route_dijkstra_pops_total").Add(ro.pops)
	m.Counter("route_ripups_total").Add(ro.run.Ripups)
	m.Counter("route_crossings_total").Add(ro.crossings)
	m.Counter("route_wirelength_total").Add(ro.run.Wirelength)
	pathLen := m.Histogram("route_path_len", []float64{4, 8, 16, 32, 64})
	for _, tr := range r.Transports {
		if !tr.InPlace {
			pathLen.Observe(float64(len(tr.Path)))
		}
	}
}

// routeAndSimulate builds the event log: pump events from the schedule and
// control events from routing every transport (Algorithm 1 L10-L19).
func (r *Result) routeAndSimulate(ctx context.Context, sp *obs.Span) error {
	a := r.Assay
	sched := r.Schedule
	m := r.Mapping
	chip := arch.NewChip(r.Grid, r.Grid)
	ro := &r.route
	ro.bus = sp.Trace().ProgressBus()

	// Pump events at operation start.
	for id, pl := range m.Placements {
		if a.Op(id).Kind != graph.Mix {
			continue
		}
		r.Events = append(r.Events, Event{
			T: sched.Start[id], Kind: PumpEvent,
			Cells: pl.Ring(), Op: id, Ring: pl.Volume(),
		})
	}

	// Transport demands grouped by time.
	var demands []net
	inPorts, outPorts := portCells(chip)

	for _, op := range a.Ops() {
		if op.Kind == graph.Output {
			continue
		}
		if _, placed := m.Placements[op.ID]; !placed && op.Kind != graph.Input {
			continue
		}
		if op.Kind != graph.Input {
			pl := m.Placements[op.ID]
			// Input-port loads arrive at operation start.
			for _, e := range a.In(op.ID) {
				if a.Op(e.From).Kind != graph.Input {
					continue
				}
				demands = append(demands, net{
					t: sched.Start[op.ID], from: inPorts, to: pl.Ring(),
					fromName: a.Op(e.From).Name, toName: op.Name,
					fromID: e.From, toID: op.ID, op: op.ID,
					exclude: map[int]bool{op.ID: true},
				})
			}
			// Product transports to children devices at finish.
			for _, e := range a.Out(op.ID) {
				child := a.Op(e.To)
				switch child.Kind {
				case graph.Output:
					demands = append(demands, net{
						t: sched.Finish[op.ID], from: pl.Ring(), to: outPorts,
						fromName: op.Name, toName: child.Name,
						fromID: op.ID, toID: e.To, op: op.ID,
						exclude: map[int]bool{op.ID: true},
					})
				default:
					cpl, ok := m.Placements[e.To]
					if !ok {
						continue
					}
					demands = append(demands, net{
						t: sched.Finish[op.ID], from: pl.Ring(), to: cpl.Ring(),
						fromName: op.Name, toName: child.Name,
						fromID: op.ID, toID: e.To, op: e.To,
						exclude: map[int]bool{op.ID: true, e.To: true},
					})
				}
			}
			// Childless products drain to the waste/output port.
			if len(a.Out(op.ID)) == 0 {
				demands = append(demands, net{
					t: sched.Finish[op.ID], from: pl.Ring(), to: outPorts,
					fromName: op.Name, toName: "out",
					fromID: op.ID, toID: -1, op: op.ID,
					exclude: map[int]bool{op.ID: true},
				})
			}
		}
	}
	sort.SliceStable(demands, func(i, j int) bool {
		if demands[i].t != demands[j].t {
			return demands[i].t < demands[j].t
		}
		return demands[i].op < demands[j].op
	})

	// Cells no path may cross: stuck-closed valves cannot open for fluid,
	// stuck-open valves cannot close behind it. Computed once; the set is
	// immutable within a run.
	faulty := r.opts.Faults.UnroutableCells()

	// One router for the whole run: the flat grids are sized once and only
	// reset between nets, so the per-net cost is a few memclr calls instead
	// of fresh allocations.
	router := route.New(chip.Bounds())

	// Route time step by time step.
	for i := 0; i < len(demands); {
		j := i
		for j < len(demands) && demands[j].t == demands[i].t {
			j++
		}
		stepSp := sp.Start("route.step",
			obs.KV("t", demands[i].t), obs.KV("nets", j-i))
		err := r.routeStep(ctx, router, demands[i].t, demands[i:j], faulty, stepSp, ro)
		stepSp.End()
		ro.publish()
		if err != nil {
			return err
		}
		i = j
	}
	sp.Set(obs.KV("transports", len(r.Transports)),
		obs.KV("failed", r.FailedRoutes))
	// Total order: pump events come from map iteration, so sorting by time
	// alone would leave the within-step order random from run to run. The
	// event log is part of the bit-identical-results contract (the verify
	// package fingerprints it), so break ties all the way down.
	sort.SliceStable(r.Events, func(i, j int) bool {
		a, b := r.Events[i], r.Events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if len(a.Cells) != len(b.Cells) {
			return len(a.Cells) < len(b.Cells)
		}
		for k := range a.Cells {
			if a.Cells[k] != b.Cells[k] {
				if a.Cells[k].Y != b.Cells[k].Y {
					return a.Cells[k].Y < b.Cells[k].Y
				}
				return a.Cells[k].X < b.Cells[k].X
			}
		}
		return false
	})
	return nil
}

// net is one routing request within a time step.
type net struct {
	t            int
	from, to     []grid.Point
	fromName     string
	toName       string
	fromID, toID int
	op           int
	exclude      map[int]bool
}

// routeStep routes all nets of one time step with shared congestion state,
// applying the storage pass-through rule and rip-up & re-route. An
// unroutable net is not an error: it is counted, itemised in
// Degradation.FailedNets and marked on the span, and routing continues —
// the rest of the step's fluid still moves.
func (r *Result) routeStep(ctx context.Context, router *route.Router, t int, nets []net, faulty []grid.Point, sp *obs.Span, ro *routeObs) error {
	m := r.Mapping
	for _, n := range nets {
		if err := ctx.Err(); err != nil {
			return synerr.Deadline("route", err)
		}
		ro.run.Nets++
		// In-place transfer: the endpoints share cells (a storage that
		// overlaps its parent device); the fluid is already in position.
		if shared := sharedCells(n.from, n.to); len(shared) > 0 {
			ro.run.InPlace++
			r.Transports = append(r.Transports, Transport{
				T: t, From: n.fromName, To: n.toName,
				FromID: n.fromID, ToID: n.toID, Path: shared, InPlace: true,
			})
			continue
		}
		router.Reset()
		router.BlockFaulty(faulty)
		// Build obstacles: devices alive at t. Ring cells of every device
		// actuate anyway, so they are preferred path material whenever the
		// device is not alive right now.
		for id, pl := range m.Placements {
			router.Prefer(pl.Ring())
			if n.exclude[id] {
				continue
			}
			w := m.Windows[id]
			if t < w[0] || t >= w[1] {
				continue
			}
			if tl := m.Storages[id]; tl != nil && tl.Active(t) && !r.opts.DisableStoragePassthrough {
				router.AddStorage(id, pl.Footprint())
				continue
			}
			router.Block(pl.Footprint())
		}
		// Replay congestion from already-routed nets of this step, and
		// prefer cells any earlier path already actuates.
		for _, tr := range r.Transports {
			if tr.T == t {
				router.Commit(tr.Path)
			}
			router.Prefer(tr.Path)
		}

		path, err := r.routeNet(router, n, t, ro)
		ro.pops += int64(router.Pops)
		if errors.Is(err, route.ErrNoPath) {
			r.FailedRoutes++
			ro.run.Failed++
			d := r.degrade()
			d.FailedNets = append(d.FailedNets, FailedNet{
				T: t, From: n.fromName, To: n.toName,
				FromID: n.fromID, ToID: n.toID,
			})
			d.escalate(DegradePartial)
			sp.Mark("route.failed_net",
				obs.KV("from", n.fromName), obs.KV("to", n.toName))
			continue
		}
		if err != nil {
			return err
		}
		ro.crossings += int64(router.Crossings(path))
		ro.run.Wirelength += int64(len(path))
		r.Transports = append(r.Transports, Transport{
			T: t, From: n.fromName, To: n.toName,
			FromID: n.fromID, ToID: n.toID, Path: path,
		})
		r.Events = append(r.Events, Event{T: t, Kind: CtrlEvent, Cells: path, Op: n.op})
	}
	return nil
}

// routeNet routes one net, enforcing the storage free-space rule with
// rip-up & re-route (Algorithm 1 L13-L17).
func (r *Result) routeNet(router *route.Router, n net, t int, ro *routeObs) (route.Path, error) {
	m := r.Mapping
	delay := r.Schedule.TransportDelay
	for attempt := 0; attempt < r.opts.MaxRipups; attempt++ {
		path, err := router.Route(n.from, n.to)
		if err != nil {
			return nil, err
		}
		// Rip up the lowest violating storage id: the choice steers the
		// re-route, so it must not depend on map iteration order.
		violated := -1
		for sid, cells := range router.StoragesTouched(path) {
			if n.exclude[sid] {
				continue // the target storage receives the fluid; no check
			}
			tl := m.Storages[sid]
			if tl == nil {
				continue
			}
			if !tl.CanOverlap(cells, t, t+delay) && (violated < 0 || sid < violated) {
				violated = sid
			}
		}
		if violated < 0 {
			return path, nil
		}
		router.BlockStorage(violated)
		ro.run.Ripups++
	}
	return nil, route.ErrNoPath
}

// sharedCells returns the cells common to both terminal sets.
func sharedCells(a, b []grid.Point) route.Path {
	set := make(map[grid.Point]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	var out route.Path
	for _, p := range b {
		if set[p] {
			out = append(out, p)
		}
	}
	return out
}

// portCells returns the input and output port cell sets.
func portCells(chip *arch.Chip) (in, out []grid.Point) {
	for _, p := range chip.Ports {
		switch p.Kind {
		case arch.InPort:
			in = append(in, p.At)
		case arch.OutPort:
			out = append(out, p.At)
		}
	}
	return in, out
}

// computeMetrics derives the Table 1 numbers from the event log.
func (r *Result) computeMetrics() {
	c1 := r.ChipAt(-1, 1) // setting 1, full horizon
	c2 := r.ChipAt(-1, 2)
	r.VsMax1, r.VsPump1 = c1.MaxTotal(), c1.MaxPump()
	r.VsMax2, r.VsPump2 = c2.MaxTotal(), c2.MaxPump()
	r.UsedValves = c1.UsedValves()
	rings := 0
	for _, ev := range r.Events {
		if ev.Kind == PumpEvent {
			rings += ev.Ring
		}
	}
	r.PumpBound = place.PumpBound(r.Grid, rings, nil)
	r.PumpGap = r.Mapping.MaxPumpOps - r.PumpBound
}

// ChipAt replays the event log up to and including time t (t < 0 replays
// everything) under the given setting (1 or 2) and returns the resulting
// actuation counters.
func (r *Result) ChipAt(t int, setting int) *arch.Chip {
	chip := arch.NewChip(r.Grid, r.Grid)
	for _, ev := range r.Events {
		if t >= 0 && ev.T > t {
			break
		}
		switch ev.Kind {
		case PumpEvent:
			n := r.opts.PumpActuations
			if setting == 2 {
				n = r.opts.DedicatedPumpValves * r.opts.PumpActuations / ev.Ring
			}
			for _, pt := range ev.Cells {
				chip.AddPumpAt(pt, n)
			}
		case CtrlEvent:
			// One transport opens and closes every path valve: two state
			// changes, the same accounting as Fig. 2's control counts.
			chip.AddCtrl(ev.Cells, 2)
		}
	}
	return chip
}

// String summarises the result in Table 1 style.
func (r *Result) String() string {
	return fmt.Sprintf("%s: vs1=%d(%d) vs2=%d(%d) #v=%d",
		r.Assay.Name, r.VsMax1, r.VsPump1, r.VsMax2, r.VsPump2, r.UsedValves)
}

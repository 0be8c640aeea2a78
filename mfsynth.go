// Package mfsynth is a reliability-aware synthesis toolkit for flow-based
// microfluidic biochips, reproducing Tseng, Li, Ho and Schlichtmann,
// "Reliability-aware Synthesis for Flow-based Microfluidic Biochips by
// Dynamic-device Mapping" (DAC 2015).
//
// The package is a façade over the implementation packages in internal/:
// sequencing graphs and benchmark assays, list scheduling, the
// valve-centered architecture, ILP-based dynamic-device mapping (with a
// built-in pure-Go MILP solver), transport routing with in situ storage
// pass-through, actuation simulation, and the traditional dedicated-device
// baseline of the paper's Table 1.
//
// Quick start:
//
//	c := mfsynth.PCR()
//	res, err := mfsynth.Synthesize(c.Assay, mfsynth.Options{
//		Policy: mfsynth.Resources{Mixers: c.BaseMixers},
//		Place:  mfsynth.PlaceConfig{Grid: c.GridSize},
//	})
//	fmt.Println(res)               // vs1=…(…) vs2=…(…) #v=…
//	fmt.Println(res.Snapshot(12))  // Fig. 10-style chip snapshot
package mfsynth

import (
	"context"
	"io"

	"mfsynth/internal/arch"
	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/contam"
	"mfsynth/internal/control"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/fleet"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/obs/export"
	"mfsynth/internal/place"
	"mfsynth/internal/report"
	"mfsynth/internal/schedule"
	"mfsynth/internal/sim"
	"mfsynth/internal/svg"
	"mfsynth/internal/synerr"
	"mfsynth/internal/verify"
	"mfsynth/internal/wear"
)

// Assay is a bioassay sequencing graph.
type Assay = graph.Assay

// Op is one assay operation.
type Op = graph.Op

// Kind classifies assay operations.
type Kind = graph.Kind

// Operation kinds.
const (
	Input  = graph.Input
	Mix    = graph.Mix
	Detect = graph.Detect
	Output = graph.Output
)

// NewAssay returns an empty assay with the given name.
func NewAssay(name string) *Assay { return graph.New(name) }

// ParseAssay reads an assay in the line-oriented text format (see
// internal/assays for the grammar).
func ParseAssay(r io.Reader) (*Assay, error) { return assays.Parse(r) }

// WriteAssay serialises an assay in the text format.
func WriteAssay(w io.Writer, a *Assay) error { return assays.Write(w, a) }

// Case bundles a benchmark assay with its evaluation parameters.
type Case = assays.Case

// PCR returns the polymerase chain reaction benchmark (Table 1).
func PCR() Case { return assays.PCR() }

// MixingTree returns the mixing-tree benchmark (Table 1).
func MixingTree() Case { return assays.MixingTree() }

// InterpolatingDilution returns the interpolating-dilution benchmark.
func InterpolatingDilution() Case { return assays.InterpolatingDilution() }

// ExponentialDilution returns the exponential-dilution benchmark.
func ExponentialDilution() Case { return assays.ExponentialDilution() }

// CaseByName resolves a benchmark by name; see CaseNames.
func CaseByName(name string) (Case, error) { return assays.ByName(name) }

// CaseNames lists the benchmark names in Table 1 order.
func CaseNames() []string { return assays.Names() }

// SerialDilution builds a single 1:1 serial dilution chain with the given
// step volumes — a simple parametric assay for experiments.
func SerialDilution(name string, stepVolumes []int) *Assay {
	return assays.SerialDilution(name, stepVolumes)
}

// InVitro builds the classic samples×reagents in-vitro diagnostics assay:
// every sample is mixed with every reagent and the product detected.
func InVitro(samples, reagents, volume int) *Assay {
	return assays.InVitro(samples, reagents, volume)
}

// WriteDOT renders an assay as a Graphviz digraph.
func WriteDOT(w io.Writer, a *Assay) error { return graph.WriteDOT(w, a) }

// Shape is a dynamic-device footprint on the valve matrix.
type Shape = arch.Shape

// Placement is a dynamic-device instance: a shape at a location.
type Placement = arch.Placement

// ShapesForVolume enumerates every device shape (and orientation) whose
// peristaltic ring holds exactly v units, e.g. 3×3, 2×4 and 4×2 for v = 8.
func ShapesForVolume(v int) []Shape { return arch.ShapesForVolume(v) }

// Resources bounds device concurrency during scheduling.
type Resources = schedule.Resources

// ScheduleOptions configures the list scheduler.
type ScheduleOptions = schedule.Options

// ScheduleResult is a scheduling result (start times, binding, Gantt).
type ScheduleResult = schedule.Result

// Schedule runs resource-constrained list scheduling on the assay.
func Schedule(a *Assay, opts ScheduleOptions) (*ScheduleResult, error) {
	return schedule.List(a, opts)
}

// PlaceConfig tunes the dynamic-device mapper.
type PlaceConfig = place.Config

// PlaceMode selects the mapping algorithm.
type PlaceMode = place.Mode

// Mapping algorithms.
const (
	// RollingHorizon (default) solves the paper's ILP over creation-order
	// batches — tractable on all benchmarks with the built-in solver.
	RollingHorizon = place.RollingHorizon
	// MonolithicILP solves the paper's single ILP over all operations.
	MonolithicILP = place.Monolithic
	// GreedyPlace is the constructive heuristic (ablation baseline).
	GreedyPlace = place.Greedy
)

// Backend names one mapping producer. Options.Backends lists the nominal
// producers: each maps, routes and simulates concurrently under the
// caller's context and the best result wins, deterministically.
type Backend = core.Backend

// Mapping producers, in canonical priority order.
const (
	// BackendILP is the paper's exact mapper.
	BackendILP = core.BackendILP
	// BackendGreedy is the constructive multi-start heuristic.
	BackendGreedy = core.BackendGreedy
	// BackendAnneal is the seeded simulated-annealing mapper.
	BackendAnneal = core.BackendAnneal
)

// Backends returns the canonical backend list in priority order.
func Backends() []Backend { return core.Backends() }

// ParseBackends parses a comma-separated backend list in priority order
// ("ilp,greedy,anneal"); "" and "none" mean the place mode's default list.
func ParseBackends(s string) ([]Backend, error) { return core.ParseBackends(s) }

// AnnealOptions tunes the simulated-annealing backend; zero fields mean
// the engine defaults. The seed fully determines the annealed mapping.
type AnnealOptions = core.AnnealOptions

// RaceReport lists the nominal candidates of a run that had two or more,
// one lane per candidate (Result.Race).
type RaceReport = core.RaceReport

// RaceLane is one nominal candidate's outcome.
type RaceLane = core.RaceLane

// Options configures Synthesize.
type Options = core.Options

// Result is a complete synthesis result with both evaluation settings.
type Result = core.Result

// Trace records hierarchical spans and a metrics registry across synthesis
// runs; attach one via Options.Trace (or Table1RowOptions.Trace). Export
// with its WriteText, WriteJSONL and WriteChromeTrace methods — the last
// loads into chrome://tracing and Perfetto. Tracing never changes results;
// a nil Trace costs nothing.
type Trace = obs.Trace

// NewTrace returns an empty trace ready to record runs.
func NewTrace() *Trace { return obs.New() }

// MetricsSnapshot is a point-in-time JSON-marshalable copy of a trace's
// metrics registry, obtained via trace.Metrics().Snapshot().
type MetricsSnapshot = obs.Snapshot

// Progress is one live snapshot of a running synthesis: active phase,
// per-phase wall-clock, B&B incumbent/bound/gap and routing tallies.
// Obtain a stream via trace.EnableProgress().Subscribe, or let a
// DebugServer expose it over HTTP.
type Progress = obs.Progress

// DebugServer is the embedded debug/metrics HTTP server: /metrics
// (Prometheus exposition), /progress (SSE), /debug/pprof and /debug/vars.
type DebugServer = export.Server

// Serve starts a DebugServer on addr over the trace, enabling its live
// progress bus. Close the returned server when the run ends.
func Serve(addr string, tr *Trace) (*DebugServer, error) { return export.Serve(addr, tr) }

// SinkSet collects deferred trace exports (path + writer) and flushes
// them together, attempting every sink and surfacing the first write or
// close error instead of swallowing it.
type SinkSet = obs.SinkSet

// LogProgress streams live progress snapshots to w as JSON lines until
// the returned stop function is called; stop reports the first
// encode/write error. Validate the file with tools/tracecheck -progress.
func LogProgress(tr *Trace, w io.Writer) (stop func() error) { return export.LogProgress(tr, w) }

// Profiler captures continuous profiles: a whole-run CPU profile plus
// per-phase heap snapshots (the -profile-dir flag of the cmds).
type Profiler = export.Profiler

// StartProfiler begins continuous-profile capture into dir; Close it when
// the run ends.
func StartProfiler(dir string, tr *Trace) (*Profiler, error) { return export.StartProfiler(dir, tr) }

// Synthesize runs the full reliability-aware synthesis (Algorithm 1):
// scheduling, dynamic-device mapping, routing, and actuation simulation.
func Synthesize(a *Assay, opts Options) (*Result, error) {
	return core.Synthesize(a, opts)
}

// SynthesizeCtx is Synthesize with cancellation: every phase checks ctx and
// a cancelled run returns an error matching ErrDeadline.
func SynthesizeCtx(ctx context.Context, a *Assay, opts Options) (*Result, error) {
	return core.SynthesizeCtx(ctx, a, opts)
}

// Synthesis error taxonomy: match with errors.Is regardless of which phase
// produced the error (the phase is recoverable via SynthesisPhase).
var (
	// ErrInfeasible marks instances no mapper rung could place.
	ErrInfeasible = synerr.ErrInfeasible
	// ErrDeadline marks runs cut short by context cancellation or expiry.
	ErrDeadline = synerr.ErrDeadline
	// ErrUnroutable marks transports with no admissible path.
	ErrUnroutable = synerr.ErrUnroutable
)

// SynthesisPhase extracts the pipeline phase ("schedule", "place", "milp",
// "route") an error originated in, or "" for untyped errors.
func SynthesisPhase(err error) string { return synerr.Phase(err) }

// FaultKind classifies valve defects.
type FaultKind = fault.Kind

// Valve defect kinds.
const (
	// StuckClosed valves never open: obstacles to chambers and paths.
	StuckClosed = fault.StuckClosed
	// StuckOpen valves never close: unusable as ring, wall or path cells.
	StuckOpen = fault.StuckOpen
	// WearOut valves fail after a bounded number of actuations.
	WearOut = fault.WearOut
)

// Fault is one defective valve.
type Fault = fault.Fault

// FaultSet is an immutable per-chip defect map; nil means a healthy chip.
type FaultSet = fault.Set

// NewFaultSet builds a defect map for a gridSize×gridSize chip.
func NewFaultSet(gridSize int, faults ...Fault) *FaultSet {
	return fault.NewSet(gridSize, faults...)
}

// FaultGenOptions parameterises GenerateFaults.
type FaultGenOptions = fault.GenOptions

// GenerateFaults draws a random defect set, deterministic in the seed.
func GenerateFaults(seed int64, opts FaultGenOptions) *FaultSet {
	return fault.Generate(seed, opts)
}

// ParseFaults reads a defect set in the fault-spec text format
// ("grid N", then "stuck-closed X Y" / "stuck-open X Y" /
// "wear-out X Y THRESHOLD" lines; '#' comments).
func ParseFaults(r io.Reader) (*FaultSet, error) { return fault.Parse(r) }

// WriteFaults serialises a defect set in the fault-spec text format.
func WriteFaults(w io.Writer, fs *FaultSet) error { return fault.Write(w, fs) }

// Degradation is the structured report of a degraded synthesis: the
// fallback tier accepted, failed candidates, unrouted nets, dropped
// operations and wear-out promotions. Nil on Result.Degradation means a
// nominal run.
type Degradation = core.Degradation

// DegradationLevel orders the fallback tiers.
type DegradationLevel = core.DegradationLevel

// Degradation levels, in escalation order.
const (
	DegradeNone    = core.DegradeNone
	DegradeRelaxed = core.DegradeRelaxed
	DegradeGreedy  = core.DegradeGreedy
	DegradePartial = core.DegradePartial
)

// FailedNet is one transport a degraded result could not route.
type FailedNet = core.FailedNet

// CampaignOptions parameterises a fault-injection campaign.
type CampaignOptions = report.CampaignOptions

// Campaign aggregates a fault-injection campaign's outcomes.
type Campaign = report.Campaign

// RunCampaign synthesizes the case repeatedly against seeded random defect
// sets and reports success rate, degradation levels and metric yield.
func RunCampaign(c Case, policy int, opts CampaignOptions) (*Campaign, error) {
	return report.RunCampaign(c, policy, opts)
}

// RenderCampaign formats a campaign as a one-line text summary.
func RenderCampaign(c *Campaign) string { return report.RenderCampaign(c) }

// TraditionalDesign is the dedicated-device baseline of the paper.
type TraditionalDesign = baseline.Design

// CostModel prices the valves of a traditional design.
type CostModel = baseline.CostModel

// DefaultCost is the calibrated traditional-layout cost model.
var DefaultCost = baseline.DefaultCost

// Traditional evaluates the traditional design of the case under the given
// policy index (1-based) with optimal operation binding.
func Traditional(c Case, policy int, cost CostModel) (*TraditionalDesign, error) {
	return baseline.Traditional(c, policy, cost)
}

// Policies derives the mixer policies p1..pn for a case.
func Policies(c Case, n int) []map[int]int { return baseline.Policies(c, n) }

// Table1Row is one line of the paper's Table 1.
type Table1Row = report.Row

// Table1RowOptions tunes the synthesis side of a Table 1 row.
type Table1RowOptions = report.RowOptions

// EvaluateRow computes one benchmark × policy cell of Table 1.
func EvaluateRow(c Case, policy int, opts Table1RowOptions) (*Table1Row, error) {
	return report.Table1Row(c, policy, opts)
}

// EvaluateRowCtx is EvaluateRow with cancellation: an interrupted run
// returns promptly with an error matching ErrDeadline.
func EvaluateRowCtx(ctx context.Context, c Case, policy int, opts Table1RowOptions) (*Table1Row, error) {
	return report.Table1RowCtx(ctx, c, policy, opts)
}

// Table1 evaluates all four benchmarks under policies p1..p3.
func Table1(opts Table1RowOptions) ([]*Table1Row, error) { return report.Table1(opts) }

// Table1Ctx is Table1 with cancellation: once ctx is cut, pending cells
// are skipped and in-flight ones return early.
func Table1Ctx(ctx context.Context, opts Table1RowOptions) ([]*Table1Row, error) {
	return report.Table1Ctx(ctx, opts)
}

// RenderTable1 formats rows as a text table.
func RenderTable1(rows []*Table1Row) string { return report.Render(rows) }

// Table1Averages returns the mean improvement percentages.
func Table1Averages(rows []*Table1Row) (imp1, imp2, impV float64) {
	return report.Averages(rows)
}

// AblationOptions tunes the backend-ablation sweep: every instance is
// synthesised once per backend under the same deadline.
type AblationOptions = report.AblationOptions

// AblationRow is one instance's ablation sweep across the backends.
type AblationRow = report.AblationRow

// AblationCell is one backend's outcome on one ablation instance.
type AblationCell = report.AblationCell

// Ablation runs the backend-ablation sweep (the BENCH_ablation.json
// artefact behind tools/benchgate -ablation).
func Ablation(ctx context.Context, opts AblationOptions) ([]*AblationRow, error) {
	return report.Ablation(ctx, opts)
}

// FleetConfig parameterises a closed-loop fleet wear campaign: N chips
// executing a seeded stream of assay requests with per-valve cumulative
// actuation telemetry driving re-synthesis (internal/fleet).
type FleetConfig = fleet.Config

// FleetWorkload is one assay in a fleet campaign's request mix.
type FleetWorkload = fleet.Workload

// FleetResult compares a static-mapping campaign against the closed-loop
// collector→analyzer→optimizer→actuator control loop on the identical
// seeded request stream (the BENCH_fleet.json artefact behind
// tools/benchgate -fleet).
type FleetResult = fleet.Result

// FleetModeResult aggregates one campaign mode (static or closed-loop).
type FleetModeResult = fleet.ModeResult

// FleetChipState is one chip's persisted wear telemetry.
type FleetChipState = fleet.ChipState

// RunFleet executes a fleet wear campaign in both modes and returns the
// comparison plus the final per-chip telemetry (static first, then
// closed-loop), bit-identically reproducible from FleetConfig.Seed.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, [][]*FleetChipState, error) {
	return fleet.Run(ctx, cfg)
}

// SaveFleetTelemetry persists per-chip cumulative actuation counters in
// the fleet-telemetry text format.
func SaveFleetTelemetry(w io.Writer, chips []*FleetChipState) error {
	return fleet.Save(w, chips)
}

// LoadFleetTelemetry parses telemetry written by SaveFleetTelemetry.
func LoadFleetTelemetry(r io.Reader) ([]*FleetChipState, error) {
	return fleet.Load(r)
}

// Role is what a virtual valve is doing at one instant (the paper's
// valve-role-changing concept made inspectable).
type Role = core.Role

// Valve roles.
const (
	RoleUnused  = core.Unused
	RoleClosed  = core.Closed
	RoleWall    = core.WallRole
	RoleControl = core.ControlRole
	RoleStorage = core.StorageRole
	RolePump    = core.PumpRole
)

// Violation is a broken design rule found by CheckResult.
type Violation = sim.Violation

// CheckResult replays a synthesis result and verifies the physical
// invariants of the paper's model (non-overlap, storage free space,
// routing obstacles, fluid conservation, metric consistency).
func CheckResult(res *Result) []Violation { return sim.Check(res) }

// ConformanceReport is the full audit of a synthesis result: every checked
// invariant, every violation, and the paper constraint each rule encodes.
type ConformanceReport = verify.Report

// Invariant is one entry of the conformance catalogue.
type Invariant = verify.Invariant

// InvariantCatalogue lists every invariant the conformance audit checks,
// with the paper constraint number each rule encodes.
func InvariantCatalogue() []Invariant { return verify.Catalogue }

// Verify audits a synthesis result against the complete invariant
// catalogue, re-deriving schedules, windows, storage timelines, flow
// conservation, events and actuation counts from first principles.
// CheckResult is the flat-slice view of the same audit.
func Verify(res *Result) *ConformanceReport { return verify.Conformance(res) }

// ResultFingerprint returns a SHA-256 digest over every decision of the
// result (schedule, placement, routing, events, metrics). Two runs are
// bit-identical — the parallel engine's determinism contract — exactly when
// their fingerprints are equal.
func ResultFingerprint(res *Result) string { return verify.Fingerprint(res) }

// WearModel turns actuation counts into lifetime estimates.
type WearModel = wear.Model

// ChipActuationCounts flattens a result's per-valve total actuations
// (setting 1), descending, dropping never-actuated valves.
func ChipActuationCounts(res *Result) []int {
	return wear.ChipCounts(res.ChipAt(-1, 1))
}

// TraditionalActuationCounts derives the per-valve profile of one assay
// execution on a traditional design.
func TraditionalActuationCounts(d *TraditionalDesign) []int {
	return wear.TraditionalProfile(d, DefaultCost)
}

// WearBalance returns how evenly actuations spread over the used valves
// (mean/max in (0,1]; the valve-role-changing concept pushes this up).
func WearBalance(counts []int) float64 { return wear.Balance(counts) }

// ControlAnalysis summarises the control-layer effort of a result.
type ControlAnalysis = control.Analysis

// AnalyzeControl counts the control pins a synthesized chip needs: valves
// with identical switching traces share one pressure source.
func AnalyzeControl(res *Result) ControlAnalysis { return control.Analyze(res) }

// ControlLayout is a routed control layer: pins on the chip boundary and
// channel trees reaching every valve of each pin group.
type ControlLayout = control.Layout

// RouteControlLayer physically routes the control layer for an analysis.
func RouteControlLayer(res *Result, a ControlAnalysis) ControlLayout {
	return control.RouteControl(res, a)
}

// ContaminationReport summarises cross-contamination risk (residue of one
// fluid joining an unrelated mixture) — the restriction the paper's
// conclusion defers to future work.
type ContaminationReport = contam.Report

// AnalyzeContamination reconstructs per-valve fluid occupancy and flags
// risky successions, with a wash-flush estimate.
func AnalyzeContamination(res *Result) ContaminationReport { return contam.Analyze(res) }

// WashPlan is a set of routed buffer flushes clearing contamination risks,
// priced in extra valve actuations.
type WashPlan = contam.WashPlan

// PlanWashes routes a flush before every risky transport time and reports
// the reliability cost of contamination-free operation.
func PlanWashes(res *Result) WashPlan { return contam.PlanWashes(res) }

// Speedup is one row of the execution-speedup experiment (the paper's
// future-work direction: dynamic devices also shorten the assay).
type Speedup = report.Speedup

// ExecutionSpeedup compares the policy-limited schedule against a fully
// parallel schedule realised with dynamic devices.
func ExecutionSpeedup(c Case, policy int) (*Speedup, error) {
	return report.ExecutionSpeedup(c, policy)
}

// RenderSpeedups formats execution-speedup rows.
func RenderSpeedups(rows []*Speedup) string { return report.RenderSpeedups(rows) }

// SVGOptions selects what WriteSVG draws.
type SVGOptions = svg.Options

// WriteSVG renders a synthesis result as a standalone SVG drawing: valve
// actuation heat map, device footprints, transport paths, chip ports, and
// optionally the routed control layer.
func WriteSVG(w io.Writer, res *Result, opts SVGOptions) error {
	return svg.Write(w, res, opts)
}

// RandomAssayOptions parameterises RandomAssay.
type RandomAssayOptions = assays.RandomOptions

// RandomAssay generates a pseudo-random valid bioassay (deterministic in
// the seed) — useful for stress-testing flows and custom experiments.
func RandomAssay(seed int64, opts RandomAssayOptions) *Assay {
	return assays.Random(seed, opts)
}

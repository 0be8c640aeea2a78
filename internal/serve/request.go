package serve

import (
	"fmt"
	"strings"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// JobRequest is the POST /v1/jobs body. The assay comes either inline
// (Assay, the mfsynth text format) or by benchmark name (Case + Policy,
// which also derives the scheduling policy from the paper's traditional
// design, exactly like the mfsynth CLI). Faults is an optional fault-spec
// text. Options tunes the synthesis.
type JobRequest struct {
	Assay  string      `json:"assay,omitempty"`
	Case   string      `json:"case,omitempty"`
	Policy int         `json:"policy,omitempty"`
	Faults string      `json:"faults,omitempty"`
	Opts   OptionsSpec `json:"options,omitempty"`
}

// OptionsSpec is the JSON form of the synthesis options a client may set.
// Zero values mean "engine default"; Workers is deliberately absent (the
// server owns its parallelism budget, and worker count never changes
// results).
type OptionsSpec struct {
	Grid int `json:"grid,omitempty"`
	// Mode is "rolling" (default), "monolithic" or "greedy".
	Mode string `json:"mode,omitempty"`
	// Mixers maps mixer volume to concurrently usable instances; ignored
	// when Case is set (the case's traditional design provides it).
	Mixers    map[int]int `json:"mixers,omitempty"`
	Detectors int         `json:"detectors,omitempty"`

	TransportDelay            int  `json:"transport_delay,omitempty"`
	PumpActuations            int  `json:"pump_actuations,omitempty"`
	DedicatedPumpValves       int  `json:"dedicated_pump_valves,omitempty"`
	MaxRipups                 int  `json:"max_ripups,omitempty"`
	DisableStoragePassthrough bool `json:"disable_storage_passthrough,omitempty"`
	DisableDegradation        bool `json:"disable_degradation,omitempty"`

	// Backends lists the nominal mapping producers, comma-separated in
	// priority order ("ilp,greedy,anneal"); empty means the mode's
	// default list. The anneal knobs apply only when "anneal" is listed;
	// all of them are part of the request fingerprint, so differently
	// configured requests never share a cache entry.
	Backends         string `json:"backends,omitempty"`
	AnnealSeed       int64  `json:"anneal_seed,omitempty"`
	AnnealReplicates int    `json:"anneal_replicates,omitempty"`
	AnnealIters      int    `json:"anneal_iters,omitempty"`

	// DeadlineSeconds caps this job's synthesis wall-clock; it bounds the
	// job context, not the fingerprint (a timed-out request is a 504, not
	// a different problem).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// Bounds on the values a request turns into memory or time: a chip holds
// 2·grid² counters and the placement models grow with grid², and the
// anneal budget and the deadline bound how long a worker stays busy.
// Requests outside them are answered 422 (413 for an oversized body).
const (
	MaxBodyBytes        = 1 << 20
	MinGrid             = 4 // the smallest chip arch.NewChip builds
	MaxGrid             = 32
	MaxAnnealReplicates = 64
	MaxAnnealIters      = 100_000
	MaxDeadlineSeconds  = 3600
)

// rangeError marks a request value outside the service's bounds.
type rangeError struct{ msg string }

func (e *rangeError) Error() string { return e.msg }

// checkRange returns a rangeError when v lies outside [lo, hi].
func checkRange[T int | float64](name string, v, lo, hi T) error {
	if v < lo || v > hi {
		return &rangeError{fmt.Sprintf("%s %v out of range [%v, %v]", name, v, lo, hi)}
	}
	return nil
}

// resolve turns the wire request into the synthesis inputs: the parsed
// assay, the core options (faults included) and the per-job deadline.
// Out-of-bounds values yield a *rangeError; every other error is a
// malformed request.
func (req *JobRequest) resolve() (*graph.Assay, core.Options, time.Duration, error) {
	var (
		a    *graph.Assay
		opts core.Options
	)
	switch {
	case req.Assay != "" && req.Case != "":
		return nil, opts, 0, fmt.Errorf("request has both assay text and case name; pick one")
	case req.Assay != "":
		parsed, err := assays.Parse(strings.NewReader(req.Assay))
		if err != nil {
			return nil, opts, 0, fmt.Errorf("bad assay: %w", err)
		}
		a = parsed
		opts.Policy = schedule.Resources{Mixers: req.Opts.Mixers, Detectors: req.Opts.Detectors}
		if len(opts.Policy.Mixers) == 0 {
			// No policy given: one mixer per distinct volume, like the
			// mfsynth CLI's -assay path.
			opts.Policy.Mixers = map[int]int{}
			for _, id := range a.MixOps() {
				opts.Policy.Mixers[a.Volume(id)] = 1
			}
		}
		opts.Place.Grid = 12
	case req.Case != "":
		c, err := assays.ByName(req.Case)
		if err != nil {
			return nil, opts, 0, fmt.Errorf("bad case: %w", err)
		}
		policy := req.Policy
		if policy == 0 {
			policy = 1
		}
		des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
		if err != nil {
			return nil, opts, 0, fmt.Errorf("bad policy %d for case %s: %w", policy, req.Case, err)
		}
		a = c.Assay
		opts.Policy = schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors}
		opts.Place.Grid = c.GridSize
	default:
		return nil, opts, 0, fmt.Errorf("request needs an assay text or a case name")
	}
	if err := a.Validate(); err != nil {
		return nil, opts, 0, fmt.Errorf("invalid assay: %w", err)
	}

	o := req.Opts
	if o.Grid != 0 {
		opts.Place.Grid = o.Grid
	}
	for _, err := range []error{
		checkRange("grid", opts.Place.Grid, MinGrid, MaxGrid),
		checkRange("anneal_replicates", o.AnnealReplicates, 0, MaxAnnealReplicates),
		checkRange("anneal_iters", o.AnnealIters, 0, MaxAnnealIters),
		checkRange("deadline_seconds", o.DeadlineSeconds, 0, MaxDeadlineSeconds),
	} {
		if err != nil {
			return nil, opts, 0, err
		}
	}
	switch o.Mode {
	case "", "rolling":
		opts.Place.Mode = place.RollingHorizon
	case "monolithic":
		opts.Place.Mode = place.Monolithic
	case "greedy":
		opts.Place.Mode = place.Greedy
	default:
		return nil, opts, 0, fmt.Errorf("unknown mode %q (want rolling, monolithic or greedy)", o.Mode)
	}
	opts.TransportDelay = o.TransportDelay
	opts.PumpActuations = o.PumpActuations
	opts.DedicatedPumpValves = o.DedicatedPumpValves
	opts.MaxRipups = o.MaxRipups
	opts.DisableStoragePassthrough = o.DisableStoragePassthrough
	opts.DisableDegradation = o.DisableDegradation

	backends, err := core.ParseBackends(o.Backends)
	if err != nil {
		return nil, opts, 0, fmt.Errorf("bad backends %q: %w", o.Backends, err)
	}
	opts.Backends = backends
	opts.Anneal = core.AnnealOptions{
		Seed:       o.AnnealSeed,
		Replicates: o.AnnealReplicates,
		Iters:      o.AnnealIters,
	}

	if req.Faults != "" {
		fs, err := fault.Parse(strings.NewReader(req.Faults))
		if err != nil {
			return nil, opts, 0, fmt.Errorf("bad fault spec: %w", err)
		}
		opts.Faults = fs
	}

	deadline := time.Duration(o.DeadlineSeconds * float64(time.Second))
	return a, opts, deadline, nil
}

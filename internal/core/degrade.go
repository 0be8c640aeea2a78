package core

import (
	"fmt"
	"strings"

	"mfsynth/internal/grid"
)

// DegradationLevel classifies how far the synthesis had to back off from
// the nominal candidates to produce a result. Levels are ordered: a higher
// level means a weaker guarantee.
type DegradationLevel int

// The candidate tiers' levels, in escalation order.
const (
	// DegradeNone: a nominal candidate succeeded.
	DegradeNone DegradationLevel = iota
	// DegradeRelaxed: a nominal producer succeeded only after dropping
	// the storage-overlap (c5) and routing-convenient ((13)-(16))
	// couplings — the constraints whose interaction most often makes a
	// tight instance infeasible or the repair loop diverge.
	DegradeRelaxed
	// DegradeGreedy: every nominal and relaxed candidate failed; the
	// multi-start greedy mapper produced a complete but heuristic mapping.
	DegradeGreedy
	// DegradePartial: the result is incomplete — operations were dropped
	// (greedy best-effort) and/or transports could not be routed. The
	// placed and routed portion is still valid and fully audited.
	DegradePartial
)

func (l DegradationLevel) String() string {
	switch l {
	case DegradeNone:
		return "none"
	case DegradeRelaxed:
		return "relaxed-couplings"
	case DegradeGreedy:
		return "greedy-fallback"
	case DegradePartial:
		return "partial"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Attempt records one failed candidate of an earlier tier.
type Attempt struct {
	// Rung names the candidate that was tried, e.g. "ilp" or
	// "greedy-relaxed".
	Rung string
	// Err is the failure message.
	Err string
}

// FailedNet describes a transport demand that could not be routed: the
// record behind the FailedRoutes counter, so a degraded result says *what*
// was dropped, not just how much.
type FailedNet struct {
	// T is the scheduled transport time.
	T int
	// From and To name the endpoints (operation or port names).
	From, To string
	// FromID and ToID are the endpoint operation IDs, -1 for chip ports.
	FromID, ToID int
}

func (f FailedNet) String() string {
	return fmt.Sprintf("t=%d %s->%s", f.T, f.From, f.To)
}

// Degradation is the structured report a degraded synthesis carries
// instead of an opaque error. A nil *Degradation on a Result means the run
// was nominal; the report never participates in result fingerprints.
type Degradation struct {
	// Level is the tier the result came from, or DegradePartial when it
	// is incomplete.
	Level DegradationLevel
	// Attempts lists the failed candidates of the tiers before the
	// accepted one.
	Attempts []Attempt
	// FailedNets lists the unroutable transports (len == FailedRoutes).
	FailedNets []FailedNet
	// DroppedOps names operations skipped by the best-effort mapper.
	DroppedOps []string
	// WornValves lists cells that crossed their wear-out threshold and
	// were re-mapped around (promoted to stuck-closed).
	WornValves []grid.Point
	// WearExceeded lists wear-out cells still over threshold after the
	// bounded re-mapping rounds — the result over-actuates them.
	WearExceeded []grid.Point
}

// String renders a one-line human summary, e.g.
// "degraded(greedy-fallback): 2 candidate(s) failed; 1 net(s) unrouted".
func (d *Degradation) String() string {
	if d == nil {
		return "nominal"
	}
	var parts []string
	if len(d.Attempts) > 0 {
		parts = append(parts, fmt.Sprintf("%d candidate(s) failed", len(d.Attempts)))
	}
	if len(d.DroppedOps) > 0 {
		parts = append(parts, fmt.Sprintf("%d op(s) dropped: %s", len(d.DroppedOps), strings.Join(d.DroppedOps, ",")))
	}
	if len(d.FailedNets) > 0 {
		nets := make([]string, len(d.FailedNets))
		for i, f := range d.FailedNets {
			nets[i] = f.String()
		}
		parts = append(parts, fmt.Sprintf("%d net(s) unrouted: %s", len(d.FailedNets), strings.Join(nets, ",")))
	}
	if len(d.WornValves) > 0 {
		parts = append(parts, fmt.Sprintf("%d valve(s) worn out and re-mapped", len(d.WornValves)))
	}
	if len(d.WearExceeded) > 0 {
		parts = append(parts, fmt.Sprintf("%d wear threshold(s) still exceeded", len(d.WearExceeded)))
	}
	s := fmt.Sprintf("degraded(%s)", d.Level)
	if len(parts) > 0 {
		s += ": " + strings.Join(parts, "; ")
	}
	return s
}

// escalate raises the level (levels only ever go up).
func (d *Degradation) escalate(l DegradationLevel) {
	if l > d.Level {
		d.Level = l
	}
}

// Degraded reports whether the result deviates from a nominal run.
func (r *Result) Degraded() bool { return r.Degradation != nil }

// degrade returns the result's degradation report, allocating it on first
// use. Nominal runs never call this, keeping Degradation nil.
func (r *Result) degrade() *Degradation {
	if r.Degradation == nil {
		r.Degradation = &Degradation{}
	}
	return r.Degradation
}

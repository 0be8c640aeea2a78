package main

import "fmt"

// counterMetrics maps per-layer metric names to the obs counters the
// engine already records (read from an obs.Trace attached through
// core.Options.Trace).
var counterMetrics = map[string]string{
	"schedule.ops":         "schedule_ops_total",
	"place.greedy_runs":    "place_greedy_runs_total",
	"place.ilp_solves":     "place_ilp_solves_total",
	"place.ilp_candidates": "place_ilp_candidates_total",
	"place.ilp_nodes":      "place_ilp_nodes_total",
	"place.repairs":        "place_repairs_total",
	"place.rc_relaxed":     "place_rc_relaxed_total",
	"milp.nodes":           "milp_nodes_total",
	"milp.lp_solves":       "milp_lp_solves_total",
	"milp.incumbents":      "milp_incumbents_total",
	"milp.warm_resolves":   "milp_warm_resolves_total",
	"milp.warm_failures":   "milp_warm_failures_total",
	"milp.floor_fathoms":   "milp_floor_fathoms_total",
	"lp.pivots":            "milp_simplex_pivots_total",
	"anneal.iters":         "anneal_iters_total",
	"anneal.incumbents":    "anneal_incumbents_total",
	"route.nets":           "route_nets_total",
	"route.dijkstra_pops":  "route_dijkstra_pops_total",
	"route.ripups":         "route_ripups_total",
	"route.failed":         "route_failed_total",
}

// newLayers returns the per-layer metric set with every value 0, so a
// layer a workload never enters reports 0 rather than going missing.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for name := range perLayer {
		m[name] = 0
	}
	return m
}

// addCounters fills the counter-backed metrics and their ratios from
// summed obs counters, each divided by per (the number of passes the
// counters span).
func addCounters(m map[string]float64, c map[string]int64, per float64) {
	for name, counter := range counterMetrics {
		m[name] = float64(c[counter]) / per
	}
	m["milp.incumbent_ratio"] = ratio(c["milp_incumbents_total"], c["place_ilp_solves_total"])
	m["lp.pivots_per_node"] = ratio(c["milp_simplex_pivots_total"], c["milp_nodes_total"])
	m["anneal.accept_ratio"] = ratio(c["anneal_accepted_total"], c["anneal_iters_total"])
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// phaseSum attributes synthesis wall time to the pipeline phases that
// core.Result.PhaseSeconds reports; the remainder is core overhead.
type phaseSum struct {
	wall, schedule, place, route, overhead float64
}

// add accounts one synthesis call of the given wall seconds. The phases
// run inside the call, so they cannot exceed its wall time; if they do,
// the attribution is broken and add reports it.
func (p *phaseSum) add(wall float64, phases map[string]float64) error {
	s, pl, r := phases["schedule"], phases["place"], phases["route"]
	over := wall - s - pl - r
	if over < -1e-6 {
		return fmt.Errorf("phases schedule %.6fs + place %.6fs + route %.6fs exceed the call's %.6fs", s, pl, r, wall)
	}
	p.wall += wall
	p.schedule += s
	p.place += pl
	p.route += r
	p.overhead += over
	return nil
}

// fill reports the phase seconds divided by per, each next to its share
// of the attributed wall time. The four shares sum to 1: schedule, place,
// route and core overhead account for all synthesis wall time.
func (p *phaseSum) fill(m map[string]float64, per float64) {
	m["schedule.s"] = p.schedule / per
	m["place.s"] = p.place / per
	m["route.s"] = p.route / per
	m["core.overhead_s"] = p.overhead / per
	if p.wall > 0 {
		m["schedule.share"] = p.schedule / p.wall
		m["place.share"] = p.place / p.wall
		m["route.share"] = p.route / p.wall
		m["core.overhead_share"] = p.overhead / p.wall
	}
}

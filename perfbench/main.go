// Command perfbench is mfsynth's benchmark. It drives the public Go API
// (core.SynthesizeCtx, baseline, serve and verify) on one named workload,
// times it end to end, checks every output, and prints one JSON line with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload table1-greedy --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metric
// definitions and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics and their units; every workload
// reports all of them with --trace 0.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"pass_s":           "s",
	"synth_p50_ms":     "ms",
	"synth_p95_ms":     "ms",
	"job_p50_ms":       "ms",
	"job_p95_ms":       "ms",
	"fresh_jobs_per_s": "1/s",
	"vs1_max_sum":      "count",
	"vs2_max_sum":      "count",
	"valves_sum":       "count",
	"success_rate":     "ratio",
	"peak_rss_mb":      "MB",
}

// perLayer lists the per-layer metrics and their units; every workload
// reports all of them with --trace 1 (zero where a layer does no work).
var perLayer = map[string]string{
	"schedule.s":                 "s",
	"schedule.share":             "ratio",
	"schedule.ops":               "count",
	"place.s":                    "s",
	"place.share":                "ratio",
	"place.greedy_runs":          "count",
	"place.ilp_solves":           "count",
	"place.ilp_candidates":       "count",
	"place.ilp_nodes":            "count",
	"place.repairs":              "count",
	"place.rc_relaxed":           "count",
	"milp.nodes":                 "count",
	"milp.lp_solves":             "count",
	"milp.incumbents":            "count",
	"milp.incumbent_ratio":       "ratio",
	"milp.warm_resolves":         "count",
	"milp.warm_failures":         "count",
	"milp.floor_fathoms":         "count",
	"lp.pivots":                  "count",
	"lp.pivots_per_node":         "ratio",
	"anneal.s":                   "s",
	"anneal.iters":               "count",
	"anneal.accept_ratio":        "ratio",
	"anneal.incumbents":          "count",
	"core.overhead_s":            "s",
	"core.overhead_share":        "ratio",
	"core.race_waste_s":          "s",
	"core.race_win_ratio.anneal": "ratio",
	"core.degraded":              "count",
	"core.degrade_attempts":      "count",
	"route.s":                    "s",
	"route.share":                "ratio",
	"route.nets":                 "count",
	"route.dijkstra_pops":        "count",
	"route.ripups":               "count",
	"route.failed":               "count",
	"baseline.s":                 "s",
	"verify.request_fp_us":       "us",
	"serve.submit_us_p50":        "us",
	"serve.queue_wait_ms_p50":    "ms",
	"serve.queue_wait_ms_p95":    "ms",
	"serve.run_ms_p50":           "ms",
	"serve.fresh_p50_ms":         "ms",
	"serve.coalesced_p50_ms":     "ms",
	"serve.cached_p50_ms":        "ms",
	"serve.fresh":                "count",
	"serve.coalesced":            "count",
	"serve.cache_hits":           "count",
	"serve.shed":                 "count",
	"serve.peak_running":         "count",
	"serve.dup_absorb_ratio":     "ratio",
	"loadgen.lag_ms_p95":         "ms",
	"trace.overhead_pct":         "%",
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks the workload to its minimum size (the package's own
	// tests); the command line never sets it.
	smoke bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"table1-ilp":    runTable1ILP,
	"table1-greedy": runTable1Greedy,
	"serve-mix":     runServeMix,
}

// outcome is what a workload run measured and checked.
type outcome struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	cells     []cellRecord
	attempted int
	failures  []string
}

// fail records one failed operation, naming the cell or request.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// cellRecord is the quality record of one distinct synthesis.
type cellRecord struct {
	Name        string `json:"name"`
	VsMax1      int    `json:"vs1_max"`
	VsMax2      int    `json:"vs2_max"`
	UsedValves  int    `json:"valves"`
	Fingerprint string `json:"fingerprint"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes the configured workload and assembles the result line.
func run(cfg config) (*result, *outcome, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want table1-ilp, table1-greedy or serve-mix)", cfg.workload)
	}
	out, err := drive(cfg)
	if err != nil {
		return nil, nil, err
	}
	failed := len(out.failures)
	if out.attempted < 1 {
		return nil, nil, fmt.Errorf("workload %s attempted nothing", cfg.workload)
	}
	out.endToEnd["success_rate"] = 1 - float64(failed)/float64(out.attempted)
	out.endToEnd["peak_rss_mb"] = peakRSSMB()

	values, units := out.endToEnd, endToEnd
	if cfg.trace {
		values, units = out.perLayer, perLayer
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: out.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("workload %s measured %s = %v", cfg.workload, name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, out, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: table1-ilp, table1-greedy or serve-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	for _, c := range out.cells {
		fmt.Printf("%-26s vs1=%d vs2=%d #v=%d fp=%s\n", c.Name, c.VsMax1, c.VsMax2, c.UsedValves, c.Fingerprint[:16])
	}
	if path, err := writeRecord(cfg, res, out.cells); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: quality record:", err)
		os.Exit(2)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: quality record in", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// recordDir holds the per-run quality records, relative to the checkout
// root the benchmark runs from.
const recordDir = ".bench_build/records"

// writeRecord writes the run's per-cell quality record next to its summed
// metrics, so a changed Table 1 row shows up by cell.
func writeRecord(cfg config, res *result, cells []cellRecord) (string, error) {
	if err := os.MkdirAll(recordDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(recordDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace)))
	b, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Seconds  float64      `json:"seconds"`
		Trace    bool         `json:"trace"`
		Result   *result      `json:"result"`
		Cells    []cellRecord `json:"cells"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res, cells}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resetPeakRSS collects the set-up's garbage, as testing.B does before it
// times, and restarts the peak resident set size (VmHWM) from the current
// size, so peak_rss_mb covers the measured work and not the set-up rounds.
func resetPeakRSS() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak includes set-up
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSetup runs setup rounds times and returns the last round's product
// with the median set-up seconds, so set-up time reads steadily. discard,
// when non-nil, releases the products of the earlier rounds.
func medianSetup[T any](rounds int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return last, quantile(secs, 0.5), nil
}

// setupRounds is how many times each workload repeats its set-up.
const setupRounds = 3

// Fault-injection campaigns: synthesize a benchmark many times against
// independently seeded random defect sets and aggregate how gracefully the
// pipeline holds up — success rate, degradation-level histogram, and the
// actuation-metric yield relative to the fault-free baseline.
package report

import (
	"fmt"
	"sort"
	"strings"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/par"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/verify"
)

// CampaignOptions parameterises one fault-injection campaign.
type CampaignOptions struct {
	// Runs is the number of injections (each with its own seed).
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Rate is the per-valve defect probability (e.g. 0.05).
	Rate float64
	// StuckOpenFrac and WearOutFrac split the defects by kind; the rest
	// are stuck-closed (see fault.GenOptions).
	StuckOpenFrac, WearOutFrac float64
	// Grid overrides the case's grid size when positive.
	Grid int
	// Mode selects the mapper (default rolling horizon).
	Mode place.Mode
	// Workers bounds the parallelism across runs (0 = all CPUs). Each
	// run's mapper is serial, mirroring Table1's budget split.
	Workers int
	// Verify audits every surviving result against the conformance
	// catalogue — including the fault rules, proving no defective valve
	// was used.
	Verify bool
}

// CampaignRun is the outcome of one injection.
type CampaignRun struct {
	// Seed generated this run's fault set.
	Seed int64
	// Faults is the injected defect count.
	Faults int
	// Err is the failure message of an unsuccessful run ("" = a usable
	// result was produced, possibly degraded).
	Err string
	// Degraded and Level report the degradation outcome of a successful
	// run.
	Degraded bool
	Level    core.DegradationLevel
	// VsMax1 is the run's setting-1 metric (0 when Err != "").
	VsMax1 int
	// FailedNets and DroppedOps count the declared losses.
	FailedNets, DroppedOps int
	// Violations lists conformance rules broken (Verify only; empty =
	// clean audit).
	Violations []string
}

// Campaign aggregates one benchmark's injection runs.
type Campaign struct {
	Case   string
	Policy int
	// BaselineVsMax1 is the fault-free setting-1 metric the yield is
	// measured against.
	BaselineVsMax1 int
	Runs           []CampaignRun
}

// SuccessRate is the fraction of runs that produced a usable result.
func (c *Campaign) SuccessRate() float64 {
	if len(c.Runs) == 0 {
		return 0
	}
	ok := 0
	for _, r := range c.Runs {
		if r.Err == "" {
			ok++
		}
	}
	return float64(ok) / float64(len(c.Runs))
}

// NominalRate is the fraction of runs that succeeded without degradation.
func (c *Campaign) NominalRate() float64 {
	if len(c.Runs) == 0 {
		return 0
	}
	n := 0
	for _, r := range c.Runs {
		if r.Err == "" && !r.Degraded {
			n++
		}
	}
	return float64(n) / float64(len(c.Runs))
}

// LevelCounts histograms the degradation levels of successful runs.
func (c *Campaign) LevelCounts() map[core.DegradationLevel]int {
	out := map[core.DegradationLevel]int{}
	for _, r := range c.Runs {
		if r.Err == "" {
			out[r.Level]++
		}
	}
	return out
}

// MeanYield is the mean of baseline/vsmax over successful runs: 1.0 means
// faults cost nothing, below 1.0 the injected defects inflated the worst
// per-valve actuation count.
func (c *Campaign) MeanYield() float64 {
	sum, n := 0.0, 0
	for _, r := range c.Runs {
		if r.Err == "" && r.VsMax1 > 0 {
			sum += float64(c.BaselineVsMax1) / float64(r.VsMax1)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Violations counts runs whose conformance audit found violations.
func (c *Campaign) ViolationRuns() int {
	n := 0
	for _, r := range c.Runs {
		if len(r.Violations) > 0 {
			n++
		}
	}
	return n
}

// RunCampaign synthesizes the case Runs times against seeded random fault
// sets (plus one fault-free baseline run) and aggregates the outcomes. The
// runs are independent and evaluated concurrently; the aggregate is
// deterministic in the options.
func RunCampaign(c assays.Case, policy int, opts CampaignOptions) (*Campaign, error) {
	des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
	if err != nil {
		return nil, err
	}
	grid := c.GridSize
	if opts.Grid > 0 {
		grid = opts.Grid
	}
	synth := func(fs *fault.Set) (*core.Result, error) {
		return core.Synthesize(c.Assay, core.Options{
			Policy: schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:  place.Config{Grid: grid, Mode: opts.Mode},
			Faults: fs,
		})
	}

	base, err := synth(nil)
	if err != nil {
		return nil, fmt.Errorf("fault-free baseline: %w", err)
	}
	camp := &Campaign{Case: c.Assay.Name, Policy: policy, BaselineVsMax1: base.VsMax1}

	runs, err := par.Map(par.Workers(opts.Workers), opts.Runs, func(i int) (CampaignRun, error) {
		seed := opts.Seed + int64(i)
		fs := fault.Generate(seed, fault.GenOptions{
			Grid:          grid,
			Rate:          opts.Rate,
			StuckOpenFrac: opts.StuckOpenFrac,
			WearOutFrac:   opts.WearOutFrac,
			KeepPorts:     true,
		})
		run := CampaignRun{Seed: seed, Faults: fs.Len()}
		res, err := synth(fs)
		if err != nil {
			run.Err = err.Error()
			return run, nil
		}
		run.VsMax1 = res.VsMax1
		if d := res.Degradation; d != nil {
			run.Degraded = true
			run.Level = d.Level
			run.FailedNets = len(d.FailedNets)
			run.DroppedOps = len(d.DroppedOps)
		}
		if opts.Verify {
			if rep := verify.Conformance(res); !rep.Clean() {
				run.Violations = rep.Rules()
			}
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	camp.Runs = runs
	return camp, nil
}

// RenderCampaign formats one campaign as a text block.
func RenderCampaign(c *Campaign) string {
	var sb strings.Builder
	levels := c.LevelCounts()
	var keys []core.DegradationLevel
	for k := range levels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var lv []string
	for _, k := range keys {
		lv = append(lv, fmt.Sprintf("%s=%d", k, levels[k]))
	}
	fmt.Fprintf(&sb, "%-22s p%d  %3d runs  success %5.1f%%  nominal %5.1f%%  yield %.3f  levels: %s",
		c.Case, c.Policy, len(c.Runs), 100*c.SuccessRate(), 100*c.NominalRate(),
		c.MeanYield(), strings.Join(lv, " "))
	if v := c.ViolationRuns(); v > 0 {
		fmt.Fprintf(&sb, "  CONFORMANCE VIOLATIONS in %d run(s)", v)
	}
	return sb.String()
}

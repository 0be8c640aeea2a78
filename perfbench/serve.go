package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/fault"
	"mfsynth/internal/graph"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/serve"
	"mfsynth/internal/verify"
)

// The serve-mix load. The open loop offers openRate submissions per second
// for about openShare of the run's seconds; half of them repeat an earlier
// request. The closed loop then submits about closedPerSec fresh requests
// per run second from one caller per CPU. Both loops send whole passes
// over the request pool.
const (
	openRate     = 5.0
	openShare    = 0.5
	closedPerSec = 2.0
	serveGrid    = 12
	faultRate    = 0.05
	// poolPerSize is the number of assays of each size in the request pool
	// (1 at smoke size).
	poolPerSize = 8
	// oracleEvery picks the distinct requests re-run directly through
	// SynthesizeCtx and compared with the service's answer.
	oracleEvery = 8
	// maxLagP95 marks a run invalid: its generator fell behind schedule.
	maxLagP95 = 100 * time.Millisecond
)

// mixOpsChoices are the request assay sizes, drawn evenly.
var mixOpsChoices = []int{6, 9, 12, 16}

// poolEntry is one fixed synthesis input that fresh requests draw from.
type poolEntry struct {
	assay  *graph.Assay
	mixers map[int]int
	faults *fault.Set
}

// newPool builds perSize seeded assays.Random assays of each size in
// mixOpsChoices; every fourth entry carries a seeded 5% fault set. The
// pool does not depend on the run's seed: a fault set can triple a
// synthesis's cost, so drawing them per run would make the seed, not the
// code, move the latency figures.
func newPool(perSize int) []poolEntry {
	var pool []poolEntry
	for _, mixOps := range mixOpsChoices {
		for j := 0; j < perSize; j++ {
			seed := int64(1000*mixOps + j)
			e := poolEntry{assay: assays.Random(seed, assays.RandomOptions{MixOps: mixOps}), mixers: map[int]int{}}
			for _, id := range e.assay.MixOps() {
				e.mixers[e.assay.Volume(id)] = 1
			}
			if len(pool)%4 == 0 {
				e.faults = fault.Generate(seed, fault.GenOptions{Grid: serveGrid, Rate: faultRate, KeepPorts: true})
			}
			pool = append(pool, e)
		}
	}
	return pool
}

// request is one distinct synthesis request.
type request struct {
	key   string
	assay *graph.Assay
	opts  core.Options
}

// requestGen draws fresh requests: whole passes over the pool, each pass
// in a seeded order. A request's anneal seed, which makes it distinct, is
// fixed by its pool entry and pass, because the anneal seed alone can
// double a synthesis's cost. So every run synthesizes the same requests;
// the seed sets their order and which of them repeat.
type requestGen struct {
	rng   *rand.Rand
	pool  []poolEntry
	base  int64 // anneal seed offset, keeping generators apart
	order []int
	n     int
}

func (g *requestGen) next() request {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(len(g.pool))
	}
	idx := g.order[0]
	e := g.pool[idx]
	g.order = g.order[1:]
	r := request{
		key:   fmt.Sprintf("r%03d-%s", g.n, e.assay.Name),
		assay: e.assay,
		opts: core.Options{
			Policy:   schedule.Resources{Mixers: e.mixers},
			Place:    place.Config{Grid: serveGrid},
			Faults:   e.faults,
			Backends: []core.Backend{core.BackendGreedy, core.BackendAnneal},
			Anneal:   core.AnnealOptions{Seed: g.base + int64(g.n/len(g.pool)*len(g.pool)+idx) + 1},
		},
	}
	if e.faults != nil {
		r.key += "-faults"
	}
	g.n++
	return r
}

// poolPasses returns the number of whole passes over a pool of perPass
// requests closest to want requests, at least one.
func poolPasses(want float64, perPass int) int {
	return max(1, int(math.Round(want/float64(perPass))))
}

// slot is one open-loop submission: its offset from the loop's start and
// the index of the distinct request it sends.
type slot struct {
	at  time.Duration
	req int
}

// planOpen lays out blocks×4 open-loop submissions averaging openRate per
// second. Each block has three evenly spaced arrival instants, in a seeded
// order: a fresh request followed at once by its duplicate (still queued:
// the coalesce path), a second fresh request, and a repeat of a uniformly
// drawn earlier request (usually finished: the cache path).
func planOpen(gen *requestGen, blocks int) ([]slot, []request) {
	gap := 4 * time.Second / time.Duration(3*openRate)
	var slots []slot
	var distinct []request
	fresh := func() int {
		distinct = append(distinct, gen.next())
		return len(distinct) - 1
	}
	var at time.Duration
	for b := 0; b < blocks; b++ {
		order := gen.rng.Perm(3)
		if b == 0 && order[0] == 2 {
			order[0], order[2] = order[2], order[0] // a repeat needs an earlier request
		}
		for _, kind := range order {
			switch kind {
			case 0:
				i := fresh()
				slots = append(slots, slot{at, i}, slot{at, i})
			case 1:
				slots = append(slots, slot{at, fresh()})
			default:
				slots = append(slots, slot{at, gen.rng.Intn(len(distinct))})
			}
			at += gap
		}
	}
	return slots, distinct
}

// serveSetup is the serve-mix set-up product.
type serveSetup struct {
	srv    *serve.Server
	slots  []slot
	open   []request // distinct open-loop requests
	closed []request
	fpUS   []float64 // verify.RequestFingerprint per distinct request
}

// warmupSeed draws the warm-up requests, the same in every run.
const warmupSeed = -1

// setupServe builds the seeded requests and fingerprints each: distinct
// requests (warm-up ones included) must not share a fingerprint, or the
// fresh count would not be exact. It then starts a server with one worker
// per CPU and warms it up with one job per worker.
func setupServe(cfg config, workers int) (*serveSetup, error) {
	perSize := poolPerSize
	if cfg.smoke {
		perSize = 1
	}
	pool := newPool(perSize)
	gen := &requestGen{rng: rand.New(rand.NewSource(cfg.seed)), pool: pool}
	s := &serveSetup{}
	// A block of four open-loop submissions sends two fresh requests.
	s.slots, s.open = planOpen(gen, len(pool)/2*poolPasses(openRate*openShare*cfg.seconds/2, len(pool)))
	for i := len(pool) * poolPasses(closedPerSec*cfg.seconds, len(pool)); i > 0; i-- {
		s.closed = append(s.closed, gen.next())
	}
	warmGen := &requestGen{rng: rand.New(rand.NewSource(warmupSeed)), pool: pool, base: 1 << 40}
	var warm []request
	for i := 0; i < workers; i++ {
		warm = append(warm, warmGen.next())
	}
	seen := map[string]string{}
	for _, r := range append(append(append([]request(nil), s.open...), s.closed...), warm...) {
		t0 := time.Now()
		fp, err := verify.RequestFingerprint(r.assay, r.opts)
		s.fpUS = append(s.fpUS, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, fmt.Errorf("request %s: fingerprint: %w", r.key, err)
		}
		if other, ok := seen[fp]; ok {
			return nil, fmt.Errorf("requests %s and %s share a fingerprint", other, r.key)
		}
		seen[fp] = r.key
	}

	s.srv = serve.New(serve.Config{Workers: workers})
	var jobs []*serve.Job
	for _, r := range warm {
		j, _, _, err := s.srv.Submit("warmup", r.assay, r.opts, 0)
		if err != nil || j == nil {
			s.srv.Close()
			return nil, fmt.Errorf("warm-up request %s not accepted: %v", r.key, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		if v := j.View(); v.State != serve.StateDone {
			s.srv.Close()
			return nil, fmt.Errorf("warm-up job %s ended %s", v.ID, v.State)
		}
	}
	return s, nil
}

// submission is one open- or closed-loop submission and what became of it.
type submission struct {
	req     int // index into the phase's distinct requests
	due     time.Time
	lag     time.Duration
	submit  time.Duration
	outcome serve.SubmitOutcome
	job     *serve.Job
	err     error
}

// runServeMix drives an in-process server with the open loop, then the
// closed loop, then checks every answer; a sampled subset (with tracing:
// every open-loop request) is re-run directly through SynthesizeCtx.
func runServeMix(cfg config) (*outcome, error) {
	out := &outcome{endToEnd: map[string]float64{}, perLayer: newLayers()}
	workers := runtime.NumCPU()
	s, setupS, err := medianSetup(setupRounds, func() (*serveSetup, error) {
		return setupServe(cfg, workers)
	}, func(old *serveSetup) { old.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	out.endToEnd["setup_s"] = setupS
	resetPeakRSS()

	// Open loop: each submission is sent at its scheduled time whether or
	// not earlier ones have finished, and timed from that time.
	st0 := s.srv.Stats()
	open := make([]submission, len(s.slots))
	start := time.Now().Add(10 * time.Millisecond)
	for k, sl := range s.slots {
		due := start.Add(sl.at)
		time.Sleep(time.Until(due))
		sent := time.Now()
		r := s.open[sl.req]
		j, oc, _, err := s.srv.Submit("open", r.assay, r.opts, 0)
		open[k] = submission{req: sl.req, due: due, lag: sent.Sub(due), submit: time.Since(sent),
			outcome: oc, job: j, err: err}
	}
	for _, sub := range open {
		if sub.job != nil {
			<-sub.job.Done()
		}
	}
	st1 := s.srv.Stats()
	runtime.GC()

	// Closed loop: one caller per worker, each waiting for its job before
	// submitting the next fresh request. The loop is timed until the first
	// caller runs out of requests; the ramp-down after it, with fewer
	// callers than workers, depends on which jobs happen to come last.
	closed := make([]submission, len(s.closed))
	var next atomic.Int64
	var wg sync.WaitGroup
	idle := make(chan time.Time, workers) // one send per caller
	closedStart := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(closed); i = int(next.Add(1)) - 1 {
				r := s.closed[i]
				t0 := time.Now()
				j, oc, _, err := s.srv.Submit("closed", r.assay, r.opts, 0)
				closed[i] = submission{req: i, due: t0, submit: time.Since(t0), outcome: oc, job: j, err: err}
				if j != nil {
					<-j.Done()
				}
			}
			idle <- time.Now()
		}()
	}
	wg.Wait()
	closedEnd := <-idle
	closedS := closedEnd.Sub(closedStart).Seconds()
	st2 := s.srv.Stats()

	var lags []float64
	for _, sub := range open {
		lags = append(lags, ms(sub.lag))
	}
	lagP95 := quantile(lags, 0.95)
	if lagP95 > ms(maxLagP95) {
		return nil, fmt.Errorf("run invalid: the open-loop generator ran %.1f ms late at p95 (limit %v)", lagP95, maxLagP95)
	}

	// Answers: every submission must end done, and every submission of one
	// request must carry the same result fingerprint.
	openViews := checkAnswers(out, "open", s.open, open)
	closedViews := checkAnswers(out, "closed", s.closed, closed)
	for _, sub := range closed {
		if sub.err == nil && sub.job != nil && sub.outcome != serve.SubmitQueued {
			out.fail("request %s: closed-loop submission was not fresh (outcome %d)", s.closed[sub.req].key, sub.outcome)
		}
	}

	var jobMS, synthMS []float64
	byPath := map[serve.SubmitOutcome][]float64{}
	var submitUS, waitMS, runMS []float64
	var phases phaseSum
	var annealS, wasteS float64
	var races, annealWins, degraded int
	for _, sub := range open {
		if sub.job == nil {
			continue
		}
		v := sub.job.View()
		if v.FinishedAt == nil {
			continue
		}
		lat := ms(v.FinishedAt.Sub(sub.due))
		jobMS = append(jobMS, lat)
		byPath[sub.outcome] = append(byPath[sub.outcome], lat)
		submitUS = append(submitUS, float64(sub.submit)/float64(time.Microsecond))
		if sub.outcome != serve.SubmitQueued || v.StartedAt == nil || v.Result == nil {
			continue
		}
		waitMS = append(waitMS, ms(v.StartedAt.Sub(v.QueuedAt)))
		runMS = append(runMS, ms(v.FinishedAt.Sub(*v.StartedAt)))
		res := v.Result
		synthMS = append(synthMS, 1000*res.RuntimeSeconds)
		if err := phases.add(res.RuntimeSeconds, res.PhaseSeconds); err != nil {
			out.fail("request %s: attribution: %v", s.open[sub.req].key, err)
		}
		if res.Degraded {
			degraded++
		}
		if res.Race != nil {
			races++
			for _, l := range res.Race.Lanes {
				if l.Backend == string(core.BackendAnneal) {
					annealS += l.Seconds
					if l.Won {
						annealWins++
					}
				}
				if !l.Won {
					wasteS += l.Seconds
				}
			}
		}
	}

	// Quality record: every distinct request, open loop first.
	for i, views := range [][]*serve.ResultView{openViews, closedViews} {
		reqs := [][]request{s.open, s.closed}[i]
		for k, v := range views {
			if v == nil {
				continue
			}
			out.cells = append(out.cells, cellRecord{Name: reqs[k].key, VsMax1: v.VsMax1, VsMax2: v.VsMax2,
				UsedValves: v.UsedValves, Fingerprint: v.Fingerprint})
			out.endToEnd["vs1_max_sum"] += float64(v.VsMax1)
			out.endToEnd["vs2_max_sum"] += float64(v.VsMax2)
			out.endToEnd["valves_sum"] += float64(v.UsedValves)
		}
	}

	out.attempted += len(open) + len(closed)
	var closedDone int
	for _, sub := range closed {
		if sub.job != nil {
			if v := sub.job.View(); v.FinishedAt != nil && !v.FinishedAt.After(closedEnd) {
				closedDone++
			}
		}
	}
	out.endToEnd["pass_s"] = closedS
	out.endToEnd["fresh_jobs_per_s"] = float64(closedDone) / closedS
	out.endToEnd["synth_p50_ms"] = quantile(synthMS, 0.5)
	out.endToEnd["synth_p95_ms"] = quantile(synthMS, 0.95)
	out.endToEnd["job_p50_ms"] = quantile(jobMS, 0.5)
	out.endToEnd["job_p95_ms"] = quantile(jobMS, 0.95)

	// Counter reconciliation over the open loop: each distinct request is
	// synthesized once, every duplicate is absorbed by coalescing or the
	// cache, and nothing is shed, fails or is cancelled.
	fresh, coal, hits := st1.Fresh-st0.Fresh, st1.Coalesced-st0.Coalesced, st1.CacheHits-st0.CacheHits
	shed := (st2.ShedQueueFull + st2.ShedRateLimited + st2.ShedDraining) - (st0.ShedQueueFull + st0.ShedRateLimited + st0.ShedDraining)
	dups := int64(len(open) - len(s.open))
	if fresh != int64(len(s.open)) {
		out.fail("serve: %d fresh syntheses for %d distinct open-loop requests", fresh, len(s.open))
	}
	if coal+hits != dups {
		out.fail("serve: coalesced %d + cache hits %d != %d duplicate submissions", coal, hits, dups)
	}
	if d := (st2.Failed - st0.Failed) + (st2.Cancelled - st0.Cancelled) + shed; d != 0 {
		out.fail("serve: %d jobs shed, failed or cancelled", d)
	}

	l := out.perLayer
	phases.fill(l, 1)
	l["anneal.s"] = annealS
	l["core.race_waste_s"] = wasteS
	if races > 0 {
		l["core.race_win_ratio.anneal"] = float64(annealWins) / float64(races)
	}
	l["core.degraded"] = float64(degraded)
	l["verify.request_fp_us"] = quantile(s.fpUS, 0.5)
	l["serve.submit_us_p50"] = quantile(submitUS, 0.5)
	l["serve.queue_wait_ms_p50"] = quantile(waitMS, 0.5)
	l["serve.queue_wait_ms_p95"] = quantile(waitMS, 0.95)
	l["serve.run_ms_p50"] = quantile(runMS, 0.5)
	l["serve.fresh_p50_ms"] = quantile(byPath[serve.SubmitQueued], 0.5)
	l["serve.coalesced_p50_ms"] = quantile(byPath[serve.SubmitCoalesced], 0.5)
	l["serve.cached_p50_ms"] = quantile(byPath[serve.SubmitCached], 0.5)
	l["serve.fresh"] = float64(fresh)
	l["serve.coalesced"] = float64(coal)
	l["serve.cache_hits"] = float64(hits)
	l["serve.shed"] = float64(shed)
	l["serve.peak_running"] = float64(st2.PeakRunning)
	if dups > 0 {
		l["serve.dup_absorb_ratio"] = float64(coal+hits) / float64(dups)
	}
	l["loadgen.lag_ms_p95"] = lagP95

	runOracle(cfg, out, s, openViews, closedViews)
	return out, nil
}

// checkAnswers checks every submission of one loop and returns, per
// distinct request, the result view of its answer (nil when it failed).
func checkAnswers(out *outcome, loop string, reqs []request, subs []submission) []*serve.ResultView {
	views := make([]*serve.ResultView, len(reqs))
	for _, sub := range subs {
		key := reqs[sub.req].key
		switch {
		case sub.err != nil:
			out.fail("request %s (%s loop): %v", key, loop, sub.err)
			continue
		case sub.job == nil:
			out.fail("request %s (%s loop): shed (outcome %d)", key, loop, sub.outcome)
			continue
		}
		v := sub.job.View()
		if v.State != serve.StateDone || v.Result == nil {
			out.fail("request %s (%s loop): job %s ended %s", key, loop, v.ID, v.State)
			continue
		}
		if first := views[sub.req]; first == nil {
			views[sub.req] = v.Result
		} else if first.Fingerprint != v.Result.Fingerprint {
			out.fail("request %s: fingerprint %s differs from an earlier answer's %s", key, v.Result.Fingerprint, first.Fingerprint)
		}
	}
	return views
}

// runOracle re-runs distinct requests directly through SynthesizeCtx,
// outside the timed loops: every oracleEvery-th request untraced, and with
// tracing every open-loop request traced as well. Each direct result must
// conform and match the service's fingerprint. The traced re-runs supply
// serve-mix's obs counters: the engine is deterministic, so they equal the
// counts of the service's own runs.
func runOracle(cfg config, out *outcome, s *serveSetup, openViews, closedViews []*serve.ResultView) {
	type target struct {
		r    request
		view *serve.ResultView
	}
	var all []target
	for i, r := range s.open {
		all = append(all, target{r, openViews[i]})
	}
	for i, r := range s.closed {
		all = append(all, target{r, closedViews[i]})
	}
	direct := func(t target, tr *obs.Trace) (*core.Result, float64) {
		opts := t.r.opts
		opts.Workers = 1
		opts.Trace = tr
		t0 := time.Now()
		res, err := core.SynthesizeCtx(context.Background(), t.r.assay, opts)
		secs := time.Since(t0).Seconds()
		out.attempted++
		if err != nil {
			out.fail("request %s: direct synthesis: %v", t.r.key, err)
			return nil, secs
		}
		if rep := verify.Conformance(res); !rep.Clean() {
			out.fail("request %s: %s", t.r.key, rep)
		}
		if fp := verify.Fingerprint(res); t.view != nil && fp != t.view.Fingerprint {
			out.fail("request %s: service fingerprint %s != direct %s", t.r.key, t.view.Fingerprint, fp)
		}
		return res, secs
	}

	plainS := map[int]float64{}
	for i := 0; i < len(all); i += oracleEvery {
		_, plainS[i] = direct(all[i], nil)
	}
	if !cfg.trace {
		return
	}
	counters := map[string]int64{}
	var attempts int
	var tracedSample, plainSample float64
	for i := range s.open {
		tr := obs.New()
		res, secs := direct(all[i], tr)
		if p, ok := plainS[i]; ok {
			tracedSample += secs
			plainSample += p
		}
		if snap := tr.Metrics().Snapshot(); snap != nil {
			for k, v := range snap.Counters {
				counters[k] += v
			}
		}
		if res != nil && res.Degradation != nil {
			attempts += len(res.Degradation.Attempts)
		}
	}
	addCounters(out.perLayer, counters, 1)
	out.perLayer["core.degrade_attempts"] = float64(attempts)
	if plainSample > 0 {
		out.perLayer["trace.overhead_pct"] = 100 * (tracedSample/plainSample - 1)
	}
}

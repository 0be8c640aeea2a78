package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/synerr"
	"mfsynth/internal/verify"
)

// tinyAssay builds a minimal mix assay that synthesizes in milliseconds.
func tinyAssay(name string) *graph.Assay {
	a := graph.New(name)
	in1 := a.Add(graph.Input, "s1", 0)
	in2 := a.Add(graph.Input, "s2", 0)
	mix := a.Add(graph.Mix, "m1", 3)
	out := a.Add(graph.Output, "o1", 0)
	a.Connect(in1, mix, 4)
	a.Connect(in2, mix, 4)
	a.Connect(mix, out, 8)
	return a
}

// tinyOpts are fast greedy-mapper options; pump varies the request
// fingerprint without changing the synthesis work.
func tinyOpts(pump int) core.Options {
	return core.Options{
		Policy:         schedule.Resources{Mixers: map[int]int{8: 1}},
		Place:          place.Config{Grid: 10, Mode: place.Greedy},
		PumpActuations: pump,
	}
}

func mustCase(t *testing.T, name string) assays.Case {
	t.Helper()
	c, err := assays.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitDone(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
	return j.View()
}

// TestSubmitRunsAndCaches: a fresh submission synthesizes; an identical
// resubmission is served from the cache with the bit-identical result; a
// distinct request misses.
func TestSubmitRunsAndCaches(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()

	j1, outcome, _, err := s.Submit("c1", tinyAssay("t"), tinyOpts(40), 0)
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("first submit: outcome %v err %v", outcome, err)
	}
	v1 := waitDone(t, j1)
	if v1.State != StateDone || v1.Result == nil {
		t.Fatalf("first job: %+v", v1)
	}

	// Single-shot oracle: the service's result is bit-identical to a
	// direct engine run of the same request.
	direct, err := core.Synthesize(tinyAssay("t"), tinyOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v1.Result.Fingerprint, verify.Fingerprint(direct); got != want {
		t.Fatalf("service fingerprint %s != single-shot %s", got, want)
	}

	j2, outcome, _, err := s.Submit("c1", tinyAssay("t"), tinyOpts(40), 0)
	if err != nil || outcome != SubmitCached {
		t.Fatalf("resubmit: outcome %v err %v", outcome, err)
	}
	v2 := j2.View()
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("cached job: %+v", v2)
	}
	if v2.Result.Fingerprint != v1.Result.Fingerprint {
		t.Fatal("cached result fingerprint differs")
	}

	if _, outcome, _, _ := s.Submit("c1", tinyAssay("t"), tinyOpts(41), 0); outcome != SubmitQueued {
		t.Fatalf("distinct request should miss the cache, got %v", outcome)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.Fresh != 2 || st.Accepted != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCoalescing: concurrent identical submissions share one synthesis.
func TestCoalescing(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()

	// Occupy the single worker so the coalescing window stays open.
	blocker, _, _, err := s.Submit("c", tinyAssay("blocker"), tinyOpts(40), 0)
	if err != nil {
		t.Fatal(err)
	}
	j1, o1, _, err := s.Submit("c", tinyAssay("t"), tinyOpts(40), 0)
	if err != nil || (o1 != SubmitQueued) {
		t.Fatalf("submit 1: %v %v", o1, err)
	}
	j2, o2, _, err := s.Submit("c", tinyAssay("t"), tinyOpts(40), 0)
	if err != nil || o2 != SubmitCoalesced {
		t.Fatalf("submit 2: %v %v", o2, err)
	}
	if j1 != j2 {
		t.Fatal("coalesced submission landed on a different job")
	}
	waitDone(t, blocker)
	v := waitDone(t, j1)
	if v.State != StateDone || v.Coalesced != 1 {
		t.Fatalf("coalesced job view: %+v", v)
	}
	if st := s.Stats(); st.Coalesced != 1 || st.Fresh != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestQueueFullSheds: a full queue sheds with a retry hint instead of
// blocking or collapsing.
func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 8})
	defer s.Close()

	// Worker busy + queue slot taken ⇒ the third distinct job sheds.
	s.Submit("c", tinyAssay("a"), tinyOpts(40), 0)
	s.Submit("c", tinyAssay("b"), tinyOpts(40), 0)
	var shed bool
	for i := 0; i < 32; i++ {
		_, outcome, retry, err := s.Submit("c", tinyAssay(fmt.Sprintf("x%d", i)), tinyOpts(40), 0)
		if err != nil {
			t.Fatal(err)
		}
		if outcome == SubmitShedQueueFull {
			if retry <= 0 {
				t.Fatal("queue-full shed without a retry hint")
			}
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("queue never shed")
	}
	if st := s.Stats(); st.ShedQueueFull == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRateLimiting: an over-rate client is shed with 429 semantics while
// an independent client still gets through.
func TestRateLimiting(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 64, CacheEntries: 8, RatePerSec: 0.001, Burst: 2})
	defer s.Close()

	for i := 0; i < 2; i++ {
		if _, outcome, _, err := s.Submit("greedy", tinyAssay(fmt.Sprintf("r%d", i)), tinyOpts(40), 0); err != nil || outcome == SubmitShedRateLimited {
			t.Fatalf("burst submit %d shed early: %v %v", i, outcome, err)
		}
	}
	_, outcome, retry, err := s.Submit("greedy", tinyAssay("r2"), tinyOpts(40), 0)
	if err != nil || outcome != SubmitShedRateLimited || retry <= 0 {
		t.Fatalf("over-rate submit: %v retry %v err %v", outcome, retry, err)
	}
	if _, outcome, _, _ := s.Submit("polite", tinyAssay("r3"), tinyOpts(40), 0); outcome != SubmitQueued {
		t.Fatalf("independent client shed: %v", outcome)
	}
}

// TestCancelQueuedJob: cancelling a queued job finishes it as cancelled
// without synthesis, and a later identical submission is not poisoned.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()

	blocker, _, _, _ := s.Submit("c", tinyAssay("blocker"), tinyOpts(40), 0)
	j, _, _, err := s.Submit("c", tinyAssay("victim"), tinyOpts(40), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, found := s.Cancel(j.ID); !ok || !found {
		t.Fatalf("cancel: ok=%v found=%v", ok, found)
	}
	v := waitDone(t, j)
	if v.State != StateCancelled {
		t.Fatalf("state %s", v.State)
	}
	if v.Error == nil || v.Error.Status != StatusClientClosedRequest {
		t.Fatalf("cancelled job error: %+v", v.Error)
	}
	waitDone(t, blocker)

	// The same request resubmitted must run fresh, not coalesce onto the
	// cancelled record.
	j2, outcome, _, err := s.Submit("c", tinyAssay("victim"), tinyOpts(40), 0)
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("resubmit after cancel: %v %v", outcome, err)
	}
	if v := waitDone(t, j2); v.State != StateDone {
		t.Fatalf("resubmitted job: %+v", v)
	}
}

// TestProblemMapping: the synerr taxonomy maps onto the documented HTTP
// statuses.
func TestProblemMapping(t *testing.T) {
	cases := []struct {
		err       error
		cancelled bool
		status    int
	}{
		{synerr.Infeasible("place", "no fit"), false, http.StatusUnprocessableEntity},
		{synerr.Unroutable("route", "no path"), false, http.StatusUnprocessableEntity},
		{synerr.Deadline("milp", context.DeadlineExceeded), false, http.StatusGatewayTimeout},
		{synerr.Deadline("core", context.Canceled), true, StatusClientClosedRequest},
		{fmt.Errorf("boom"), false, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		p := problemFor(tc.err, tc.cancelled)
		if p.Status != tc.status {
			t.Errorf("problemFor(%v, %v) status = %d, want %d", tc.err, tc.cancelled, p.Status, tc.status)
		}
	}
	if p := problemFor(synerr.Infeasible("place", "x"), false); p.Phase != "place" {
		t.Errorf("phase not extracted: %+v", p)
	}
}

// TestInfeasibleJobFails: an unsolvable request surfaces as a failed job
// carrying a 422 problem.
func TestInfeasibleJobFails(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer s.Close()

	// Volume 40 cannot fit any device on a tiny grid.
	a := graph.New("toolarge")
	in := a.Add(graph.Input, "s", 0)
	mix := a.Add(graph.Mix, "m", 3)
	out := a.Add(graph.Output, "o", 0)
	a.Connect(in, mix, 40)
	a.Connect(mix, out, 40)
	opts := core.Options{
		Policy:             schedule.Resources{Mixers: map[int]int{40: 1}},
		Place:              place.Config{Grid: 6, Mode: place.Greedy},
		DisableDegradation: true,
	}
	j, _, _, err := s.Submit("c", a, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j)
	if v.State != StateFailed || v.Error == nil {
		t.Fatalf("job view: %+v", v)
	}
	if v.Error.Status != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible mapped to %d: %+v", v.Error.Status, v.Error)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Failures are not cached: a resubmission runs (and fails) afresh.
	if _, outcome, _, _ := s.Submit("c", a, opts, 0); outcome != SubmitQueued {
		t.Fatalf("failed result was cached: %v", outcome)
	}
}

// TestHTTPAPI walks the full HTTP surface: submit by case name, poll,
// stream events, observe a cache hit on resubmission, stats, cancel 404.
func TestHTTPAPI(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"assay":"assay web\nop s1 input 0\nop s2 input 0\nop m1 mix 3\nop o1 output 0\nedge s1 m1 4\nedge s2 m1 4\nedge m1 o1 8\n","options":{"mode":"greedy","grid":10}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Via != "queued" || sub.ID == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	// Events stream: read until the done event arrives.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	sawDone := false
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatal("event stream ended without a done event")
	}

	// Poll the completed job.
	var view JobView
	getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &view)
	if view.State != StateDone || view.Result == nil || view.Result.Fingerprint == "" {
		t.Fatalf("job view: %+v", view)
	}

	// Resubmission hits the cache with HTTP 200 and the identical result.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 submitResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || sub2.Via != "cached" {
		t.Fatalf("resubmit: status %d via %s", resp2.StatusCode, sub2.Via)
	}
	if sub2.Result == nil || sub2.Result.Fingerprint != view.Result.Fingerprint {
		t.Fatalf("cached response result drifted: %+v", sub2.Result)
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CacheHits != 1 || st.Fresh != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Unknown job: 404 problem for GET and DELETE.
	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job GET status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job DELETE status %d", resp.StatusCode)
	}

	// Malformed body: 400 problem.
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit status %d", resp.StatusCode)
	}

	// Healthz.
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestHTTPSubmitByCase: the case+policy form resolves the benchmark and
// its traditional-design policy, like the CLI.
func TestHTTPSubmitByCase(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"case":"PCR","policy":1,"options":{"mode":"greedy"}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, sub)
	}
	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatal("job not found")
	}
	if v := waitDone(t, j); v.State != StateDone {
		t.Fatalf("PCR job: %+v", v)
	}

	// Unknown case: 400.
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"case":"NotABenchmark"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown case status %d", resp.StatusCode)
	}
}

// TestDrainGraceful: with enough grace, Drain lets in-flight jobs finish
// and new submissions are shed with draining semantics.
func TestDrainGraceful(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})

	j, _, _, err := s.Submit("c", tinyAssay("d"), tinyOpts(40), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := j.View(); v.State != StateDone {
		t.Fatalf("in-flight job after graceful drain: %+v", v)
	}
	if _, outcome, _, _ := s.Submit("c", tinyAssay("late"), tinyOpts(40), 0); outcome != SubmitShedDraining {
		t.Fatalf("post-drain submit outcome %v", outcome)
	}
}

// TestDrainDeadlineCancels: when the grace runs out, running jobs are cut
// through their contexts and finish with a structured cancellation.
func TestDrainDeadlineCancels(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 8})

	// A monolithic ILP solve on a benchmark takes long enough to outlive
	// a millisecond grace.
	pcr := mustCase(t, "PCR")
	opts := core.Options{
		Policy: schedule.Resources{Mixers: pcr.BaseMixers},
		Place:  place.Config{Grid: pcr.GridSize, Mode: place.Monolithic},
	}
	j, _, _, err := s.Submit("c", pcr.Assay, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	v := waitDone(t, j)
	if v.State == StateDone {
		return // the job beat the grace; nothing to assert about cancellation
	}
	if err == nil {
		t.Fatal("drain reported clean despite unfinished job")
	}
	if v.State != StateFailed && v.State != StateCancelled {
		t.Fatalf("state %s", v.State)
	}
	if v.Error == nil {
		t.Fatalf("no structured error: %+v", v)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), into); err != nil {
		t.Fatalf("bad JSON from %s: %v\n%s", url, err, buf.String())
	}
}

// TestBackendCacheIsolation: requests that differ only in their anytime
// portfolio configuration — backend list, priority order, anneal seed —
// never share a cache entry, because the request fingerprint hashes the
// backend and seed options. A collision here would hand a client the
// other portfolio's result verbatim.
func TestBackendCacheIsolation(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()

	portfolio := tinyOpts(40)
	portfolio.Backends = []core.Backend{core.BackendGreedy, core.BackendAnneal}
	portfolio.Anneal = core.AnnealOptions{Replicates: 2, Iters: 200}

	j1, outcome, _, err := s.Submit("c1", tinyAssay("t"), portfolio, 0)
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("portfolio submit: outcome %v err %v", outcome, err)
	}
	v1 := waitDone(t, j1)
	if v1.State != StateDone || v1.Result == nil {
		t.Fatalf("portfolio job: %+v", v1)
	}
	if v1.Result.Backend == "" {
		t.Error("portfolio result has no winning backend")
	}
	if v1.Result.Race == nil || len(v1.Result.Race.Lanes) != 2 {
		t.Fatalf("portfolio result race report: %+v", v1.Result.Race)
	}

	// Bit-identical resubmission hits the cache.
	if _, outcome, _, _ := s.Submit("c1", tinyAssay("t"), portfolio, 0); outcome != SubmitCached {
		t.Fatalf("identical portfolio resubmit should hit the cache, got %v", outcome)
	}

	// A different anneal seed is a different request.
	seeded := portfolio
	seeded.Anneal.Seed = 7
	if _, outcome, _, _ := s.Submit("c1", tinyAssay("t"), seeded, 0); outcome != SubmitQueued {
		t.Fatalf("seed change should miss the cache, got %v", outcome)
	}

	// So is a different priority order (it changes the tie-break).
	flipped := portfolio
	flipped.Backends = []core.Backend{core.BackendAnneal, core.BackendGreedy}
	if _, outcome, _, _ := s.Submit("c1", tinyAssay("t"), flipped, 0); outcome != SubmitQueued {
		t.Fatalf("backend order change should miss the cache, got %v", outcome)
	}

	// And so is dropping the portfolio entirely.
	if _, outcome, _, _ := s.Submit("c1", tinyAssay("t"), tinyOpts(40), 0); outcome != SubmitQueued {
		t.Fatalf("classic pipeline should miss the portfolio's cache, got %v", outcome)
	}
}

// TestResolveBackends: the wire spec round-trips into core options, and
// an unknown backend is a client error.
func TestResolveBackends(t *testing.T) {
	req := JobRequest{
		Assay: "assay t\nop s1 input\nop s2 input\nop m1 mix 3\nop o1 output\n" +
			"edge s1 m1 4\nedge s2 m1 4\nedge m1 o1 8\n",
		Opts: OptionsSpec{Backends: "anneal,ilp", AnnealSeed: 9, AnnealReplicates: 2},
	}
	_, opts, _, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Backends) != 2 || opts.Backends[0] != core.BackendAnneal {
		t.Fatalf("backends: %v", opts.Backends)
	}
	if opts.Anneal.Seed != 9 || opts.Anneal.Replicates != 2 {
		t.Fatalf("anneal options: %+v", opts.Anneal)
	}

	bad := req
	bad.Opts.Backends = "ilp,tabu"
	if _, _, _, err := bad.resolve(); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestMetricsEndpoint checks GET /metrics serves the admission/queue/
// cache counters in Prometheus text exposition format, agrees with
// /v1/stats, and is stable across scrapes (a second scrape with no new
// work must not move a counter).
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, outcome, _, err := s.Submit("c", tinyAssay("metrics"), tinyOpts(0), 0)
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("submit: %v %v", outcome, err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("metrics content type %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	body := scrape()
	for _, want := range []string{
		"# TYPE serve_submitted_total counter",
		"serve_submitted_total 1",
		"serve_completed_total 1",
		"# TYPE serve_workers gauge",
		"serve_workers 1",
		"serve_running 0",
		"serve_running_peak 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	// A second scrape with no new work must report identical counters.
	if body2 := scrape(); !strings.Contains(body2, "serve_submitted_total 1") ||
		!strings.Contains(body2, "serve_completed_total 1") {
		t.Fatalf("second scrape drifted:\n%s", body2)
	}

	// And the registry must agree with /v1/stats.
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats disagree with metrics: %+v", st)
	}
}

// promValue reads one sample of a Prometheus text body (-1 when absent).
func promValue(body, name string) int64 {
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestMetricsScrapeDuringJobs scrapes GET /metrics from several goroutines
// while jobs run (tier 2 runs it under the race detector): counters never
// go backwards between scrapes, and once the jobs are done the scraped
// registry agrees with /v1/stats.
func TestMetricsScrapeDuringJobs(t *testing.T) {
	const jobs = 8
	s := New(Config{Workers: 2, QueueDepth: jobs, CacheEntries: jobs})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scrape := func() (string, error) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return buf.String(), err
	}
	stop := make(chan struct{})
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			var last int64
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				body, err := scrape()
				if err != nil {
					errs <- err
					return
				}
				n := promValue(body, "serve_completed_total")
				if n < last {
					errs <- fmt.Errorf("serve_completed_total went from %d to %d", last, n)
					return
				}
				last = n
			}
		}()
	}
	var submitted []*Job
	for i := 0; i < jobs; i++ {
		j, outcome, _, err := s.Submit("c", tinyAssay(fmt.Sprintf("scrape%d", i)), tinyOpts(0), 0)
		if err != nil || outcome != SubmitQueued {
			t.Fatalf("submit %d: %v %v", i, outcome, err)
		}
		submitted = append(submitted, j)
	}
	for _, j := range submitted {
		waitDone(t, j)
	}
	close(stop)
	for g := 0; g < 3; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	body, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	for name, want := range map[string]int64{
		"serve_submitted_total": st.Submitted,
		"serve_accepted_total":  st.Accepted,
		"serve_fresh_total":     st.Fresh,
		"serve_completed_total": st.Completed,
		"serve_running":         int64(st.Running),
		"serve_running_peak":    int64(st.PeakRunning),
	} {
		if got := promValue(body, name); got != want {
			t.Errorf("%s = %d in /metrics, %d in /v1/stats", name, got, want)
		}
	}
	if st.Completed != jobs || st.PeakRunning < 1 || st.PeakRunning > 2 {
		t.Errorf("stats %+v: want %d completed and peak running in [1, 2]", st, jobs)
	}
}

// TestSubmitBounds: the service refuses untrusted input it cannot afford.
// An oversized body is a 413 problem and an out-of-range grid, anneal
// budget or deadline a 422 problem; none of them reaches the engine, and
// an in-range request is still accepted.
func TestSubmitBounds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, Problem) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p Problem
		json.NewDecoder(resp.Body).Decode(&p)
		return resp.StatusCode, p
	}
	withOpts := func(opts string) string {
		return `{"case":"PCR","options":{"mode":"greedy",` + opts + `}}`
	}

	huge := `{"case":"PCR","faults":"` + strings.Repeat("#", MaxBodyBytes) + `"}`
	if status, p := post(huge); status != http.StatusRequestEntityTooLarge || p.Type != "too-large" {
		t.Errorf("oversized body: status %d, problem %+v", status, p)
	}
	for _, opts := range []string{
		`"grid":2`, `"grid":-5`, `"grid":100000`,
		`"anneal_replicates":1000000`, `"anneal_replicates":-1`,
		`"anneal_iters":1000000000`,
		`"deadline_seconds":-1`, `"deadline_seconds":1e9`,
	} {
		if status, p := post(withOpts(opts)); status != http.StatusUnprocessableEntity || p.Type != "out-of-range" {
			t.Errorf("%s: status %d, problem %+v", opts, status, p)
		}
	}
	if st := s.Stats(); st.Accepted != 0 || st.BadRequests != 9 {
		t.Errorf("refused requests: accepted %d, bad requests %d, want 0 and 9", st.Accepted, st.BadRequests)
	}
	if status, p := post(withOpts(`"grid":12,"anneal_replicates":2,"deadline_seconds":60`)); status != http.StatusAccepted {
		t.Errorf("in-range request refused: status %d, problem %+v", status, p)
	}
}

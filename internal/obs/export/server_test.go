package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// synthesize runs one PCR synthesis against the trace; the standard
// integration workload of this package's tests. The chip is 10×10 rather
// than Table 1's 12×12: there greedy misses the counting bound in one
// batch, so a node-capped branch and bound runs and streams live state.
func synthesize(t testing.TB, tr *obs.Trace) {
	t.Helper()
	c := assays.PCR()
	_, err := core.Synthesize(c.Assay, core.Options{
		Policy: schedule.Resources{Mixers: c.BaseMixers},
		Place:  place.Config{Grid: 10, MaxNodes: 64, SolveTimeout: time.Hour},
		Trace:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// collectSSE reads the /progress event stream until a Done snapshot (or
// EOF) and returns every snapshot received, in arrival order.
func collectSSE(t *testing.T, url string) []obs.Progress {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snaps []obs.Progress
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p obs.Progress
		if err := json.Unmarshal([]byte(line[len("data: "):]), &p); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		snaps = append(snaps, p)
		if p.Done {
			break
		}
	}
	return snaps
}

// TestServerLiveSynthesis is the end-to-end exercise of the debug server:
// it serves a real synthesis run and must show live, internally
// consistent state on every endpoint — at least one /progress snapshot
// per pipeline phase, monotone non-increasing B&B gaps within each solve,
// and a /metrics exposition carrying the live gauges.
func TestServerLiveSynthesis(t *testing.T) {
	tr := obs.New()
	srv, err := Serve("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Stream /progress concurrently with the synthesis it watches.
	snapsCh := make(chan []obs.Progress, 1)
	go func() { snapsCh <- collectSSE(t, base+"/progress") }()
	// Give the subscriber a moment to attach so the earliest snapshots
	// (the schedule phase) are streamed rather than skipped.
	waitForSubscriber(t, tr)

	synthesize(t, tr)

	var snaps []obs.Progress
	select {
	case snaps = <-snapsCh:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream never delivered a Done snapshot")
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots streamed")
	}
	if last := snaps[len(snaps)-1]; !last.Done {
		t.Fatalf("stream ended without Done: %+v", last)
	}

	// ≥1 snapshot per pipeline phase.
	phases := map[string]bool{}
	for _, p := range snaps {
		if p.Phase != "" {
			phases[p.Phase] = true
		}
	}
	for _, want := range []string{"schedule", "place", "route", "sim"} {
		if !phases[want] {
			t.Errorf("no snapshot for phase %q (saw %v)", want, phases)
		}
	}

	// Stream invariants: Seq strictly increasing, AtUS non-decreasing
	// (drop-oldest preserves order), and within each B&B solve the gap
	// never widens and the node count never shrinks.
	lastGap := map[int64]float64{}
	lastNodes := map[int64]int64{}
	sawMILP, sawRoute := false, false
	for i, p := range snaps {
		if i > 0 {
			if p.Seq <= snaps[i-1].Seq {
				t.Fatalf("seq not increasing: %d after %d", p.Seq, snaps[i-1].Seq)
			}
			if p.AtUS < snaps[i-1].AtUS {
				t.Fatalf("at_us went backwards: %d after %d", p.AtUS, snaps[i-1].AtUS)
			}
		}
		if p.MILP != nil {
			sawMILP = true
			if n, ok := lastNodes[p.MILP.Solve]; ok && p.MILP.Nodes < n {
				t.Fatalf("solve %d nodes shrank: %d -> %d", p.MILP.Solve, n, p.MILP.Nodes)
			}
			lastNodes[p.MILP.Solve] = p.MILP.Nodes
			if p.MILP.HasIncumbent {
				if g, ok := lastGap[p.MILP.Solve]; ok && p.MILP.Gap > g+1e-9 {
					t.Fatalf("solve %d gap widened: %g -> %g", p.MILP.Solve, g, p.MILP.Gap)
				}
				lastGap[p.MILP.Solve] = p.MILP.Gap
			}
		}
		if p.Route != nil {
			sawRoute = true
		}
	}
	if !sawMILP {
		t.Error("no B&B snapshots in the stream")
	}
	if !sawRoute {
		t.Error("no routing snapshots in the stream")
	}

	// /metrics must expose the live solver state post-run.
	body := get(t, base+"/metrics", "text/plain; version=0.0.4; charset=utf-8")
	for _, want := range []string{
		"# TYPE milp_gap gauge\n",
		"# TYPE milp_nodes_total counter\n",
		"route_wirelength_total ",
		"milp_bound_gap_bucket{le=\"+Inf\"} ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(body, "_us_total") {
		t.Error("/metrics leaked an unconverted _us_total sample")
	}

	// /progress?once=1 returns the final snapshot as plain JSON.
	var once obs.Progress
	if err := json.Unmarshal([]byte(get(t, base+"/progress?once=1", "application/json")), &once); err != nil {
		t.Fatalf("?once=1 payload: %v", err)
	}
	if !once.Done || once.Phases["schedule"] <= 0 || once.Phases["route"] <= 0 {
		t.Errorf("?once=1 snapshot = %+v, want Done with per-phase seconds", once)
	}

	// The remaining endpoints answer.
	if body := get(t, base+"/healthz", ""); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	if body := get(t, base+"/debug/vars", ""); !strings.Contains(body, "mfsynth_metrics") {
		t.Error("/debug/vars lacks the mfsynth_metrics bridge")
	}
	if body := get(t, base+"/debug/pprof/", ""); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index empty")
	}
	if body := get(t, base+"/", ""); !strings.Contains(body, "/metrics") {
		t.Errorf("index = %q", body)
	}
}

// waitForSubscriber blocks until the SSE handler has registered on the
// trace's progress bus (a snapshot published now reaches it).
func waitForSubscriber(t *testing.T, tr *obs.Trace) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tr.ProgressBus().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}
}

func get(t *testing.T, url, wantCT string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if wantCT != "" && resp.Header.Get("Content-Type") != wantCT {
		t.Fatalf("GET %s Content-Type = %q, want %q", url, resp.Header.Get("Content-Type"), wantCT)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestProgressOnceBeforeFirstUpdate: ?once=1 is 204 until something has
// been published.
func TestProgressOnceBeforeFirstUpdate(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/progress?once=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %s, want 204", resp.Status)
	}
}

// TestServeNilTrace: the server refuses to start detached from a trace.
func TestServeNilTrace(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve accepted a nil trace")
	}
}

// TestConcurrentScrapeRace hammers every read path (Prometheus exposition,
// registry snapshot, bus Latest) while a synthesis publishes from its hot
// loops. Run under -race this is the snapshot-while-synthesizing check;
// without -race it still exercises the locking.
func TestConcurrentScrapeRace(t *testing.T) {
	tr := obs.New()
	tr.EnableProgress()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			WriteProm(io.Discard, tr.Metrics())
			tr.Metrics().Snapshot()
			tr.ProgressBus().Latest()
		}
	}()
	synthesize(t, tr)
	done <- struct{}{}
	<-done
}

// ExampleServe shows the one-call wiring: start the server, run the
// synthesis with the shared trace, scrape while it runs.
func ExampleServe() {
	tr := obs.New()
	srv, _ := Serve("127.0.0.1:0", tr)
	defer srv.Close()
	fmt.Println("scrape http://" + srv.Addr() + "/metrics")
}

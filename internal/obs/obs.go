// Package obs is the observability layer of the synthesis engine: it
// collects hierarchical timed spans, point marks and a registry of named
// metrics (counters, gauges, fixed-bucket histograms) for one synthesis
// run — or a whole benchmark batch — and exports them through three sinks:
// a human-readable summary tree (WriteText), a JSONL event stream
// (WriteJSONL) and Chrome trace_event JSON loadable in chrome://tracing
// and Perfetto (WriteChromeTrace).
//
// The package has no dependencies outside the standard library and, by
// design, no dependency on the rest of the engine: the worker-pool adapter
// (PoolObserver) satisfies internal/par's Observer interface structurally.
//
// Tracing is strictly opt-in. A nil *Trace is a valid no-op tracer: every
// method on a nil *Trace, *Span, *Counter, *Gauge, *Histogram and *Metrics
// is safe to call and does nothing, so instrumented code reads
//
//	sp := opts.Obs.Start("phase")
//	defer sp.End()
//
// unconditionally and the disabled path costs only an inlinable nil check.
//
// Spans are organised into tracks — the rows of the Chrome trace view.
// Root spans own a "main" track each (concurrent roots, e.g. benchmark
// cells evaluated in parallel, get distinct tracks so their slices do not
// overlap); child spans inherit their parent's track unless started with
// StartTrack, which is how parallel work lands on per-worker "w0", "w1", …
// tracks.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or mark. Values must be
// JSON-marshalable (strings, numbers, booleans).
type Attr struct {
	Key string
	Val any
}

// KV builds an Attr.
func KV(key string, val any) Attr { return Attr{Key: key, Val: val} }

// Trace collects the spans, marks and metrics of one run. The zero value
// is not usable; construct with New. A nil *Trace no-ops everywhere.
type Trace struct {
	metrics *Metrics
	epoch   time.Time            // wall-clock anchor; span times are offsets
	clock   func() time.Duration // monotonic offset source (tests override)

	progressMu sync.Mutex
	progress   *ProgressBus // nil until EnableProgress

	mu         sync.Mutex
	nextID     int
	done       []*Span // ended spans, in End order
	marks      []markRec
	trackIDs   map[string]int
	trackNames []string // track id -> display name
	freeRoots  []int    // root tracks not owned by a live root span
	rootTracks int      // number of root tracks ever created
}

// markRec is one recorded instantaneous event.
type markRec struct {
	name  string
	span  int // enclosing span id
	track int
	at    time.Duration
	attrs []Attr
}

// New returns an empty trace anchored at the current time.
func New() *Trace {
	t := &Trace{
		metrics:  NewMetrics(),
		epoch:    time.Now(),
		trackIDs: map[string]int{},
	}
	t.clock = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// Metrics returns the trace's metric registry; nil for a nil trace (the
// nil registry no-ops).
func (t *Trace) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// EnableProgress switches on the live progress bus, creating it on first
// call (idempotent — later calls return the same bus). Publishers in the
// hot loops fetch the bus via ProgressBus and see nil until some consumer
// (the debug HTTP server, a progress log) has enabled it, so the disabled
// path stays a nil check. Returns nil on a nil trace.
func (t *Trace) EnableProgress() *ProgressBus {
	if t == nil {
		return nil
	}
	t.progressMu.Lock()
	defer t.progressMu.Unlock()
	if t.progress == nil {
		t.progress = newProgressBus(func() time.Duration { return t.clock() })
	}
	return t.progress
}

// ProgressBus returns the live progress bus, or nil when EnableProgress
// has not been called (the nil bus no-ops).
func (t *Trace) ProgressBus() *ProgressBus {
	if t == nil {
		return nil
	}
	t.progressMu.Lock()
	defer t.progressMu.Unlock()
	return t.progress
}

// trackLocked interns a track display name. t.mu must be held.
func (t *Trace) trackLocked(name string) int {
	if id, ok := t.trackIDs[name]; ok {
		return id
	}
	id := len(t.trackNames)
	t.trackNames = append(t.trackNames, name)
	t.trackIDs[name] = id
	return id
}

// Start opens a root span. Concurrent root spans get distinct main tracks
// ("main", "main#2", …) so their slices do not overlap in the trace view;
// a root's track is recycled once it ends.
func (t *Trace) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var track int
	if n := len(t.freeRoots); n > 0 {
		track = t.freeRoots[n-1]
		t.freeRoots = t.freeRoots[:n-1]
	} else {
		t.rootTracks++
		label := "main"
		if t.rootTracks > 1 {
			label = "main#" + itoa(t.rootTracks)
		}
		track = t.trackLocked(label)
	}
	sp := t.newSpanLocked(name, track, 0, attrs)
	sp.root = true
	t.mu.Unlock()
	return sp
}

// newSpanLocked allocates a span. t.mu must be held.
func (t *Trace) newSpanLocked(name string, track, parent int, attrs []Attr) *Span {
	t.nextID++
	return &Span{
		tr:     t,
		id:     t.nextID,
		parent: parent,
		name:   name,
		track:  track,
		start:  t.clock(),
		attrs:  attrs,
	}
}

// Span is one timed region of a trace. A nil *Span no-ops everywhere.
type Span struct {
	tr     *Trace
	id     int
	parent int // parent span id; 0 for roots
	name   string
	track  int
	root   bool
	start  time.Duration

	mu    sync.Mutex
	dur   time.Duration
	attrs []Attr
	ended bool
}

// Trace returns the owning trace; nil for a nil span.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Metrics returns the owning trace's metric registry; nil for a nil span.
func (s *Span) Metrics() *Metrics { return s.Trace().Metrics() }

// Start opens a child span on the same track.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	sp := t.newSpanLocked(name, s.track, s.id, attrs)
	t.mu.Unlock()
	return sp
}

// StartTrack opens a child span on the named track — how concurrent work
// lands on per-worker rows of the trace view.
func (s *Span) StartTrack(track, name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	sp := t.newSpanLocked(name, t.trackLocked(track), s.id, attrs)
	t.mu.Unlock()
	return sp
}

// Set appends attributes to the span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Mark records an instantaneous event inside the span (e.g. an incumbent
// update) — an "i" instant in the Chrome trace.
func (s *Span) Mark(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	t.marks = append(t.marks, markRec{
		name: name, span: s.id, track: s.track, at: t.clock(), attrs: attrs,
	})
	t.mu.Unlock()
}

// End closes the span, fixing its duration. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	t := s.tr
	t.mu.Lock()
	s.dur = t.clock() - s.start
	t.done = append(t.done, s)
	if s.root {
		t.freeRoots = append(t.freeRoots, s.track)
	}
	t.mu.Unlock()
}

// Duration returns the span's duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// snapshot returns the ended spans sorted by (start, id) and the track
// names — the canonical export order shared by every sink.
func (t *Trace) snapshot() (spans []*Span, marks []markRec, tracks []string) {
	t.mu.Lock()
	spans = append([]*Span(nil), t.done...)
	marks = append([]markRec(nil), t.marks...)
	tracks = append([]string(nil), t.trackNames...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].span < marks[j].span
	})
	return spans, marks, tracks
}

// itoa is strconv.Itoa for small positive ints without the import weight
// in the hot path file.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

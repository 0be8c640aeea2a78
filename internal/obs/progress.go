package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Progress is one point-in-time snapshot of a running synthesis: which
// assay and phase are active, per-phase wall-clock so far, and the live
// state of the hottest loops (B&B search, net routing). Snapshots are
// value-copied on publish; the MILP/Route sub-structs and the Phases map
// are replace-only — a publisher installs a fresh pointer/map per update
// and never mutates one that has already been published — so a snapshot
// handed to a subscriber is immutable and internally consistent even
// while the next update is being built.
type Progress struct {
	Seq   int64  `json:"seq"`
	AtUS  int64  `json:"at_us"`
	Assay string `json:"assay,omitempty"`
	Phase string `json:"phase,omitempty"`

	// Phases holds completed-or-running per-phase wall-clock seconds.
	Phases map[string]float64 `json:"phases,omitempty"`

	MILP   *MILPProgress   `json:"milp,omitempty"`
	Route  *RouteProgress  `json:"route,omitempty"`
	Anneal *AnnealProgress `json:"anneal,omitempty"`
	Race   *RaceProgress   `json:"race,omitempty"`

	Done bool `json:"done,omitempty"`
}

// MILPProgress is the live state of one branch-and-bound solve: the
// anytime incumbent, the best LP bound among open nodes, their gap, and
// the node/warm-start counters that show search throughput.
type MILPProgress struct {
	Solve        int64   `json:"solve"` // bus-unique solve id
	Nodes        int64   `json:"nodes"`
	Incumbent    float64 `json:"incumbent"`
	HasIncumbent bool    `json:"has_incumbent"`
	Bound        float64 `json:"bound"`
	Gap          float64 `json:"gap"`
	WarmResolves int64   `json:"warm_resolves"`
	ColdSolves   int64   `json:"cold_solves"`
	Incumbents   int64   `json:"incumbents"`
}

// AnnealProgress is the live state of the simulated-annealing mapper.
// Replicates run concurrently and publish independently (replace-only,
// last writer wins), so a stream shows an interleaving of replicate
// states rather than a global aggregate; BestMaxPump is the publishing
// replicate's incumbent objective.
type AnnealProgress struct {
	Replicates  int64   `json:"replicates"`
	Replicate   int64   `json:"replicate"` // publishing replicate index
	Iter        int64   `json:"iter"`
	Temp        float64 `json:"temp"`
	BestMaxPump int64   `json:"best_max_pump"`
	HasBest     bool    `json:"has_best"`
	Accepted    int64   `json:"accepted"`
}

// RaceProgress is the live state of a tier of mapping candidates: one
// lane per candidate, in priority order. The slice is replace-only
// like every Progress sub-struct.
type RaceProgress struct {
	Backends []BackendLane `json:"backends"`
}

// BackendLane is one candidate's state within its tier.
type BackendLane struct {
	Backend string  `json:"backend"`
	State   string  `json:"state"` // running, done, failed
	VsMax1  int     `json:"vs_max1,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Won     bool    `json:"won,omitempty"`
}

// RouteProgress is the live state of the routing phase across time-steps.
type RouteProgress struct {
	Nets       int64 `json:"nets"`
	InPlace    int64 `json:"in_place"`
	Failed     int64 `json:"failed"`
	Ripups     int64 `json:"ripups"`
	Wirelength int64 `json:"wirelength"`
}

// ProgressBus is the live progress channel of a Trace: hot loops publish
// snapshot updates through Update, and consumers either poll Latest (the
// /metrics path) or Subscribe for a pushed stream (the /progress SSE
// path). A nil *ProgressBus no-ops everywhere, so publishers call it
// unconditionally; the bus exists only after Trace.EnableProgress.
type ProgressBus struct {
	clock func() time.Duration

	solves atomic.Int64

	mu   sync.Mutex
	cur  Progress
	seen bool
	subs map[int]chan Progress
	next int
}

// newProgressBus wires a bus to the owning trace's clock.
func newProgressBus(clock func() time.Duration) *ProgressBus {
	return &ProgressBus{clock: clock, subs: map[int]chan Progress{}}
}

// NextSolve hands out a bus-unique id for one B&B solve, so interleaved
// concurrent solves can be told apart in the stream.
func (b *ProgressBus) NextSolve() int64 {
	if b == nil {
		return 0
	}
	return b.solves.Add(1)
}

// Update applies mut to the current snapshot, stamps it with the next
// sequence number and the trace clock, and fans it out to subscribers.
// mut must follow the replace-only contract documented on Progress: set
// sub-struct pointers and maps to freshly built values, never mutate the
// ones already present.
func (b *ProgressBus) Update(mut func(*Progress)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	mut(&b.cur)
	b.cur.Seq++
	b.cur.AtUS = b.clock().Microseconds()
	b.seen = true
	snap := b.cur
	for _, ch := range b.subs {
		// Non-blocking, drop-oldest: a slow subscriber loses
		// intermediate snapshots, never stalls the publisher.
		for {
			select {
			case ch <- snap:
			default:
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
	}
	b.mu.Unlock()
}

// Latest returns the most recent snapshot; ok is false before the first
// Update.
func (b *ProgressBus) Latest() (snap Progress, ok bool) {
	if b == nil {
		return Progress{}, false
	}
	b.mu.Lock()
	snap, ok = b.cur, b.seen
	b.mu.Unlock()
	return snap, ok
}

// Subscribers reports the number of attached subscriptions. Tests and
// publishers that want to skip building expensive snapshots when nobody
// listens can poll it; Latest-based consumers do not register.
func (b *ProgressBus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a snapshot stream with the given channel capacity
// (minimum 1). The current snapshot, if any, is pre-queued so a late
// subscriber sees state immediately. cancel unregisters and closes the
// channel; it is safe to call more than once.
func (b *ProgressBus) Subscribe(buf int) (<-chan Progress, func()) {
	if b == nil {
		ch := make(chan Progress)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Progress, buf)
	b.mu.Lock()
	id := b.next
	b.next++
	b.subs[id] = ch
	if b.seen {
		ch <- b.cur
	}
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, id)
			b.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds on the bus. Kept as strings because they go straight to
// NDJSON/SSE; the engine publishes events only at boundaries, so the
// strings never touch the hop loop.
const (
	KindDelivery = "delivery" // a sampled host delivery
	KindEvent    = "event"    // an event detection
	KindSwap     = "swap"     // a swap phase transition (stage/flip/drain/retire)
	KindStats    = "stats"    // a chunk-boundary stats delta
	KindTrace    = "trace"    // a stitched packet journey
	KindMeta     = "meta"     // stream metadata (subscribe banner, heartbeats)
	KindAlert    = "alert"    // a watchdog alert transition (raise/clear)
	KindShutdown = "shutdown" // terminal event: the daemon is shutting down
)

// StatsDelta is the payload of a KindStats event: what changed since
// the previous boundary the engine published from.
type StatsDelta struct {
	Generations int64 `json:"generations"`
	Hops        int64 `json:"hops"`
	Injections  int64 `json:"injections"`
	Deliveries  int64 `json:"deliveries"`
	RuleDrops   int64 `json:"rule_drops"`
	TTLDrops    int64 `json:"ttl_drops"`
	Events      int64 `json:"events"`
	DrainedHops int64 `json:"drained_hops"`
	Pending     int64 `json:"pending"`
	DeliveryLog int64 `json:"delivery_log"`
}

// Event is one record on the ops feed. It is a flat union over all
// kinds: every event carries Seq/TNs/Kind, and Gen/Epoch are always
// serialized (a watcher auditing a swap needs "epoch":0 to be visible,
// not omitted). Kind-specific fields are pointers/slices left nil when
// absent.
type Event struct {
	Seq   int64  `json:"seq"`
	TNs   int64  `json:"t_ns"`
	Kind  string `json:"kind"`
	Gen   int64  `json:"gen"`
	Epoch int    `json:"epoch"`

	// KindDelivery, KindEvent
	Version   int            `json:"version,omitempty"`
	Host      string         `json:"host,omitempty"`
	Switch    int            `json:"switch,omitempty"`
	PacketSeq int64          `json:"packet_seq,omitempty"`
	Branch    int32          `json:"branch,omitempty"`
	Events    []int          `json:"events,omitempty"`
	Fields    map[string]int `json:"fields,omitempty"`

	// KindSwap
	Phase     string  `json:"phase,omitempty"` // stage|flip|drain|retire
	From      int     `json:"from,omitempty"`
	To        int     `json:"to,omitempty"`
	Inflight  int64   `json:"inflight,omitempty"`
	CompileMS float64 `json:"compile_ms,omitempty"`

	// KindStats
	Stats *StatsDelta `json:"stats,omitempty"`

	// KindAlert (Phase carries raise|clear, Note the alert name)
	Alert *Alert `json:"alert,omitempty"`

	// KindTrace
	Trace *Journey `json:"trace,omitempty"`

	// KindMeta
	Note    string `json:"note,omitempty"`
	Dropped int64  `json:"dropped,omitempty"` // cumulative drops for this subscriber
}

// Sub is one subscriber's bounded feed. Read events from C; call Close
// to unsubscribe (after which C is closed).
type Sub struct {
	C       chan Event
	bus     *Bus
	id      int64
	kinds   map[string]bool // nil = all kinds
	dropped atomic.Int64
}

// Dropped returns how many events this subscriber has lost to
// backpressure so far.
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Close unsubscribes and closes C. Safe to call once; concurrent with
// Publish.
func (s *Sub) Close() {
	s.bus.mu.Lock()
	if _, ok := s.bus.subs[s.id]; ok {
		delete(s.bus.subs, s.id)
		close(s.C)
	}
	s.bus.mu.Unlock()
}

// Bus fans events out to subscribers without ever blocking the
// publisher: each subscriber owns a bounded buffered channel, and an
// event that finds a full buffer is dropped and counted (per-subscriber
// and bus-wide) rather than enqueued. There is no replay buffer — a
// subscriber sees only events published after it subscribed, so a
// stream can never serve records from an epoch retired before the
// subscription existed.
type Bus struct {
	mu     sync.Mutex
	subs   map[int64]*Sub
	nextID int64

	seq     atomic.Int64
	dropped atomic.Int64 // bus-wide drops across all subscribers

	// now stamps TNs on published events; replaceable in tests.
	now func() int64
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{
		subs: make(map[int64]*Sub),
		now:  func() int64 { return time.Now().UnixNano() },
	}
}

// Subscribe registers a consumer with the given buffer capacity
// (minimum 1) receiving only the listed kinds (none = all kinds).
func (b *Bus) Subscribe(buf int, kinds ...string) *Sub {
	if buf < 1 {
		buf = 1
	}
	s := &Sub{C: make(chan Event, buf), bus: b}
	if len(kinds) > 0 {
		s.kinds = make(map[string]bool, len(kinds))
		for _, k := range kinds {
			s.kinds[k] = true
		}
	}
	b.mu.Lock()
	b.nextID++
	s.id = b.nextID
	b.subs[s.id] = s
	b.mu.Unlock()
	return s
}

// Subscribers returns the current subscriber count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	return n
}

// Dropped returns the cumulative bus-wide drop count.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Active reports whether any subscriber is listening — publishers can
// skip building payloads when nobody is watching.
func (b *Bus) Active() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	return n > 0
}

// Publish stamps the event (Seq, TNs) and offers it to every
// subscriber. It never blocks: a full subscriber buffer drops the
// event and bumps the drop counters. Returns the stamped sequence
// number.
func (b *Bus) Publish(ev Event) int64 {
	ev.Seq = b.seq.Add(1)
	if ev.TNs == 0 {
		ev.TNs = b.now()
	}
	b.mu.Lock()
	for _, s := range b.subs {
		if s.kinds != nil && !s.kinds[ev.Kind] {
			continue
		}
		select {
		case s.C <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
	return ev.Seq
}

package obs

import "slices"

// Packet journey tracing. A sampled injection gets a trace ID; the hop
// loop appends one flat HopRec per consumed packet copy (and one per
// delivery) into a preallocated per-worker ring with plain writes; the
// engine flushes the rings at chunk boundaries, where the tracer
// stitches records into complete journeys by active-copy counting:
//
//	active := 1                      // the injected packet
//	forward/drop rec: active += Out-1 // consumed one copy, emitted Out
//	deliver rec:      informational   // the consuming rec already counted it
//
// When active reaches zero every copy of the journey has been accounted
// for and the journey is emitted. A journey whose records were lost to
// ring overflow never converges; it is evicted after staleGens
// generations and emitted with Truncated set.

// HopKind classifies one trace record.
type HopKind uint8

const (
	// HopForward: the copy was forwarded; Out ring-bound copies emitted
	// (deliveries excluded — they get their own HopDeliver records).
	HopForward HopKind = iota
	// HopDeliver: one emitted copy was delivered to Host. Informational;
	// the emitting HopForward record carries the active-count effect.
	HopDeliver
	// HopTTLDrop: the copy was discarded by the forwarding-loop TTL.
	HopTTLDrop
	// HopRuleDrop: the copy was dropped by a default-drop lookup, or
	// every emission left the modeled network.
	HopRuleDrop
	// HopStale: the copy was stamped by an epoch with no live table
	// (retired epoch, or a switch absent from the configuration).
	HopStale
)

var hopKindNames = [...]string{
	HopForward:  "forward",
	HopDeliver:  "deliver",
	HopTTLDrop:  "ttl_drop",
	HopRuleDrop: "drop",
	HopStale:    "stale",
}

// String returns the record kind's wire name.
func (k HopKind) String() string {
	if int(k) < len(hopKindNames) {
		return hopKindNames[k]
	}
	return "unknown"
}

// HopRec is one flat trace record, sized and shaped for a plain-store
// append on the hop loop (no pointers except the Host string header,
// which is only set on deliver records and copies without allocating).
type HopRec struct {
	Trace   int32
	Kind    HopKind
	Switch  int32 // switch ID (not index)
	InPort  int32
	Rank    int32 // winning rule rank; -1 when no rule matched
	Out     int32 // ring-bound copies emitted (HopForward)
	Branch  int32
	Epoch   int32
	Version int32
	Gen     int64
	Seq     int64
	Host    string // HopDeliver only
}

// JHop is one journey hop in wire form.
type JHop struct {
	Kind    string `json:"kind"`
	Switch  int32  `json:"switch"`
	InPort  int32  `json:"in_port"`
	Rank    int32  `json:"rank"`
	Out     int32  `json:"out,omitempty"`
	Branch  int32  `json:"branch"`
	Epoch   int32  `json:"epoch"`
	Version int32  `json:"version"`
	Gen     int64  `json:"gen"`
	Seq     int64  `json:"seq"`
	Host    string `json:"host,omitempty"`
}

// Journey is one stitched packet trace: the sampled injection's
// identity plus every hop record of every copy, in the canonical
// (Gen, Seq, Kind, Branch) order.
type Journey struct {
	ID        int64  `json:"id"`
	Host      string `json:"host"` // injection host
	Gen       int64  `json:"gen"`  // injection generation
	Seq       int64  `json:"seq"`  // injection sequence number
	Epoch     int    `json:"epoch"`
	Version   int    `json:"version"`
	Hops      []JHop `json:"hops"`
	Truncated bool   `json:"truncated,omitempty"`
}

// TraceShard is one worker's preallocated record ring. Add is a plain
// store — the shard must be written by exactly one goroutine between
// flushes, exactly like a metrics Shard.
type TraceShard struct {
	recs  []HopRec
	n     int
	drops int64
}

// Add appends a record, dropping (and counting) on overflow. Never
// allocates.
func (s *TraceShard) Add(r HopRec) {
	if s.n < len(s.recs) {
		s.recs[s.n] = r
		s.n++
		return
	}
	s.drops++
}

// Tracer bounds and defaults.
const (
	// DefaultSample traces one injection in 64.
	DefaultSample = 64
	// traceRingCap is each worker ring's record capacity per flush window.
	traceRingCap = 4096
	// maxPending bounds in-flight journeys; Sample declines beyond it.
	maxPending = 1024
	// staleGens evicts a journey that has not converged within this many
	// generations of its injection (records lost to ring overflow).
	staleGens = 4096
)

// pendingJourney is one journey being stitched. Records stay in flat
// form until completion, when they are sorted into canonical order and
// converted to wire form once.
type pendingJourney struct {
	j      *Journey
	recs   []HopRec
	active int32
}

// Tracer samples injections and stitches their journeys. Sample and
// Flush run in serial engine contexts (injection boundaries and chunk
// boundaries respectively); only TraceShard.Add runs on worker hot
// paths.
type Tracer struct {
	every   int64 // sample every Nth injection
	seen    int64
	nextID  int64
	shards  []*TraceShard
	pending map[int32]*pendingJourney
	orphans int64 // records whose journey was already evicted
}

// NewTracer builds a tracer sampling every `every`-th injection
// (<=0 uses DefaultSample) with `workers` preallocated shards.
func NewTracer(every, workers int) *Tracer {
	if every <= 0 {
		every = DefaultSample
	}
	t := &Tracer{every: int64(every), pending: make(map[int32]*pendingJourney)}
	t.EnsureShards(workers)
	return t
}

// EnsureShards grows the shard set to at least n.
func (t *Tracer) EnsureShards(n int) {
	for len(t.shards) < n {
		t.shards = append(t.shards, &TraceShard{recs: make([]HopRec, traceRingCap)})
	}
}

// Shard returns worker i's record ring.
func (t *Tracer) Shard(i int) *TraceShard { return t.shards[i] }

// Pending returns the number of journeys currently being stitched.
func (t *Tracer) Pending() int { return len(t.pending) }

// Orphans returns how many hop records arrived after their journey was
// already evicted (cumulative). Serial context only, like Flush.
func (t *Tracer) Orphans() int64 { return t.orphans }

// Sample decides whether this injection is traced, returning its trace
// ID (0 = untraced). Serial context only (the engine injects at
// boundaries).
func (t *Tracer) Sample(host string, seq, gen int64, epoch, version int) int32 {
	t.seen++
	if t.seen%t.every != 0 || len(t.pending) >= maxPending {
		return 0
	}
	t.nextID++
	id := int32(t.nextID)
	t.pending[id] = &pendingJourney{
		j: &Journey{
			ID: t.nextID, Host: host, Gen: gen, Seq: seq,
			Epoch: epoch, Version: version,
		},
		active: 1,
	}
	return id
}

// Flush drains every shard ring, folds the records into their pending
// journeys, and returns the journeys that completed (or aged out, with
// Truncated set) plus the number of records dropped to ring overflow
// since the last flush. gen is the engine's current generation. Serial
// context only; shard writers must be quiescent.
func (t *Tracer) Flush(gen int64) (done []*Journey, recDrops int64) {
	for _, s := range t.shards {
		for i := 0; i < s.n; i++ {
			r := &s.recs[i]
			pj, ok := t.pending[r.Trace]
			if !ok {
				t.orphans++
				continue
			}
			pj.recs = append(pj.recs, *r)
			if r.Kind != HopDeliver {
				pj.active += r.Out - 1
			}
		}
		s.n = 0
		recDrops += s.drops
		s.drops = 0
	}
	var doneP []*pendingJourney
	for id, pj := range t.pending {
		if pj.active <= 0 {
			doneP = append(doneP, pj)
			delete(t.pending, id)
		} else if gen-pj.j.Gen > staleGens {
			pj.j.Truncated = true
			doneP = append(doneP, pj)
			delete(t.pending, id)
		}
	}
	// The pending map's iteration order is not deterministic; the
	// journey IDs are.
	slices.SortFunc(doneP, func(a, b *pendingJourney) int { return int(a.j.ID - b.j.ID) })
	for _, pj := range doneP {
		// Canonical hop order: generation, then the copy's seq within it,
		// then record kind (the consuming record ahead of its deliveries),
		// then emission branch — a unique, worker-count-independent key.
		slices.SortFunc(pj.recs, func(a, b HopRec) int {
			if a.Gen != b.Gen {
				return int(a.Gen - b.Gen)
			}
			if a.Seq != b.Seq {
				return int(a.Seq - b.Seq)
			}
			if a.Kind != b.Kind {
				return int(a.Kind) - int(b.Kind)
			}
			return int(a.Branch - b.Branch)
		})
		pj.j.Hops = make([]JHop, len(pj.recs))
		for i := range pj.recs {
			r := &pj.recs[i]
			pj.j.Hops[i] = JHop{
				Kind: r.Kind.String(), Switch: r.Switch, InPort: r.InPort,
				Rank: r.Rank, Out: r.Out, Branch: r.Branch,
				Epoch: r.Epoch, Version: r.Version, Gen: r.Gen, Seq: r.Seq,
				Host: r.Host,
			}
		}
		done = append(done, pj.j)
	}
	return done, recDrops
}

package dataplane

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
	"eventnet/internal/topo"
)

// qpkt is an in-flight packet inside the engine, in the flat interned
// representation: vals holds the value of every schema field whose
// presence bit is set (indices are relative to the packet's epoch's
// Schema), and inert is the packet's share of the immutable set of
// ingress fields outside the schema, common to every copy of the
// injection (zero when there are none) — no rule can test or write
// those, so they are only read again at the egress conversion. Field
// writes on the hop loop mutate vals in place; a fresh array is taken
// (from the worker's free list) only when one rule emission fans out
// into several copies.
//
// seq totally orders the packets of a generation (assigned
// deterministically at the generation barrier); branch distinguishes the
// copies one rule emission produced; epoch names the program generation
// whose rules must process the packet (per-packet consistency across live
// swaps: the pair (epoch, version) pins the packet to one configuration
// of one program for its whole journey).
type qpkt struct {
	vals    []int32
	pres    uint64
	inert   inertRef
	inPort  int
	epoch   int
	version int
	digest  nes.Set
	seq     int64
	branch  int32
	hops    int32 // switch-hops taken so far (TTL against forwarding loops)
	tns     int64 // injection timestamp (ns), 0 when metrics are off
	trace   int32 // journey trace ID, 0 = untraced (see internal/obs)
}

// ring is a growable ring buffer of packets: each switch's ingress queue.
// The engine's generation barrier makes every ring single-producer (the
// merge step) single-consumer (the owning worker), so no locking is
// needed; the barrier's happens-before edge publishes the contents.
// Capacities are 8·2^k (push), so positions wrap with a mask.
type ring struct {
	buf        []qpkt
	head, tail int // tail is one past the last element; len = tail-head
}

func (r *ring) len() int { return r.tail - r.head }

func (r *ring) push(p *qpkt) {
	if r.tail-r.head == len(r.buf) {
		grown := make([]qpkt, max(8, 2*len(r.buf)))
		n := r.copyOut(grown)
		r.buf, r.head, r.tail = grown, 0, n
	}
	r.buf[r.tail&(len(r.buf)-1)] = *p
	r.tail++
}

// peekRef returns the head packet in place, without dequeuing: the hop
// loop processes it through the pointer (it only appends to worker
// outboxes, never to the ring it is draining) and then drop releases the
// slot — saving the ~100-byte struct copy a by-value pop would make on
// every hop.
func (r *ring) peekRef() *qpkt { return &r.buf[r.head&(len(r.buf)-1)] }

// drop releases the head slot after peekRef processing.
func (r *ring) drop() {
	r.buf[r.head&(len(r.buf)-1)] = qpkt{} // release references
	r.head++
	if r.head == r.tail {
		r.head, r.tail = 0, 0
	}
}

// copyOut copies the queued packets into dst in order, returning the count.
func (r *ring) copyOut(dst []qpkt) int {
	n := 0
	for i := r.head; i < r.tail; i++ {
		dst[n] = r.buf[i&(len(r.buf)-1)]
		n++
	}
	return n
}

// Stamp is the consistency metadata assigned to a packet at ingress: the
// program epoch and the configuration tag within that program. A packet
// is forwarded exclusively by configuration Version of epoch Epoch.
type Stamp struct {
	Epoch   int
	Version int
}

// Delivery is a packet received by a host, with the stamp that carried it.
type Delivery struct {
	Host   string
	Fields netkat.Packet
	Stamp  Stamp
}

// outEntry is one ring-bound packet emitted during a generation, tagged
// with its destination switch index. Host deliveries never enter the
// outbox: the producing worker appends them straight to its private
// delivery log (worker.dlog), keyed for the lazy canonical merge.
type outEntry struct {
	dst int32 // destination switch index
	pkt qpkt
}

// emitRec records, per parent packet of a generation, where that
// parent's ring-bound emissions live: entries [start, start+n) of worker
// w's outbox, in branch order. The generation's parents have dense seqs
// (genLo, genLo+len(emitBuf)], so the record array is indexed by
// seq-genLo-1 and every slot is written by exactly one worker (the one
// draining the parent's ring) — a disjoint-write index that replaces the
// old ref-sort merge. off is the prefix sum of n over preceding parents,
// filled serially between the drain and consume phases; it makes the
// fresh seq of every pushed packet (seqBase+1+off+j) computable by any
// worker without coordination.
type emitRec struct {
	w     int32
	start int32
	n     int32
	off   int32
}

// Destination kinds of portDest.
const (
	destNone = iota // unconnected port: the packet leaves the modeled network
	destSwitch
	destHost
)

// hostPort is a host's precomputed point of entry: the index of the
// switch it attaches to and the ingress port there. Its position in
// Engine.hosts is the host index flat batches carry.
type hostPort struct {
	name string
	sw   int // switch index
	port int
}

// portDest is the precomputed destination of one (switch, egress port)
// pair: the peer switch's index and ingress port, or the host it
// delivers to.
type portDest struct {
	kind int8
	idx  int32 // destination switch index (destSwitch)
	port int32 // destination ingress port (destSwitch)
	host string
}

// flatDelivery is a host delivery retained in the flat representation;
// the header map is materialized at the accessor boundary
// (Deliveries/DeliveredTo/CopyDeliveries), keeping the hop loop
// allocation-free. seq and branch are the delivery's genealogy key (the
// parent packet's seq and the emitting group index): the lazy merge
// sorts per-worker logs by (seq, branch), which reproduces the canonical
// delivery sequence the eager per-generation merge used to materialize
// (see docs/DATAPLANE.md, "Lazy delivery logs").
type flatDelivery struct {
	host   string
	vals   []int32
	pres   uint64
	inert  inertRef
	schema *Schema
	stamp  Stamp
	seq    int64
	branch int32
}

// materialize converts the retained delivery to its public form.
func (d *flatDelivery) materialize() Delivery {
	return Delivery{Host: d.host, Fields: d.schema.materialize(d.inert, d.vals, d.pres), Stamp: d.stamp}
}

// worker owns a shard of switches during a generation. All its fields are
// private to one goroutine between rendezvous points.
type worker struct {
	id         int32
	outbox     []outEntry
	dlog       []flatDelivery // private delivery log, merged lazily
	free       [][]int32      // recycled flat value arrays
	processed  int64
	drained    int64 // old-epoch hops during a transition
	ttlDropped int64 // packets discarded by the hop TTL

	// Observability state, nil/zero when the layer is off. ms and ts are
	// this worker's private metric and trace shards (plain writes on the
	// hop loop, folded at boundaries); detRing is the preallocated
	// event-detection ring drained into the bus at boundaries; gen
	// mirrors the engine generation for trace records (each worker
	// advances its own copy inside a chunk, so no worker ever reads the
	// engine's e.gen mid-chunk); chunkHops accumulates hops over a chunk
	// for the per-chunk hop-latency fold; dlogFlushed is the
	// delivery-sampling cursor into dlog.
	ms          *obs.Shard
	ts          *obs.TraceShard
	fs          *obs.FlightShard
	swID        []int32 // switch index -> ID, shared immutable (trace records)
	detRing     []detRec
	detN        int
	detDrops    int64
	gen         int64
	chunkHops   int64
	dlogFlushed int

	// pushE/pushN tally this worker's ring pushes by program epoch during
	// the consume phase (at most two epochs are ever live); the serial
	// generation tail folds them into per-epoch inflight counts.
	pushE [2]int
	pushN [2]int64

	// curPS memoizes the last epoch's progState within one generation
	// (reset at the generation start: the progs list only changes at
	// rendezvous points; and at retire, so no memo pins a retired epoch).
	curPS    *progState
	curEpoch int
}

// beginGen resets the worker's per-generation state.
func (wk *worker) beginGen() {
	wk.outbox = wk.outbox[:0]
	wk.curPS, wk.curEpoch = nil, -1
}

// countPush tallies one ring push by program epoch.
func (wk *worker) countPush(epoch int) {
	if wk.pushN[0] == 0 {
		wk.pushE[0] = epoch
	}
	if wk.pushE[0] == epoch {
		wk.pushN[0]++
		return
	}
	if wk.pushN[1] == 0 {
		wk.pushE[1] = epoch
	}
	if wk.pushE[1] == epoch {
		wk.pushN[1]++
		return
	}
	panic("dataplane: more than two live epochs")
}

// maxFreeVals bounds a worker's free list. Injections drain worker 0's
// list, and fan-out copies drain the local one, but a drop-heavy shard
// on a multi-worker engine could otherwise accumulate one array per
// dropped packet forever; past the bound, arrays are released to the GC
// instead.
const maxFreeVals = 1024

// recycle returns a flat value array to the worker's free list.
func (wk *worker) recycle(v []int32) {
	if v != nil && len(wk.free) < maxFreeVals {
		wk.free = append(wk.free, v)
	}
}

// takeVals returns a value array of width n, recycled when one of the
// right width is available (widths differ only across program epochs;
// stale arrays from a retired epoch are dropped as encountered).
func (wk *worker) takeVals(n int) []int32 {
	for k := len(wk.free); k > 0; k = len(wk.free) {
		v := wk.free[k-1]
		wk.free[k-1] = nil
		wk.free = wk.free[:k-1]
		if len(v) == n {
			return v
		}
	}
	return make([]int32, n)
}

// copyVals duplicates a flat value array, preferring a recycled array.
func (wk *worker) copyVals(src []int32) []int32 {
	v := wk.takeVals(len(src))
	copy(v, src)
	return v
}

// Options configure an Engine.
type Options struct {
	// Workers is the number of forwarding workers (shards). Defaults to 1.
	// The delivery sequence is identical for every worker count.
	Workers int
	// DeliveryLog bounds how many deliveries the engine retains (0 =
	// unlimited, the synchronous-mode default for tests and experiments
	// that audit every delivery). A long-running service must set it:
	// when the log exceeds the bound its older half is dropped, and
	// CopyDeliveries keeps addressing by absolute index.
	DeliveryLog int
	// ChunkGens caps how many generations the workers run between
	// boundaries (control requests, async admissions, swap flips,
	// delivery-log trims). Within a chunk workers rendezvous only with
	// each other — never with the supervisor — and a pending boundary
	// request ends the chunk at the next generation edge, so the cap
	// bounds boundary latency without being its normal trigger. 0 means
	// the default (64). Chunking is unobservable in the delivery
	// sequence; the torture tests randomize it to prove that.
	ChunkGens int
	// Obs attaches the observability layer (nil = fully off, zero cost).
	// Hot-path recording is plain per-worker shard writes; folding, bus
	// publication, and trace stitching happen at boundaries. Nothing in
	// the layer can change the delivery sequence.
	Obs *obs.Obs
}

// progState is one live program generation: its NES, its compiled plan
// (tables resolved to dense per-switch-index arrays), its header schema,
// its per-switch precompiled event candidates, and the per-switch event
// views *relative to that program's event universe*.
// During a swap two progStates coexist — the draining old program and
// the current one — and a packet's epoch selects which one forwards it.
// Packets are interned under their epoch's schema at ingress and only
// ever matched by that epoch's flat tables, so the two epochs' schemas
// never need to agree (see docs/DATAPLANE.md on schema soundness across
// swap epochs).
type progState struct {
	epoch    int
	nes      *nes.NES
	plan     *Plan
	schema   *Schema
	flat     [][]*flatTable // [config][switch index]
	evAt     [][]flatEvent  // [switch index] -> candidate events there
	views    []nes.Set      // per switch index, owner-worker mutated
	armed    []armedSlot    // per switch index, owner-worker mutated
	inflight int64          // packets of this epoch queued in rings (maintained at barriers)
}

// armedSlot memoizes, per switch, which local events are enabled and
// consistent from one knowledge set: detection asks this for every hop,
// but the answer only changes when the switch learns something — so the
// expensive part of nes.NewlyEnabled (an Enables/Con family walk per
// candidate event) runs at event-log boundaries, not per packet. The
// slot is owned by the switch's worker, like the view it shadows.
type armedSlot struct {
	valid bool
	known nes.Set
	armed nes.Set
}

// newProgState builds the engine-resident form of a program: the plan's
// compiled tables resolved against the engine's switch indexing, and the
// per-switch event candidate lists with guards lowered to interned
// literals. No table is lowered here — the plan arrives lowered — which
// matters because a flip runs at a generation barrier with every worker
// parked.
func (e *Engine) newProgState(epoch int, plan *Plan) *progState {
	n := plan.nes
	ps := &progState{
		epoch:  epoch,
		nes:    n,
		plan:   plan,
		schema: plan.schema,
		views:  make([]nes.Set, len(e.switches)),
		armed:  make([]armedSlot, len(e.switches)),
	}
	ps.flat = make([][]*flatTable, len(plan.flats))
	for ci := range plan.flats {
		row := make([]*flatTable, len(e.switches))
		for sw, ft := range plan.flats[ci] {
			if i, ok := e.swIdx[sw]; ok {
				row[i] = ft
			}
		}
		ps.flat[ci] = row
	}
	ps.evAt = make([][]flatEvent, len(e.switches))
	for _, ev := range n.Events {
		i, ok := e.swIdx[ev.Loc.Switch]
		if !ok {
			continue
		}
		if fe, live := lowerEvent(ev, plan.schema); live {
			ps.evAt[i] = append(ps.evAt[i], fe)
		}
	}
	return ps
}

// detect is nes.NewlyEnabled on the flat form: the per-switch candidate
// list restricts the scan to events located here (preserving ascending
// event order, so the result is identical), guard evaluation runs on
// interned indices, and the enabled-and-consistent filter comes from the
// per-switch armed memo. Whether e joins the result is decided per event
// against `known` alone (exactly as NewlyEnabled: the out-set check there
// is pure deduplication, and each candidate appears once here), so
// factoring the Enables/Con part through the memo cannot change the
// result. Steady state — no new knowledge, no firing event — the hop
// performs no allocation.
func (ps *progState) detect(swIdx, inPort int, vals []int32, pres uint64, known nes.Set) nes.Set {
	cands := ps.evAt[swIdx]
	if len(cands) == 0 {
		return nes.Empty
	}
	sl := &ps.armed[swIdx]
	if !sl.valid || sl.known != known {
		sl.known, sl.armed, sl.valid = known, ps.nes.ArmedFrom(known), true
	}
	if sl.armed == nes.Empty {
		return nes.Empty
	}
	out := nes.Empty
	for ci := range cands {
		fe := &cands[ci]
		if fe.port != inPort || !sl.armed.Has(fe.id) || out.Has(fe.id) {
			continue
		}
		if fe.matches(vals, pres) {
			out = out.With(fe.id)
		}
	}
	return out
}

// SwapSpec describes a staged program replacement.
type SwapSpec struct {
	// Plan is the incoming program, lowered (PlanFor): the flip installs
	// it and lowers nothing while every worker is parked.
	Plan *Plan
	// MapEvent maps old-program event IDs to new-program event IDs (-1 =
	// no counterpart); len must equal the old program's event count. A nil
	// map carries no knowledge across the swap.
	MapEvent []int
}

// SwapStats reports what one completed swap did.
type SwapStats struct {
	StagedAt, FlipAt, RetiredAt time.Time
	FlipGen, RetireGen          int64 // engine generation numbers
	// TransitionHops is the number of switch-hops executed between flip
	// and retire (both epochs); DrainedHops counts only old-epoch hops.
	TransitionHops int64
	DrainedHops    int64
	// CarriedEvents is the total event knowledge admitted into the new
	// program's switch views at the flip barrier (summed over switches).
	CarriedEvents int
}

// Swap is the handle for one staged program replacement. Done is closed
// when the old program has fully drained and been retired; Stats is valid
// after Done.
type Swap struct {
	done  chan struct{}
	stats SwapStats
}

// Done returns a channel closed when the swap has completed.
func (s *Swap) Done() <-chan struct{} { return s.done }

// Stats returns the swap's statistics; call only after Done.
func (s *Swap) Stats() SwapStats { return s.stats }

// Engine is the sharded forwarding engine: per-switch state (event view,
// ingress ring) sharded over worker goroutines, processing packets in
// bulk-synchronous generations (one generation = every queued packet
// forwarded one hop).
//
// The tagged semantics of Section 4.1 run on the fast path exactly as in
// the Figure 7 machine: a packet is forwarded by the configuration its
// tag names (never the switch's current view), locally detected events
// update the switch's view immediately, and every emitted copy gossips
// the digest digest ∪ oldView ∪ newlyEnabled. Because forwarding depends
// only on the packet's own tag and fields, and each switch's queue is
// merged into a deterministic order at the generation barrier, the
// delivery sequence is bit-identical for any worker count — sharding
// changes wall-clock time, never behavior.
//
// On top of the per-NES tags the engine supports *live program swaps*
// (StageSwap): packets additionally carry a program epoch, the engine
// keeps one progState per live epoch, and a two-phase discipline — flip
// ingress tagging at a generation barrier, drain the old epoch, retire —
// replaces the whole program without pausing forwarding. See
// docs/CONTROLLER.md.
//
// The engine has two driving modes. In synchronous mode (the original
// API: Inject, Run) the caller owns the engine between calls and nothing
// is concurrent. In served mode (Start) a supervisor goroutine runs
// generations continuously; interaction goes through InjectAsync, Do,
// Snapshot and Quiesce, all of which are applied atomically at generation
// barriers. Stop shuts the supervisor down idempotently and leak-free.
type Engine struct {
	workers  int
	switches []int            // sorted switch IDs; shard w owns indices i ≡ w (mod workers)
	swIdx    map[int]int      // switch ID -> index
	hosts    []hostPort       // host index -> point of entry, in Topo.Hosts order
	hostIdx  map[string]int32 // host name -> host index (the dense index the flat hop loop carries, not the topo.Host)
	rings    []*ring          // per switch index, filled at barriers
	hops     []int64          // per switch index, switch-hops executed (owner-worker mutated)

	progs []*progState // live program epochs; the last is current for ingress
	swap  *swapHandle  // active transition, nil otherwise

	// Hot-path topology lookups, precomputed as dense per-switch-index,
	// per-egress-port destination tables: even one map lookup per emitted
	// packet (which is what Topology.LinkFrom and Across cost) is
	// measurable at line rate.
	dests [][]portDest

	seq          int64
	gen          int64
	processed    int64
	deliveries   []flatDelivery
	deliveryBase int // absolute index of deliveries[0] (log trimming)
	deliveryCap  int
	dropped      int64 // packets discarded by the hop TTL
	ws           []*worker

	// Chunked-generation state. ringLo/genLo delimit the dense seq window
	// of the packets currently queued in rings — the next generation's
	// parents are exactly seqs (ringLo, seq] — and emitBuf is the
	// per-parent emission index of the generation in flight (see emitRec).
	// genPushes is the generation's ring-bound emission count, computed by
	// the serial prefix pass. chunkGens caps generations per chunk;
	// boundReq asks the running chunk to end at the next generation edge;
	// ph is the worker rendezvous.
	ringLo    int64
	genLo     int64
	emitBuf   []emitRec
	genPushes int64
	chunkGens int
	boundReq  atomic.Bool
	ph        phaser

	// Observability (all nil when Options.Obs was nil). nowNs is a
	// coarse wall-clock cache for delivery-latency stamps: written only
	// in serial phases (boundaries and every 8th generation tail), read
	// by workers through the phaser's happens-before edges, so the hop
	// loop never calls time.Now. lastPub holds the counter values of the
	// previous stats-delta bus event.
	eobs    *obs.Obs
	met     *obs.Metrics
	bus     *obs.Bus
	tracer  *obs.Tracer
	flight  *obs.Flight
	watch   *obs.Watchdog
	dsample int // publish every Nth delivery on the bus (0 = none)
	nowNs   int64
	dcount  int64 // deliveries seen by the boundary sampler
	lastPub [obsDeltaCounters]int64
	lastFl  [obsDeltaCounters]int64 // previous flight stats record's counters

	// Served-mode coordination. wmu guards inbox, ctl, serving, stopping
	// and idle; cond (on wmu) wakes the supervisor and Quiesce/waiters.
	// The inbox is a queue of flat batches (ingress.go) holding inboxPkts
	// packets, at most maxInboxPackets; admitting is the supervisor's half
	// of its double buffer, slots its field-id -> schema slot scratch,
	// versions the per-call ingress-tag scratch (versionAt), and batches
	// the pool filled batches return to.
	wmu       sync.Mutex
	cond      *sync.Cond
	inbox     []*Batch
	inboxPkts int
	admitting []*Batch
	slots     []int16
	versions  []int32
	batches   sync.Pool
	ctl       []ctlReq
	serving   bool
	stopping  bool
	idle      bool
	started   bool
	doneCh    chan struct{}
}

// swapHandle is the engine-internal state of an active transition.
type swapHandle struct {
	spec SwapSpec
	s    *Swap
}

type ctlReq struct {
	f    func()
	done chan struct{}
}

// NewEngine builds an engine over a compiled NES and its topology.
func NewEngine(n *nes.NES, t *topo.Topology, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = 1
	}
	e := &Engine{
		workers:     w,
		swIdx:       map[int]int{},
		switches:    append([]int{}, t.Switches...),
		deliveryCap: opts.DeliveryLog,
		doneCh:      make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.wmu)
	slices.Sort(e.switches)
	for i, sw := range e.switches {
		e.swIdx[sw] = i
	}
	e.rings = make([]*ring, len(e.switches))
	for i := range e.rings {
		e.rings[i] = &ring{}
	}
	e.hops = make([]int64, len(e.switches))
	e.versions = make([]int32, len(e.switches))
	e.dests = make([][]portDest, len(e.switches))
	hosts := map[int]topo.Host{}
	e.hostIdx = make(map[string]int32, len(t.Hosts))
	for _, h := range t.Hosts {
		hosts[h.ID] = h
		e.hostIdx[h.Name] = int32(len(e.hosts))
		e.hosts = append(e.hosts, hostPort{name: h.Name, sw: e.swIdx[h.Attach.Switch], port: h.Attach.Port})
	}
	for _, lk := range t.AllLinks() {
		i, ok := e.swIdx[lk.Src.Switch]
		if !ok || lk.Src.Port < 0 {
			continue
		}
		for len(e.dests[i]) <= lk.Src.Port {
			e.dests[i] = append(e.dests[i], portDest{})
		}
		d := &e.dests[i][lk.Src.Port]
		if h, isHost := hosts[lk.Dst.Switch]; isHost {
			d.kind = destHost
			d.host = h.Name
			d.port = int32(lk.Dst.Port)
		} else {
			d.kind = destSwitch
			d.idx = int32(e.swIdx[lk.Dst.Switch])
			d.port = int32(lk.Dst.Port)
		}
	}
	e.progs = []*progState{e.newProgState(0, PlanFor(n))}
	e.ws = make([]*worker, w)
	for i := range e.ws {
		e.ws[i] = &worker{id: int32(i)}
	}
	e.chunkGens = opts.ChunkGens
	if e.chunkGens <= 0 {
		e.chunkGens = defaultChunkGens
	}
	if opts.Obs.Enabled() {
		e.attachObs(opts.Obs)
	}
	return e
}

// attachObs wires the observability layer: every worker gets its
// preallocated metric shard, trace ring, and detection ring up front, so
// nothing on the hot path ever allocates observability state.
func (e *Engine) attachObs(o *obs.Obs) {
	e.eobs = o
	e.met = o.Metrics
	e.bus = o.Bus
	e.tracer = o.Trace
	e.flight = o.Flight
	e.watch = o.Watch
	e.dsample = o.DeliverySample
	if e.met != nil {
		e.met.EnsureShards(e.workers)
	}
	if e.tracer != nil {
		e.tracer.EnsureShards(e.workers)
	}
	if e.flight != nil {
		e.flight.EnsureShards(e.workers)
	}
	swID := make([]int32, len(e.switches))
	for i, sw := range e.switches {
		swID[i] = int32(sw)
	}
	for i, wk := range e.ws {
		wk.swID = swID
		if e.met != nil {
			wk.ms = e.met.Shard(i)
		}
		if e.tracer != nil {
			wk.ts = e.tracer.Shard(i)
		}
		if e.flight != nil {
			wk.fs = e.flight.Shard(i)
		}
		if e.bus != nil {
			wk.detRing = make([]detRec, detRingCap)
		}
	}
	e.nowNs = time.Now().UnixNano()
}

// cur returns the program current for ingress stamping.
func (e *Engine) cur() *progState { return e.progs[len(e.progs)-1] }

// prog returns the progState for an absolute epoch (nil if retired or
// unknown).
func (e *Engine) prog(epoch int) *progState {
	i := epoch - e.progs[0].epoch
	if i < 0 || i >= len(e.progs) {
		return nil
	}
	return e.progs[i]
}

// maxGenerations bounds Run against forwarding loops.
const maxGenerations = 1 << 16

// maxPacketHops is the per-packet TTL: a packet that has taken this many
// switch-hops is discarded at its next pop. No legitimate journey in the
// supported (loop-free-ETS) fragment approaches it — topology diameters
// are single digits — but a submitted program whose *rules* forward in a
// topology cycle would otherwise keep one packet circulating forever,
// and in served mode that would wedge the daemon: the serve loop runs
// generations while packets are pending, a draining epoch could never
// retire, and Quiesce would never return. The TTL bounds every packet's
// lifetime, so quiescence (and swap drains) always arrive.
const maxPacketHops = 1024

// pending returns the number of packets queued in the rings.
func (e *Engine) pending() int {
	n := 0
	for _, r := range e.rings {
		n += r.len()
	}
	return n
}

// Run forwards every queued packet to quiescence: generations of one hop
// each, switches sharded over the configured workers, run in chunks of
// up to ChunkGens generations between boundaries. Control requests
// staged while the engine was idle (e.g. StageSwap in synchronous mode)
// are applied at the first boundary.
func (e *Engine) Run() error {
	total := 0
	for {
		e.boundary()
		if e.pending() == 0 {
			return nil
		}
		if total >= maxGenerations {
			return fmt.Errorf("dataplane: no quiescence within %d generations", maxGenerations)
		}
		total += e.runChunk(min(e.chunkGens, maxGenerations-total))
	}
}

// Step runs at most n generations and returns the number executed,
// stopping early at quiescence. Synchronous mode only. It is the
// deterministic mid-flight hook: tests stage swaps between Step calls to
// place the flip boundary at an exact point of a packet's journey.
func (e *Engine) Step(n int) int {
	ran := 0
	for ran < n {
		e.boundary()
		if e.pending() == 0 {
			break
		}
		ran += e.runChunk(min(n-ran, e.chunkGens))
	}
	return ran
}

// boundary is the between-chunks point: queued control closures run,
// swap bookkeeping advances, (in served mode) asynchronous injections
// are admitted, and a bounded delivery log over its high-water mark is
// folded and trimmed. Everything here sees quiescent engine state.
func (e *Engine) boundary() {
	e.boundReq.Store(false)
	e.runControl()
	e.retireIfDrained()
	e.admitInbox()
	if e.deliveryCap > 0 {
		n := 0
		for _, wk := range e.ws {
			n += len(wk.dlog)
		}
		if n > e.deliveryCap/2 {
			e.mergeDeliveries()
		}
	}
	if e.eobs != nil {
		e.flushObs()
	}
}

// runControl executes queued control closures.
func (e *Engine) runControl() {
	for {
		e.wmu.Lock()
		reqs := e.ctl
		e.ctl = nil
		e.wmu.Unlock()
		if len(reqs) == 0 {
			return
		}
		for _, r := range reqs {
			r.f()
			close(r.done)
		}
	}
}

// retireIfDrained completes an active transition once the old epoch has
// no packets left in flight.
func (e *Engine) retireIfDrained() {
	if e.swap == nil || len(e.progs) < 2 {
		return
	}
	old := e.progs[0]
	if old.inflight > 0 {
		return
	}
	// Nothing the engine keeps may outlive the epoch: not the progs
	// backing array, not a worker's memo (the workers are parked here).
	e.progs[0] = nil
	e.progs = e.progs[1:]
	for _, wk := range e.ws {
		wk.curPS = nil
	}
	s := e.swap.s
	s.stats.RetiredAt = time.Now()
	s.stats.RetireGen = e.gen
	e.swap = nil
	if e.met != nil {
		e.met.Inc(obs.CtrSwapRetires)
		e.met.Observe(obs.HistSwapDrainNs, s.stats.RetiredAt.Sub(s.stats.FlipAt).Nanoseconds())
		e.met.SetGauge(obs.GaugeSwapDraining, 0)
	}
	e.swapPhase("retire", 0, e.cur().epoch, s.stats.DrainedHops)
	close(s.done)
}

// swapPhase records one phase of a transition on the bus and in the
// flight recorder (whichever are attached). Serial context only.
func (e *Engine) swapPhase(phase string, from, to int, inflight int64) {
	if e.bus != nil {
		e.bus.Publish(obs.Event{
			Kind: obs.KindSwap, Phase: phase,
			From: from, To: to, Gen: e.gen, Epoch: to, Inflight: inflight,
		})
	}
	if e.flight != nil {
		e.flight.Serial(obs.FlightRec{
			Kind: obs.FlightSwap, Phase: phase,
			From: int32(from), To: int32(to), Epoch: int32(to),
			Gen: e.gen, Seq: e.seq,
		})
	}
}

// drain processes every packet queued at switch index i (the SWITCH rule,
// one hop) on the calling worker. This is the engine's hot loop, and it
// runs entirely on the flat representation: matching, event detection and
// field writes touch only interned indices, value arrays mutate in place
// (copied only when one emission fans out), and every early exit recycles
// the packet's value array — steady state, the loop allocates nothing.
func (e *Engine) drain(wk *worker, i int) {
	r := e.rings[i]
	if r.len() == 0 {
		return
	}
	if wk.ms != nil {
		wk.ms.Observe(obs.HistQueueDepth, int64(r.len()))
	}
	oldEpoch := -1
	var newPS *progState
	if e.swap != nil && len(e.progs) == 2 {
		oldEpoch = e.progs[0].epoch
		newPS = e.progs[1]
	}
	dests := e.dests[i]
	for r.len() > 0 {
		p := r.peekRef()
		rec := &e.emitBuf[p.seq-e.genLo-1]
		rec.w, rec.start = wk.id, int32(len(wk.outbox))
		e.hop(wk, i, dests, p, oldEpoch, newPS)
		rec.n = int32(len(wk.outbox)) - rec.start
		r.drop()
	}
}

// hop forwards one queued packet one switch-hop: the body of the drain
// loop, factored so every early exit releases the ring slot through one
// drop call.
func (e *Engine) hop(wk *worker, i int, dests []portDest, p *qpkt, oldEpoch int, newPS *progState) {
	if p.hops >= maxPacketHops {
		wk.ttlDropped++
		if wk.ms != nil {
			wk.ms.Inc(obs.CtrTTLDrops)
		}
		if p.trace != 0 {
			wk.traceRec(p, i, obs.HopTTLDrop, -1, 0, "")
		}
		wk.recycle(p.vals)
		return // forwarding loop: discard (see maxPacketHops)
	}
	wk.processed++
	e.hops[i]++

	ps := wk.curPS
	if ps == nil || p.epoch != wk.curEpoch {
		ps = e.prog(p.epoch)
		if ps == nil {
			if p.trace != 0 {
				wk.traceRec(p, i, obs.HopStale, -1, 0, "")
			}
			wk.recycle(p.vals)
			return // stamped by a retired epoch; cannot happen post-drain
		}
		wk.curPS, wk.curEpoch = ps, p.epoch
	}

	// Event handling: learn from the digest, detect newly enabled
	// events this packet's arrival matches, update the local view.
	view := ps.views[i]
	known := view.Union(p.digest)
	newly := ps.detect(i, p.inPort, p.vals, p.pres, known)
	ps.views[i] = known.Union(newly)
	outDigest := p.digest.Union(view).Union(newly)
	if newly != nes.Empty {
		// Detection is rare; both records are plain stores, drained at
		// the next boundary.
		if wk.ms != nil {
			wk.ms.Add(obs.CtrEventsFired, int64(newly.Count()))
		}
		if wk.detRing != nil {
			if wk.detN < len(wk.detRing) {
				wk.detRing[wk.detN] = detRec{
					sw: int32(e.switches[i]), epoch: int32(p.epoch),
					version: int32(p.version), seq: p.seq, gen: wk.gen,
					events: newly,
				}
				wk.detN++
			} else {
				wk.detDrops++
			}
		}
		if wk.fs != nil {
			wk.fs.Add(obs.FlightRec{
				Kind: obs.FlightDetect, Switch: int32(e.switches[i]),
				Branch: p.branch, Epoch: int32(p.epoch), Version: int32(p.version),
				Gen: wk.gen, Seq: p.seq, Bits: string(newly),
			})
		}
	}

	// Live knowledge transfer during a transition: an event the old
	// program detects at this switch is admitted into the *new*
	// program's view here too (through the event mapping), so
	// detections made by draining packets are not lost to the
	// successor. Detection happens exactly once per event, at one
	// switch, so this rule together with the flip-time replay is the
	// complete carry-over discipline (docs/CONTROLLER.md).
	if newPS != nil && p.epoch == oldEpoch {
		wk.drained++
		if newly != nes.Empty {
			if mapped := mapEvents(newly, e.swap.spec.MapEvent); mapped != nes.Empty {
				newPS.views[i] = newPS.nes.Admit(newPS.views[i], mapped)
			}
		}
	}

	// Forward with the packet's tagged configuration of its epoch.
	ft := ps.flat[p.version][i]
	if ft == nil {
		if wk.ms != nil {
			wk.ms.Inc(obs.CtrRuleDrops)
		}
		if p.trace != 0 {
			wk.traceRec(p, i, obs.HopStale, -1, 0, "")
		}
		wk.recycle(p.vals)
		return
	}
	ri := ft.lookup(p.vals, p.pres, p.inPort, 0)
	if ri < 0 {
		if wk.ms != nil {
			wk.ms.Inc(obs.CtrRuleDrops)
		}
		if p.trace != 0 {
			wk.traceRec(p, i, obs.HopRuleDrop, -1, 0, "")
		}
		wk.recycle(p.vals)
		return // default drop
	}
	groups := ft.rules[ri].groups
	// Each group applies its writes to the packet *as it arrived*, so
	// the last emitting group inherits p.vals in place and earlier
	// ones copy the pristine array first.
	last := -1
	for gi := range groups {
		if pt := int(groups[gi].outPort); pt >= 0 && pt < len(dests) && dests[pt].kind != destNone {
			last = gi
		}
	}
	if last < 0 {
		if wk.ms != nil {
			wk.ms.Inc(obs.CtrRuleDrops)
		}
		if p.trace != 0 {
			wk.traceRec(p, i, obs.HopRuleDrop, ri, 0, "")
		}
		wk.recycle(p.vals)
		return // drop, or every copy leaves the modeled network
	}
	outStart := len(wk.outbox)
	for gi := 0; gi <= last; gi++ {
		g := &groups[gi]
		pt := int(g.outPort)
		if pt < 0 || pt >= len(dests) {
			continue // unconnected port: leaves the modeled network
		}
		d := &dests[pt]
		if d.kind == destNone {
			continue
		}
		vals := p.vals
		if gi != last {
			vals = wk.copyVals(p.vals)
		}
		for si, fi := range g.setIdx {
			vals[fi] = g.setVal[si]
		}
		if d.kind == destHost {
			// Host deliveries bypass the merge entirely: retention stays
			// flat in the worker's private log, keyed (parent seq, branch)
			// for the lazy canonical sort. The packet's progState is live
			// here, so its schema resolves.
			wk.dlog = append(wk.dlog, flatDelivery{
				host:   d.host,
				vals:   vals,
				pres:   p.pres | g.setMask,
				inert:  p.inert,
				schema: ps.schema,
				stamp:  Stamp{Epoch: p.epoch, Version: p.version},
				seq:    p.seq,
				branch: int32(gi),
			})
			if wk.ms != nil {
				wk.ms.Inc(obs.CtrDeliveries)
				if p.tns != 0 {
					wk.ms.Observe(obs.HistDeliveryNs, e.nowNs-p.tns)
				}
			}
			if wk.fs != nil {
				wk.fs.Add(obs.FlightRec{
					Kind: obs.FlightDeliver, Switch: int32(e.switches[i]),
					Branch: int32(gi), Epoch: int32(p.epoch), Version: int32(p.version),
					Gen: wk.gen, Seq: p.seq, Host: d.host,
				})
			}
			if p.trace != 0 {
				wk.traceRecB(p, i, obs.HopDeliver, ri, 0, int32(gi), d.host)
			}
			continue
		}
		wk.outbox = append(wk.outbox, outEntry{dst: d.idx, pkt: qpkt{
			vals:    vals,
			pres:    p.pres | g.setMask,
			inert:   p.inert,
			inPort:  int(d.port),
			epoch:   p.epoch,
			version: p.version,
			digest:  outDigest,
			seq:     p.seq,
			branch:  int32(gi),
			hops:    p.hops + 1,
			tns:     p.tns,
			trace:   p.trace,
		}})
	}
	if p.trace != 0 {
		wk.traceRec(p, i, obs.HopForward, ri, int32(len(wk.outbox)-outStart), "")
	}
}

// traceRec appends one trace record for the packet being consumed at
// switch index i (the record's Branch is the packet's own branch).
func (wk *worker) traceRec(p *qpkt, i int, kind obs.HopKind, rank int32, out int32, host string) {
	wk.traceRecB(p, i, kind, rank, out, p.branch, host)
}

// traceRecB is traceRec with an explicit branch (deliver records carry
// the emitting group index instead of the packet's branch). The switch
// index is translated to its ID through the worker's engine-shared
// switches slice at flush-readability cost zero: the slice is immutable
// after construction.
func (wk *worker) traceRecB(p *qpkt, i int, kind obs.HopKind, rank int32, out, branch int32, host string) {
	wk.ts.Add(obs.HopRec{
		Trace: p.trace, Kind: kind, Switch: wk.swID[i], InPort: int32(p.inPort),
		Rank: rank, Out: out, Branch: branch,
		Epoch: int32(p.epoch), Version: int32(p.version),
		Gen: wk.gen, Seq: p.seq, Host: host,
	})
}

// mapEvents maps an old-program event set through a MapEvent table.
func mapEvents(s nes.Set, mapEvent []int) nes.Set {
	out := nes.Empty
	for _, ev := range s.Elems() {
		if ev < len(mapEvent) && mapEvent[ev] >= 0 {
			out = out.With(mapEvent[ev])
		}
	}
	return out
}

// StageSwap stages a live program replacement. At the next generation
// barrier the engine installs the new program's plan, computes the new
// per-switch views by canonical event-history replay of the mapped old
// views, and flips ingress stamping to the new epoch; old-epoch packets
// keep draining through the old rules until none remain, at which point
// the old program is retired and the returned handle's Done channel
// closes. Forwarding never pauses. Only one swap may be active at a time.
//
// In synchronous mode the flip applies immediately (the engine is
// quiescent between calls by contract); in served mode it applies at the
// next barrier, and StageSwap returns once it has.
func (e *Engine) StageSwap(spec SwapSpec) (*Swap, error) {
	if spec.Plan == nil {
		return nil, fmt.Errorf("dataplane: StageSwap needs a lowered Plan")
	}
	s := &Swap{done: make(chan struct{})}
	s.stats.StagedAt = time.Now()
	var err error
	e.Do(func() { err = e.flip(spec, s) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// flip runs at a generation barrier: phase one and two of the update.
func (e *Engine) flip(spec SwapSpec, s *Swap) error {
	if e.swap != nil {
		return fmt.Errorf("dataplane: a swap is already in progress")
	}
	old := e.cur()
	if spec.MapEvent != nil && len(spec.MapEvent) != len(old.nes.Events) {
		return fmt.Errorf("dataplane: MapEvent has %d entries for %d old events", len(spec.MapEvent), len(old.nes.Events))
	}
	np := e.newProgState(old.epoch+1, spec.Plan)
	carried := 0
	for i := range np.views {
		if spec.MapEvent != nil {
			np.views[i] = np.nes.Replay(mapEvents(old.views[i], spec.MapEvent))
			carried += np.views[i].Count()
		} else {
			np.views[i] = nes.Empty
		}
	}
	e.progs = append(e.progs, np)
	e.swap = &swapHandle{spec: spec, s: s}
	s.stats.FlipAt = time.Now()
	s.stats.FlipGen = e.gen
	s.stats.CarriedEvents = carried
	if e.met != nil {
		e.met.Inc(obs.CtrSwapFlips)
		e.met.SetGauge(obs.GaugeSwapDraining, 1)
	}
	e.swapPhase("flip", old.epoch, np.epoch, 0)
	e.retireIfDrained() // nothing in flight: flip and retire at one barrier
	if e.swap != nil {
		e.swapPhase("drain", old.epoch, np.epoch, old.inflight)
	}
	return nil
}

// ---- Served mode ----------------------------------------------------

// Start launches the supervisor goroutine: the engine runs generations
// continuously, admitting InjectAsync packets and control requests at
// barriers. Start is idempotent; after Stop the engine stays stopped.
func (e *Engine) Start() {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.started || e.stopping {
		return
	}
	e.started = true
	e.serving = true
	go e.serve()
}

// Stop shuts the supervisor down: a running chunk ends at its next
// generation edge, remaining control requests are honored, queued
// packets stay in the rings, and every engine goroutine exits. Stop is
// idempotent —
// stopping twice, stopping mid-batch, or stopping a never-started engine
// are all safe — and returns only when the supervisor has exited.
func (e *Engine) Stop() {
	e.wmu.Lock()
	if !e.started {
		e.stopping = true // a later Start stays a no-op
		e.wmu.Unlock()
		return
	}
	e.stopping = true
	e.boundReq.Store(true) // end a running chunk at the next generation edge
	e.cond.Broadcast()
	e.wmu.Unlock()
	<-e.doneCh
}

// serve is the supervisor loop: boundaries (control, admissions, swap
// bookkeeping) interleaved with chunks of up to ChunkGens generations.
// Requests arriving mid-chunk raise boundReq, so the chunk ends at the
// next generation edge and boundary latency stays ~one generation.
func (e *Engine) serve() {
	defer close(e.doneCh)
	for {
		e.boundary()
		e.wmu.Lock()
		if e.stopping {
			e.serving = false
			e.cond.Broadcast()
			e.wmu.Unlock()
			e.runControl() // honor requests racing with Stop
			return
		}
		e.wmu.Unlock()
		if e.pending() > 0 {
			e.runChunk(e.chunkGens)
			continue
		}
		// Idle: wait for injections, control requests, or stop.
		e.wmu.Lock()
		for !e.stopping && len(e.inbox) == 0 && len(e.ctl) == 0 {
			e.idle = true
			e.cond.Broadcast()
			e.cond.Wait()
		}
		e.idle = false
		e.wmu.Unlock()
	}
}

// Do runs f atomically with respect to generations: on a serving engine
// it executes at the next barrier (blocking until done), otherwise
// inline. f sees quiescent engine state and may call the synchronous API
// (Inject, StageSwap internals, state accessors).
func (e *Engine) Do(f func()) {
	e.wmu.Lock()
	if !e.serving {
		e.wmu.Unlock()
		f()
		return
	}
	req := ctlReq{f: f, done: make(chan struct{})}
	e.ctl = append(e.ctl, req)
	e.boundReq.Store(true)
	e.cond.Broadcast()
	e.wmu.Unlock()
	<-req.done
}

// Quiesce blocks until the serving engine has no queued packets, no
// pending injections, and no active transition (it returns immediately on
// a non-serving engine, which is quiescent between calls by contract).
func (e *Engine) Quiesce() {
	for {
		e.wmu.Lock()
		if !e.serving {
			e.wmu.Unlock()
			return
		}
		for !(e.idle && len(e.inbox) == 0 && len(e.ctl) == 0) {
			if !e.serving {
				e.wmu.Unlock()
				return
			}
			e.cond.Wait()
		}
		e.wmu.Unlock()
		// The supervisor is idle: confirm nothing is in flight (it only
		// parks when rings are empty and no swap is draining).
		done := true
		e.Do(func() { done = e.pending() == 0 && e.swap == nil })
		if done {
			return
		}
	}
}

// Snapshot is a barrier-consistent view of the engine for monitoring.
type Snapshot struct {
	Epoch      int   // current ingress epoch
	Programs   int   // live program epochs (2 during a transition)
	Swapping   bool  // a transition is draining
	Generation int64 // generations executed
	Pending    int   // packets queued in rings
	Processed  int64 // total switch-hops executed
	Deliveries int   // packets delivered to hosts (total, beyond log retention)
	TTLDropped int64 // packets discarded by the forwarding-loop TTL
	States     int   // configurations of the current program
	Events     int   // events of the current program
	Switches   []SwitchStat
}

// SwitchStat is one switch's live state.
type SwitchStat struct {
	ID    int
	Hops  int64 // switch-hops executed here
	View  []int // current program's event view
	Queue int   // packets queued
}

// Snapshot returns a barrier-consistent snapshot (safe while serving).
func (e *Engine) Snapshot() Snapshot {
	var s Snapshot
	e.Do(func() {
		cp := e.cur()
		delivered := e.deliveryBase + len(e.deliveries)
		for _, wk := range e.ws {
			delivered += len(wk.dlog) // not yet folded; counting stays lazy
		}
		s = Snapshot{
			Epoch:      cp.epoch,
			Programs:   len(e.progs),
			Swapping:   e.swap != nil,
			Generation: e.gen,
			Pending:    e.pending(),
			Processed:  e.processed,
			Deliveries: delivered,
			TTLDropped: e.dropped,
			States:     len(cp.nes.Configs),
			Events:     len(cp.nes.Events),
		}
		for i, sw := range e.switches {
			s.Switches = append(s.Switches, SwitchStat{
				ID:    sw,
				Hops:  e.hops[i],
				View:  cp.views[i].Elems(),
				Queue: e.rings[i].len(),
			})
		}
	})
	return s
}

// mergeDeliveries folds the per-worker delivery logs into the global
// canonical sequence. Each worker appended its shard's deliveries
// lock-free during chunks, keyed (parent seq, branch) — the same
// genealogy keys the old eager merge sorted every generation. Parent
// seqs grow strictly across generations, so everything gathered here
// sorts after everything gathered before: sorting just the new tail
// yields the globally sorted log, and the merged prefix never moves.
// Must run with workers quiescent (synchronous mode, or inside Do).
func (e *Engine) mergeDeliveries() {
	n := 0
	for _, wk := range e.ws {
		n += len(wk.dlog)
	}
	if n == 0 {
		return
	}
	if e.eobs != nil {
		e.flushDeliverySamples() // the sampler's dlog cursors reset below
	}
	start := len(e.deliveries)
	for _, wk := range e.ws {
		e.deliveries = append(e.deliveries, wk.dlog...)
		for i := range wk.dlog {
			wk.dlog[i] = flatDelivery{} // release references
		}
		wk.dlog = wk.dlog[:0]
		wk.dlogFlushed = 0
	}
	tail := e.deliveries[start:]
	// (parent seq, branch) keys are unique per delivery, so the unstable
	// sort is deterministic.
	slices.SortFunc(tail, func(a, b flatDelivery) int {
		if a.seq != b.seq {
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return int(a.branch) - int(b.branch)
	})
	rehomeInert(tail)
	// Trim to the bound (absolute indexing preserved via deliveryBase) so
	// a long-running service does not retain every packet it delivered.
	if e.deliveryCap > 0 && len(e.deliveries) > e.deliveryCap {
		drop := len(e.deliveries) - e.deliveryCap/2
		e.deliveryBase += drop
		e.deliveries = append(e.deliveries[:0], e.deliveries[drop:]...)
	}
}

// maxHomeNames bounds the name table of a delivery-log inert set (names
// are found by linear scan); past it the merge continues in a fresh set.
const maxHomeNames = 256

// rehomeInert copies the inert fields of the deliveries being merged
// into sets of the log's own. An ingress set holds the fields of every
// packet that entered together; on a drop-heavy program a delivery may
// be the only one of hundreds that arrived, and would otherwise keep
// the whole set alive for as long as the log retains it.
func rehomeInert(tail []flatDelivery) {
	n := 0
	for i := range tail {
		n += int(tail[i].inert.hi - tail[i].inert.lo)
	}
	if n == 0 {
		return
	}
	home := &inertSet{pairs: make([]fieldPair, 0, n)}
	var from *inertSet
	var ids []int32 // from's name ids -> home's, -1 until first used
	for i := range tail {
		in := &tail[i].inert
		if in.set == nil {
			continue
		}
		if in.set != from || len(home.names) > maxHomeNames {
			if len(home.names) > maxHomeNames {
				home = &inertSet{pairs: make([]fieldPair, 0, n)}
			}
			from = in.set
			ids = ids[:0]
			for range from.names {
				ids = append(ids, -1)
			}
		}
		lo := len(home.pairs)
		for _, p := range from.pairs[in.lo:in.hi] {
			if ids[p.id] < 0 {
				ids[p.id] = home.nameID(from.names[p.id])
			}
			home.pairs = append(home.pairs, fieldPair{id: ids[p.id], val: p.val})
		}
		n -= len(home.pairs) - lo
		*in = home.since(lo)
	}
}

// CopyDeliveries returns a barrier-consistent copy of the retained
// deliveries from absolute index `from` on (safe while serving), with
// header maps materialized from the flat retention — the egress
// conversion happens here, once per delivery read, not on the hop loop.
// With a bounded delivery log, deliveries older than the retention
// window are gone; Snapshot.Deliveries still counts them.
func (e *Engine) CopyDeliveries(from int) []Delivery {
	var out []Delivery
	e.Do(func() {
		e.mergeDeliveries()
		i := min(max(from-e.deliveryBase, 0), len(e.deliveries))
		out = make([]Delivery, len(e.deliveries)-i)
		for k := range out {
			out[k] = e.deliveries[i+k].materialize()
		}
	})
	return out
}

// ---- Synchronous-mode accessors --------------------------------------

// Deliveries returns every retained delivery, in the engine's
// deterministic delivery order: CopyDeliveries from the start.
func (e *Engine) Deliveries() []Delivery { return e.CopyDeliveries(0) }

// DeliveredTo returns the packets delivered to the named host.
func (e *Engine) DeliveredTo(host string) []netkat.Packet {
	e.mergeDeliveries()
	var out []netkat.Packet
	for i := range e.deliveries {
		if e.deliveries[i].host == host {
			d := &e.deliveries[i]
			out = append(out, d.schema.materialize(d.inert, d.vals, d.pres))
		}
	}
	return out
}

// View returns a switch's current event view (of the current program).
func (e *Engine) View(sw int) nes.Set { return e.cur().views[e.swIdx[sw]] }

// Serving reports whether the supervisor goroutine is running. Unlike
// Snapshot it never does a barrier round trip, so it stays answerable
// even when the engine is wedged — health checks depend on that.
func (e *Engine) Serving() bool {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.serving
}

// Processed returns how many switch-hops the engine has executed — the
// numerator of a packets/sec measurement.
func (e *Engine) Processed() int64 { return e.processed }

package dataplane

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eventnet/internal/nes"
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

// worker owns a shard of switches during a generation. All its fields are
// private to one goroutine between rendezvous points.
type worker struct {
	id     int32
	outbox []outEntry
	dlog   []flatDelivery // private delivery log, merged lazily
	free   [][]int32      // recycled flat value arrays
	n      counts         // this generation's counts, folded by genFinish

	// gen mirrors the engine generation for the delivery log and trace
	// records (each worker advances its own copy inside a chunk, so no
	// worker ever reads the engine's e.gen mid-chunk).
	gen int64

	// Observability state, nil/zero when the layer is off. ms and ts are
	// this worker's private histogram and trace shards (plain writes on
	// the hop loop, folded at boundaries); det logs the event detections
	// since the last feed, for the bus and the flight recorder (nil when
	// neither is attached); dlogFed is the feed's cursor into dlog; nowNs
	// is a coarse wall-clock cache for delivery-latency stamps, written
	// only in serial phases (setNow), so the hop loop never calls
	// time.Now; chunkHops accumulates hops over a chunk for the
	// per-chunk hop-latency fold.
	ms        *obs.Shard
	ts        *obs.TraceShard
	det       []obs.FlightRec
	dlogFed   int
	nowNs     int64
	chunkHops int64

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
	n            counts // the engine's counters: workers' folded by genFinish, plus ingress
	deliveries   []flatDelivery
	deliveryBase int // absolute index of deliveries[0] (log trimming)
	deliveryCap  int
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

	// Observability (all nil when Options.Obs was nil). folded is n as
	// of the previous boundary fold.
	eobs    *obs.Obs
	met     *obs.Metrics
	bus     *obs.Bus
	tracer  *obs.Tracer
	flight  *obs.Flight
	watch   *obs.Watchdog
	dsample int   // publish every Nth delivery on the bus (0 = none)
	dcount  int64 // deliveries seen by the bus sampler
	folded  counts

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
// preallocated histogram shard and trace ring up front, so nothing on the
// hot path ever allocates observability state.
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
	for i, wk := range e.ws {
		if e.met != nil {
			wk.ms = e.met.Shard(i)
		}
		if e.tracer != nil {
			wk.ts = e.tracer.Shard(i)
		}
		if e.bus != nil || e.flight != nil {
			wk.det = []obs.FlightRec{}
		}
	}
	e.setNow(time.Now().UnixNano())
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
	if e.Step(maxGenerations) == maxGenerations {
		// Step ends without a boundary once it has run n generations.
		e.boundary()
		if e.pending() > 0 {
			return fmt.Errorf("dataplane: no quiescence within %d generations", maxGenerations)
		}
	}
	return nil
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

// View returns a switch's current event view (of the current program).
func (e *Engine) View(sw int) nes.Set { return e.cur().views[e.swIdx[sw]] }

// Processed returns how many switch-hops the engine has executed — the
// numerator of a packets/sec measurement.
func (e *Engine) Processed() int64 { return e.n[obs.CtrHops] }

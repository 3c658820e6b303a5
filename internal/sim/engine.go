// Package sim is a discrete-event network simulator: the substitute for
// the paper's Mininet testbed (Section 5). It models link latency,
// per-byte serialization, finite egress backlogs, and per-packet switch
// processing time, and runs two data planes over compiled NES
// configurations:
//
//   - Tagged: the paper's correct implementation strategy (Section 4) —
//     packets carry a configuration tag and an event digest, switches keep
//     a local event view and react to local events immediately;
//   - Uncoordinated: the baseline — events are reported to a controller,
//     which pushes new configurations to switches after a delay, in an
//     unpredictable order (Section 5's comparison strategy).
//
// Workload drivers (ping with echo responders, bulk transfers) and
// measurement hooks reproduce the quantities plotted in Figures 10-16.
//
// Ordering contract: every scheduled action has a key (at, seq), its
// time and a sequence number unique within the run, and the queue pops in
// the total order on those keys (time, then seq). At, After and each hop
// take the next seq when they schedule. StartBulk and StartPings reserve
// their whole block of seq values when called and queue one send at a
// time on it, so the queue holds only in-flight work and every send pops
// exactly where it would had all been queued up front. Hop work queues on
// lanes, one FIFO per link and per switch, and only each lane's head is
// on the heap: keys on one lane never decrease, because a link's or a
// switch's next free time only advances. Lowering Params.LinkLatency with
// work queued is the one way to break that; the hop then panics. The
// slice a Plane's Process returns belongs to the plane and is valid until
// its next Process call.
package sim

import (
	"math/rand"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/topo"
	"eventnet/internal/trace"
)

// Params are the physical constants of a simulation.
type Params struct {
	LinkLatency    float64 // seconds per hop (propagation)
	LinkBandwidth  float64 // bytes per second
	SwitchProcTime float64 // seconds per packet of base processing
	MaxLinkBacklog float64 // seconds of queued serialization before drop
	MaxSwBacklog   float64 // seconds of queued switch processing before drop
	PayloadBytes   int     // application payload per packet

	// Uncoordinated-plane knobs.
	CtrlLatency   float64 // switch-to-controller notification latency
	InstallDelay  float64 // controller-to-switch install delay (the Figure 10 sweep)
	InstallJitter float64 // extra random install delay per switch

	// Tagged-plane controller assistance (Figure 16b).
	CtrlAssist bool
}

// DefaultParams models a modest software-switch testbed: 1 ms links,
// 100 Mbit/s (12.5 MB/s) bandwidth, 10 us switch processing, 1400-byte
// payloads.
func DefaultParams() Params {
	return Params{
		LinkLatency:    1e-3,
		LinkBandwidth:  12.5e6,
		SwitchProcTime: 10e-6,
		MaxLinkBacklog: 20e-3,
		MaxSwBacklog:   20e-3,
		PayloadBytes:   1400,
		CtrlLatency:    5e-3,
		InstallDelay:   0,
		InstallJitter:  2e-3,
	}
}

// Meta is the per-packet metadata a data plane attaches (the tag and
// digest of Section 4.1; unused by the uncoordinated plane). The digest
// is an event-set bitmask of whatever width the NES's event universe
// needs (nes.Set), so programs are not limited to 64 events.
type Meta struct {
	Version int
	Digest  nes.Set
}

// Out is one packet a data plane emits from a switch.
type Out struct {
	Fields netkat.Packet
	Port   int
	Meta   Meta
}

// Plane is a data-plane implementation.
type Plane interface {
	// Inject stamps a packet entering the network at the given edge switch.
	Inject(s *Sim, sw int, fields netkat.Packet) Meta
	// Process handles a packet arriving at a switch ingress port. The
	// returned slice may be the plane's own buffer, valid until the next
	// Process call.
	Process(s *Sim, sw, inPort int, fields netkat.Packet, meta Meta) []Out
	// HeaderOverhead is the extra on-the-wire bytes per packet.
	HeaderOverhead() int
	// ProcFactor scales the per-packet switch processing time (tag and
	// register operations make the fast path marginally slower).
	ProcFactor() float64
}

// Delivery is a packet received by a host, with its arrival time.
type Delivery struct {
	Host   string
	Fields netkat.Packet
	Time   float64
}

// actionKind says what a scheduled action does when it runs.
type actionKind uint8

const (
	actFn      actionKind = iota // call fn (At, After, a generator's next send)
	actArrive                    // a packet reaches a link's far end: a switch ingress port or a host
	actProcess                   // a switch finishes processing a packet
)

// hop is one packet's queued work on a lane: its key, the switch ingress
// port (a switch lane's), the packet, its metadata and its latest trace
// point. Hop work is typed rather than a closure.
type hop struct {
	at     float64
	seq    int64
	port   int
	fields netkat.Packet
	meta   Meta
	tidx   int
}

// lane is one link's or one switch's FIFO of hop work: a link's arrivals
// at its far end (actArrive) or a switch's processing completions
// (actProcess). Only its head is on the heap.
type lane struct {
	kind    actionKind
	slot    int32      // the lane's heap slot: -1 - its index in Sim.lanes
	free    float64    // when the link or switch is next idle
	sw      int        // a switch lane's switch
	port    int        // the ingress port at a link's far switch
	host    *topo.Host // a link's far host, nil when a switch is the far end
	far     *lane      // that switch's lane
	out     []*lane    // a switch lane's link lanes by egress port, nil where no link leaves
	ring    []hop      // a power-of-two ring; head is the oldest of n
	head, n int
}

// event is one heap entry: the (at, seq) key of a callback or of a lane's
// head, and its slot: the callback's in the slab, or the lane's (negative).
// It holds no pointer, so moving it costs no write barrier and the
// collector does not scan the heap.
type event struct {
	at   float64
	seq  int64
	slot int32
}

// before orders events by time, then by scheduling order. seq is unique,
// so the order is total and any correct heap pops the same sequence.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events under before.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	if *h = q[:n]; n > 0 {
		h.replaceTop(q[n])
	}
}

// replaceTop puts ev in the earliest event's place and sifts it down.
func (h eventHeap) replaceTop(ev event) {
	h[0] = ev
	for i, n := 0, len(h); ; {
		least := 2*i + 1
		if r := least + 1; r < n && h[r].before(h[least]) {
			least = r
		}
		if least >= n || !h[least].before(h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Sim is the simulation state.
type Sim struct {
	Topo   *topo.Topology
	Params Params
	Plane  Plane
	Rand   *rand.Rand

	now   float64
	seq   int64
	queue eventHeap
	fns   []func() // the callbacks queue slots name
	free  []int32  // vacant slots of fns
	lanes []*lane
	ports map[int][]*lane // node -> its link lanes by egress port (see New)

	Delivered []Delivery
	Dropped   int // packets dropped due to backlog overflow

	// Record enables network-trace recording for oracle checking. The
	// recorded trace assumes a loss-free run (congestion drops leave
	// truncated packet trees the formalism does not model).
	Record bool
	nt     trace.NetTrace

	// onReceive handlers per host (echo responders, counters).
	onReceive map[string]func(s *Sim, fields netkat.Packet, at float64)
}

// New builds a simulation over the topology with the given plane. Every
// link gets its lane and every switch a link leads to its processing
// lane, whose out indexes the switch's link lanes by port, so a hop finds
// the next lane without a map.
func New(t *topo.Topology, plane Plane, p Params, seed int64) *Sim {
	s := &Sim{
		Topo:      t,
		Params:    p,
		Plane:     plane,
		Rand:      rand.New(rand.NewSource(seed)),
		ports:     map[int][]*lane{},
		onReceive: map[string]func(*Sim, netkat.Packet, float64){},
	}
	sws := map[int]*lane{} // switch -> its processing lane
	for _, lk := range t.AllLinks() {
		src, ports := lk.Src, s.ports[lk.Src.Switch]
		if src.Port < 0 || egress(ports, src.Port) != nil {
			continue // Across follows the first link that leaves a port
		}
		far, h, _ := t.Across(src)
		l := s.newLane(actArrive)
		l.port, l.host = far.Port, h
		if l.far = sws[far.Switch]; h == nil && l.far == nil {
			l.far = s.newLane(actProcess)
			l.far.sw = far.Switch
			sws[far.Switch] = l.far
		}
		ports = append(ports, make([]*lane, max(0, src.Port+1-len(ports)))...)
		ports[src.Port] = l
		s.ports[src.Switch] = ports
	}
	for sw, l := range sws {
		l.out = s.ports[sw]
	}
	return s
}

// egress returns the lane of the link leaving a node's port, nil when no
// link leaves it.
func egress(ports []*lane, port int) *lane {
	if uint(port) < uint(len(ports)) {
		return ports[port]
	}
	return nil
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// push queues fn under the key (t, seq) in a vacant slab slot.
func (s *Sim) push(t float64, seq int64, fn func()) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.fns))
		s.fns = append(s.fns, nil)
	}
	s.fns[slot] = fn
	s.queue.push(event{at: t, seq: seq, slot: slot})
}

// newLane adds a lane of the given kind.
func (s *Sim) newLane(kind actionKind) *lane {
	l := &lane{kind: kind, slot: -1 - int32(len(s.lanes))}
	s.lanes = append(s.lanes, l)
	return l
}

// enqueue appends h to lane l under the next sequence number, putting it
// on the heap when l was idle. Keys on one lane never decrease (see the
// package doc); a hop that would precede l's tail panics.
func (s *Sim) enqueue(l *lane, h hop) {
	s.seq++
	h.seq = s.seq
	mask := len(l.ring) - 1
	switch {
	case l.n == 0:
		s.queue.push(event{at: h.at, seq: h.seq, slot: l.slot})
	case h.at < l.ring[(l.head+l.n-1)&mask].at:
		panic("sim: a hop would precede its lane's tail; was Params.LinkLatency lowered with work queued?")
	}
	if l.n == len(l.ring) {
		ring := make([]hop, max(8, 2*l.n))
		copy(ring, l.ring[l.head:])
		copy(ring[l.n-l.head:], l.ring[:l.head])
		l.ring, l.head, mask = ring, 0, len(ring)-1
	}
	l.ring[(l.head+l.n)&mask] = h
	l.n++
}

// At schedules fn at an absolute time (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.push(t, s.seq, fn)
}

// After schedules fn after a relative delay.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// generate calls send(i) for i in [0, n) at start+i*interval (clamped
// to now). It reserves the n sequence numbers the sends would have had if
// each were scheduled now, so every send pops exactly where it would
// have, but only the next send is on the queue: running one schedules
// the one after.
func (s *Sim) generate(start, interval float64, n int, send func(i int)) {
	if n <= 0 {
		return
	}
	floor, base := s.now, s.seq
	s.seq += int64(n)
	i := 0
	var next func()
	pushNext := func() {
		at := start + float64(i)*interval
		if at < floor {
			at = floor
		}
		s.push(at, base+int64(i)+1, next)
	}
	next = func() {
		cur := i
		if i++; i < n {
			pushNext()
		}
		send(cur)
	}
	pushNext()
}

// Run processes events until the queue is empty or the horizon is
// reached, then advances the clock to the horizon (never back).
func (s *Sim) Run(horizon float64) {
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.step()
	}
	if horizon > s.now {
		s.now = horizon
	}
}

// step runs the earliest queued action. A callback's slab slot and a
// lane's ring slot are zeroed before the action runs, so neither keeps a
// packet or closure reachable once its work is done; a lane's next hop
// takes its place on the heap.
func (s *Sim) step() {
	ev := s.queue[0]
	s.now = ev.at
	if ev.slot >= 0 {
		s.queue.pop()
		fn := s.fns[ev.slot]
		s.fns[ev.slot] = nil
		s.free = append(s.free, ev.slot)
		fn()
		return
	}
	l := s.lanes[-1-ev.slot]
	h := l.ring[l.head]
	l.ring[l.head] = hop{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	if l.n--; l.n > 0 {
		next := &l.ring[l.head]
		s.queue.replaceTop(event{at: next.at, seq: next.seq, slot: ev.slot})
	} else {
		s.queue.pop()
	}
	switch {
	case l.kind == actProcess:
		s.process(l, h.port, h.fields, h.meta, h.tidx)
	case l.host != nil:
		s.deliver(l.host, h.fields, h.tidx)
	default:
		s.arriveAtSwitch(l.far, l.port, h.fields, h.meta, h.tidx)
	}
}

// OnReceive registers a handler invoked when the named host receives a
// packet (after any previously registered handler).
func (s *Sim) OnReceive(host string, fn func(s *Sim, fields netkat.Packet, at float64)) {
	prev := s.onReceive[host]
	s.onReceive[host] = func(s *Sim, f netkat.Packet, at float64) {
		if prev != nil {
			prev(s, f, at)
		}
		fn(s, f, at)
	}
}

// record appends a directed trace point (when recording is on). The
// point keeps the header map it is given: no sim code writes a packet's
// map, so the map is read-only from here on.
func (s *Sim) record(fields netkat.Packet, loc netkat.Location, out bool, parent int) int {
	if !s.Record {
		return -1
	}
	return s.nt.Append(netkat.DPacket{Pkt: fields, Loc: loc, Out: out}, parent)
}

// NetTrace returns the network trace the simulation records (Record
// must have been set before the run): its points and their parents.
// Later events extend it, and its points share header maps with the
// packets.
func (s *Sim) NetTrace() *trace.NetTrace { return &s.nt }

// wireBytes is the on-the-wire size of a packet.
func (s *Sim) wireBytes() int { return s.Params.PayloadBytes + s.Plane.HeaderOverhead() }

// transmit sends a packet across link lane l, modeling serialization,
// backlog-overflow drops, and propagation. tidx is the packet's latest
// recorded trace point (-1 when not recording); root, when set, records
// the host's send as the packet's first point once it is not dropped.
func (s *Sim) transmit(l *lane, fields netkat.Packet, meta Meta, tidx int, root *topo.Host) {
	if l == nil {
		return // unconnected port: packet leaves the modeled network
	}
	free := max(l.free, s.now)
	if free-s.now > s.Params.MaxLinkBacklog {
		s.Dropped++
		return
	}
	l.free = free + float64(s.wireBytes())/s.Params.LinkBandwidth
	if root != nil {
		tidx = s.record(fields, root.Loc(), true, -1)
	}
	s.enqueue(l, hop{at: l.free + s.Params.LinkLatency, fields: fields, meta: meta, tidx: tidx})
}

// deliver hands a packet to a host.
func (s *Sim) deliver(h *topo.Host, fields netkat.Packet, tidx int) {
	s.record(fields, h.Loc(), false, tidx)
	s.Delivered = append(s.Delivered, Delivery{Host: h.Name, Fields: fields, Time: s.now})
	if fn := s.onReceive[h.Name]; fn != nil {
		fn(s, fields, s.now)
	}
}

// arriveAtSwitch queues the packet for processing on a switch's lane,
// dropping it if the switch's processing backlog exceeds its queue
// capacity. Ingress and egress trace points are recorded at processing
// time, so the recorded order at each switch matches the processing order
// the happens-before relation depends on.
func (s *Sim) arriveAtSwitch(l *lane, port int, fields netkat.Packet, meta Meta, tidx int) {
	start := max(l.free, s.now)
	if start-s.now > s.Params.MaxSwBacklog {
		s.Dropped++
		return
	}
	l.free = start + s.Params.SwitchProcTime*s.Plane.ProcFactor()
	s.enqueue(l, hop{at: l.free, port: port, fields: fields, meta: meta, tidx: tidx})
}

// process runs the plane's switch step on a packet whose processing on
// switch lane l is done and transmits what it emits.
func (s *Sim) process(l *lane, port int, fields netkat.Packet, meta Meta, tidx int) {
	sw := l.sw
	ingress := s.record(fields, netkat.Location{Switch: sw, Port: port}, false, tidx)
	for _, o := range s.Plane.Process(s, sw, port, fields, meta) {
		out := s.record(o.Fields, netkat.Location{Switch: sw, Port: o.Port}, true, ingress)
		s.transmit(egress(l.out, o.Port), o.Fields, o.Meta, out, nil)
	}
}

// Send emits a packet from the named host into the network.
func (s *Sim) Send(host string, fields netkat.Packet) {
	h, ok := s.Topo.HostByName(host)
	if !ok {
		return
	}
	meta := s.Plane.Inject(s, h.Attach.Switch, fields)
	// Host link: serialization plus propagation from the host NIC.
	s.transmit(egress(s.ports[h.ID], 0), fields, meta, -1, &h)
}

// DeliveredTo returns deliveries to a host.
func (s *Sim) DeliveredTo(host string) []Delivery {
	var out []Delivery
	for _, d := range s.Delivered {
		if d.Host == host {
			out = append(out, d)
		}
	}
	return out
}

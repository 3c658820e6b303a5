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
// exactly where it would had all been queued up front. The slice a
// Plane's Process returns belongs to the plane and is valid until its
// next Process call.
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

// action is one piece of scheduled work. Hop work is typed rather than a
// closure: an arrival carries the far switch and port (or the host), a
// process the switch and its ingress port, and both carry the packet, its
// metadata and its latest trace point.
type action struct {
	kind   actionKind
	sw     int
	port   int
	host   *topo.Host
	fields netkat.Packet
	meta   Meta
	tidx   int
	fn     func()
}

// event is one heap entry: the (at, seq) key of an action and its slot in
// the action slab. It holds no pointer, so moving it costs no write
// barrier and the collector does not scan the heap.
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

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && q[r].before(q[least]) {
			least = r
		}
		if !q[least].before(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Sim is the simulation state.
type Sim struct {
	Topo   *topo.Topology
	Params Params
	Plane  Plane
	Rand   *rand.Rand

	now      float64
	seq      int64
	queue    eventHeap
	acts     []action                    // the actions queue slots name
	free     []int32                     // vacant slots of acts
	linkFree map[netkat.Location]float64 // egress serialization availability
	swFree   map[int]float64             // switch processing availability

	Delivered []Delivery
	Dropped   int // packets dropped due to backlog overflow

	// Record enables network-trace recording for oracle checking. The
	// recorded trace assumes a loss-free run (congestion drops leave
	// truncated packet trees the formalism does not model).
	Record  bool
	nt      trace.NetTrace
	parents []int

	// onReceive handlers per host (echo responders, counters).
	onReceive map[string]func(s *Sim, fields netkat.Packet, at float64)
}

// New builds a simulation over the topology with the given plane.
func New(t *topo.Topology, plane Plane, p Params, seed int64) *Sim {
	return &Sim{
		Topo:      t,
		Params:    p,
		Plane:     plane,
		Rand:      rand.New(rand.NewSource(seed)),
		linkFree:  map[netkat.Location]float64{},
		swFree:    map[int]float64{},
		onReceive: map[string]func(*Sim, netkat.Packet, float64){},
	}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// push queues a under the key (t, seq) in a vacant slab slot.
func (s *Sim) push(t float64, seq int64, a action) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.acts))
		s.acts = append(s.acts, action{})
	}
	s.acts[slot] = a
	s.queue.push(event{at: t, seq: seq, slot: slot})
}

// schedule queues a at an absolute time (clamped to now) under the next
// sequence number.
func (s *Sim) schedule(t float64, a action) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.push(t, s.seq, a)
}

// At schedules fn at an absolute time (clamped to now).
func (s *Sim) At(t float64, fn func()) { s.schedule(t, action{kind: actFn, fn: fn}) }

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
		s.push(at, base+int64(i)+1, action{kind: actFn, fn: next})
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
// reached, then advances the clock to the horizon (never back). A
// popped slot is zeroed before its action runs, so the slab keeps no
// packet or closure reachable once its work is done.
func (s *Sim) Run(horizon float64) {
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		ev := s.queue.pop()
		s.now = ev.at
		a := s.acts[ev.slot]
		s.acts[ev.slot] = action{}
		s.free = append(s.free, ev.slot)
		switch a.kind {
		case actFn:
			a.fn()
		case actArrive:
			if a.host != nil {
				s.deliver(a.host, a.fields, a.tidx)
			} else {
				s.arriveAtSwitch(a.sw, a.port, a.fields, a.meta, a.tidx)
			}
		case actProcess:
			s.process(a.sw, a.port, a.fields, a.meta, a.tidx)
		}
	}
	if horizon > s.now {
		s.now = horizon
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

// record appends a directed trace point (when recording is on).
func (s *Sim) record(fields netkat.Packet, loc netkat.Location, out bool, parent int) int {
	if !s.Record {
		return -1
	}
	idx := s.nt.Append(netkat.DPacket{Pkt: fields.Clone(), Loc: loc, Out: out})
	s.parents = append(s.parents, parent)
	return idx
}

// NetTrace reconstructs the recorded network trace (Record must have been
// set before the run): the point sequence plus one root-to-leaf index
// path per packet-tree branch.
func (s *Sim) NetTrace() *trace.NetTrace {
	return trace.FromParents(s.nt.Packets, s.parents)
}

// wireBytes is the on-the-wire size of a packet.
func (s *Sim) wireBytes() int { return s.Params.PayloadBytes + s.Plane.HeaderOverhead() }

// transmit sends a packet out of an egress location across its link,
// modeling serialization, backlog-overflow drops, and propagation. tidx
// is the packet's latest recorded trace point (-1 when not recording).
func (s *Sim) transmit(src netkat.Location, fields netkat.Packet, meta Meta, tidx int) {
	far, h, ok := s.Topo.Across(src)
	if !ok {
		return // unconnected port: packet leaves the modeled network
	}
	free := s.linkFree[src]
	if free < s.now {
		free = s.now
	}
	if free-s.now > s.Params.MaxLinkBacklog {
		s.Dropped++
		return
	}
	tx := float64(s.wireBytes()) / s.Params.LinkBandwidth
	s.linkFree[src] = free + tx
	arrive := free + tx + s.Params.LinkLatency
	s.schedule(arrive, action{kind: actArrive, sw: far.Switch, port: far.Port, host: h, fields: fields, meta: meta, tidx: tidx})
}

// deliver hands a packet to a host.
func (s *Sim) deliver(h *topo.Host, fields netkat.Packet, tidx int) {
	s.record(fields, h.Loc(), false, tidx)
	s.Delivered = append(s.Delivered, Delivery{Host: h.Name, Fields: fields, Time: s.now})
	if fn := s.onReceive[h.Name]; fn != nil {
		fn(s, fields, s.now)
	}
}

// arriveAtSwitch queues the packet for processing at a switch, dropping
// it if the switch's processing backlog exceeds its queue capacity.
// Ingress and egress trace points are recorded at processing time, so
// the recorded order at each switch matches the processing order the
// happens-before relation depends on.
func (s *Sim) arriveAtSwitch(sw, port int, fields netkat.Packet, meta Meta, tidx int) {
	start := s.swFree[sw]
	if start < s.now {
		start = s.now
	}
	if start-s.now > s.Params.MaxSwBacklog {
		s.Dropped++
		return
	}
	done := start + s.Params.SwitchProcTime*s.Plane.ProcFactor()
	s.swFree[sw] = done
	s.schedule(done, action{kind: actProcess, sw: sw, port: port, fields: fields, meta: meta, tidx: tidx})
}

// process runs the plane's switch step on a packet whose processing is
// done and transmits what it emits.
func (s *Sim) process(sw, port int, fields netkat.Packet, meta Meta, tidx int) {
	ingress := s.record(fields, netkat.Location{Switch: sw, Port: port}, false, tidx)
	for _, o := range s.Plane.Process(s, sw, port, fields, meta) {
		egress := s.record(o.Fields, netkat.Location{Switch: sw, Port: o.Port}, true, ingress)
		s.transmit(netkat.Location{Switch: sw, Port: o.Port}, o.Fields, o.Meta, egress)
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
	free := s.linkFree[h.Loc()]
	if free < s.now {
		free = s.now
	}
	if free-s.now > s.Params.MaxLinkBacklog {
		s.Dropped++
		return
	}
	tx := float64(s.wireBytes()) / s.Params.LinkBandwidth
	s.linkFree[h.Loc()] = free + tx
	root := s.record(fields, h.Loc(), true, -1)
	arrive := free + tx + s.Params.LinkLatency
	s.schedule(arrive, action{kind: actArrive, sw: h.Attach.Switch, port: h.Attach.Port, fields: fields, meta: meta, tidx: root})
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

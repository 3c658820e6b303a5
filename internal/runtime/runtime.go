// Package runtime executes network event structures with the operational
// semantics of Figure 7 of the paper: switches with per-port input/output
// queues and a local event-set, packets carrying a configuration tag and
// an event digest, and a controller with a receive queue. The rules
// IN, OUT, SWITCH, LINK, CTRLRECV and CTRLSEND are implemented directly;
// a seeded scheduler picks among enabled rule instances, so property tests
// can explore many interleavings (the executions quantified over by
// Theorem 1).
//
// Every execution records the corresponding network trace (Section 4.3:
// a single packet is processed at each step, so the network trace can be
// read off the execution), which the oracle in internal/trace judges.
// Trace points and Deliveries share read-only header maps with the
// packets in flight: Inject copies the caller's map once and rules never
// write a map.
package runtime

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/splitmix"
	"eventnet/internal/topo"
	"eventnet/internal/trace"
)

// Packet is an in-flight packet: header fields plus the metadata of
// Section 4.1 — the configuration tag (version) and the event digest.
type Packet struct {
	Fields netkat.Packet
	Config int     // pkt.C: index of the configuration that must process it
	Digest nes.Set // pkt.digest: events the packet has heard about
	tidx   int     // trace index of the packet's latest recorded location
}

// SwitchState is one switch: its ID and the local view E of the global
// event-set. Its port queues are slots of the machine's table (see slot).
type SwitchState struct {
	ID     int
	Events nes.Set

	out, end int // the switch's egress queues are slots[out:end], ports ascending
}

// ruleKind names a rule of Figure 7 that the scheduler picks instances of.
type ruleKind uint8

const (
	ruleSwitch ruleKind = iota
	ruleLink
	ruleOut
	ruleCtrlRecv
	ruleCtrlSend
)

// slot is the port queue of one link end of the topology's port table
// (its Dst is a slot too) together with the rule that consumes its head:
// SWITCH for an ingress queue, OUT for an egress queue leading to a host,
// LINK for any other. The queue is buf[head:]; a pop advances head and a
// drained queue rewinds to buf[:0], so a steady run appends into capacity
// it already owns. The machine's push and pop keep its busy set in step
// with the queue.
type slot struct {
	topo.End
	kind ruleKind
	sw   *SwitchState
	buf  []Packet
	head int
}

func (m *Machine) push(i int, p Packet) {
	m.slots[i].buf = append(m.slots[i].buf, p)
	m.busy[i/64] |= 1 << (i % 64)
}

func (m *Machine) pop(i int) Packet {
	s := &m.slots[i]
	p := s.buf[s.head]
	s.buf[s.head] = Packet{} // drop the queue's reference to the header map
	s.head++
	if s.head == len(s.buf) {
		s.buf, s.head = s.buf[:0], 0
		m.busy[i/64] &^= 1 << (i % 64)
	}
	return p
}

// Delivery is a packet received by a host. Fields is read-only: it is the
// map the packet's trace points hold.
type Delivery struct {
	Host   string
	Fields netkat.Packet
}

// Machine is the (Q, R, S) state of Figure 7 plus trace bookkeeping.
type Machine struct {
	NES  *nes.NES
	Topo *topo.Topology

	Q, R nes.Set

	// CtrlAssist enables the CTRLRECV/CTRLSEND rules (the optional
	// controller broadcast optimization of Section 4.1).
	CtrlAssist bool

	Deliveries []Delivery

	// slots is every port queue that can ever hold a packet, in the port
	// table's order (switches ascending; per switch, ingress ports, then
	// linked egress ports, ascending), which is the domain of the draw in
	// Step and so part of what a seed means; TestSeedTracePin holds it
	// still. busy has bit i set while slots[i] holds a packet.
	slots   []slot
	busy    []uint64
	ingress map[netkat.Location]int // ingress location -> slot; the port table's, read-only
	sws     []*SwitchState          // ascending by ID
	ctrl    []action                // actions() scratch: the enabled controller rule instances

	nt     trace.NetTrace
	rng    chooser // both of the scheduler's draws
	stream splitmix.Stream
	obuf   []flowtable.Output // switchStep scratch; a Machine is single-goroutine
}

// chooser makes the scheduler's choices, 0 <= Intn(n) < n: the machine's
// own splitmix64 stream, or a test's recording or replay.
type chooser interface{ Intn(n int) int }

// New builds a machine for the NES over its topology's port table, with
// the splitmix64 stream seed as its scheduler. Forwarding is
// flowtable.Table's linear scan over the NES's own per-configuration
// tables: the machine is the reference the engine's compiled tables are
// tested against, so it shares no index with them.
func New(n *nes.NES, t *topo.Topology, seed int64, ctrlAssist bool) *Machine {
	pt := t.Ports()
	m := &Machine{
		NES:        n,
		Topo:       t,
		CtrlAssist: ctrlAssist,
		slots:      make([]slot, len(pt.Ends)),
		busy:       make([]uint64, (len(pt.Ends)+63)/64),
		ingress:    pt.Ingress,
		sws:        make([]*SwitchState, len(pt.Switches)),
		stream:     splitmix.Stream(seed),
	}
	m.rng = &m.stream
	views := make([]SwitchState, len(pt.Switches))
	for i, id := range pt.Switches {
		views[i].ID = id
		m.sws[i] = &views[i]
	}
	for i, e := range pt.Ends {
		sw, _ := slices.BinarySearch(pt.Switches, e.Loc.Switch)
		s := &m.slots[i]
		s.End, s.kind, s.sw = e, ruleSwitch, m.sws[sw]
		if e.Egress {
			s.kind = ruleLink
			if e.Host != nil {
				s.kind = ruleOut
			}
			if s.sw.end == 0 { // the switch's first egress queue; end is at least 1 from here on
				s.sw.out = i
			}
			s.sw.end = i + 1
		}
	}
	return m
}

// record appends a directed trace point with the given parent (-1 for a
// root) and returns its index. The point keeps the header map it is
// given: no rule writes a packet's map (flowtable's AppendApply builds a
// new one for every modification), so the map is read-only from here on.
func (m *Machine) record(fields netkat.Packet, loc netkat.Location, out bool, parent int) int {
	return m.nt.Append(netkat.DPacket{Pkt: fields, Loc: loc, Out: out}, parent)
}

// Inject performs the IN rule: a packet enters from the named host, is
// stamped with the tag of the edge switch's current configuration, and is
// queued at the attachment port. The caller gives fields up: the packet
// and its trace point hold the map itself, which nothing writes (see
// record).
func (m *Machine) Inject(host string, fields netkat.Packet) error {
	h, ok := m.Topo.HostByName(host)
	if !ok {
		return fmt.Errorf("runtime: unknown host %q", host)
	}
	i, ok := m.ingress[h.Attach]
	if !ok {
		return fmt.Errorf("runtime: host %q attaches to unknown switch %d", host, h.Attach.Switch)
	}
	root := m.record(fields, h.Loc(), true, -1)
	m.push(i, Packet{
		Fields: fields,
		Config: m.NES.ConfigFor(m.slots[i].sw.Events),
		Digest: nes.Empty,
		tidx:   root,
	})
	return nil
}

// action is one enabled rule instance: a rule and the slot whose head it
// consumes (SWITCH, LINK, OUT) or the switch it informs (CTRLSEND, an
// index into sws).
type action struct {
	kind ruleKind
	i    int
}

// actions counts the enabled rule instances. Their order, the domain
// pick draws from, is the busy slots in table order, then CTRLRECV, then
// CTRLSEND per switch ascending.
func (m *Machine) actions() int {
	acts := m.ctrl[:0]
	if m.CtrlAssist {
		if m.Q != nes.Empty {
			acts = append(acts, action{kind: ruleCtrlRecv})
		}
		if m.R != nes.Empty {
			for i, sw := range m.sws {
				if !m.R.SubsetOf(sw.Events) {
					acts = append(acts, action{ruleCtrlSend, i})
				}
			}
		}
	}
	m.ctrl = acts
	n := len(acts)
	for _, x := range m.busy {
		n += bits.OnesCount64(x)
	}
	return n
}

// pick returns enabled rule instance r of the order actions counts,
// 0 <= r < actions(): the r-th busy slot, found a word of the busy set
// at a time, or a controller instance.
func (m *Machine) pick(r int) action {
	for w, x := range m.busy {
		if c := bits.OnesCount64(x); r >= c {
			r -= c
			continue
		}
		for ; r > 0; r-- {
			x &= x - 1
		}
		i := w*64 + bits.TrailingZeros64(x)
		return action{m.slots[i].kind, i}
	}
	return m.ctrl[r]
}

// Step performs one randomly chosen enabled rule instance. It reports
// false when the machine is quiescent.
func (m *Machine) Step() bool {
	n := m.actions()
	if n == 0 {
		return false
	}
	m.perform(m.pick(m.rng.Intn(n)))
	return true
}

func (m *Machine) perform(a action) {
	switch a.kind {
	case ruleSwitch:
		m.switchStep(a.i)
	case ruleLink:
		m.linkStep(a.i)
	case ruleOut:
		m.outStep(a.i)
	case ruleCtrlRecv:
		// Move one event from the controller queue into the controller.
		es := m.Q.Elems()
		e := es[m.rng.Intn(len(es))]
		m.Q = m.Q.Without(e)
		m.R = m.R.With(e)
	case ruleCtrlSend:
		// Push the controller's view to one switch (the periodic
		// broadcast of Section 4.1).
		sw := m.sws[a.i]
		sw.Events = sw.Events.Union(m.R)
	}
}

// switchStep is the SWITCH rule: learn from the packet's digest, detect
// newly enabled events the packet matches, forward using the packet's
// tagged configuration, and stamp the outputs' digests.
func (m *Machine) switchStep(i int) {
	sw, loc := m.slots[i].sw, m.slots[i].Loc
	swid, port := loc.Switch, loc.Port
	pkt := m.pop(i)

	ingress := m.record(pkt.Fields, loc, false, pkt.tidx)

	newly, outDigest := m.NES.SwitchStep(sw.Events, pkt.Digest, netkat.LocatedPacket{Pkt: pkt.Fields, Loc: loc})

	// Forward with the packet's tagged configuration.
	m.obuf = m.NES.Configs[pkt.Config].Tables[swid].AppendProcess(m.obuf[:0], pkt.Fields, port, 0)
	outs := m.obuf

	sw.Events = outDigest
	m.Q = m.Q.Union(newly)

	for _, o := range outs {
		egress := m.record(o.Pkt, netkat.Location{Switch: swid, Port: o.Port}, true, ingress)
		// A port nothing is linked to has no queue: no rule could ever
		// move the packet on, so it ends at its egress point.
		for j := sw.out; j < sw.end; j++ {
			if m.slots[j].Loc.Port == o.Port {
				m.push(j, Packet{
					Fields: o.Pkt,
					Config: pkt.Config,
					Digest: outDigest,
					tidx:   egress,
				})
				break
			}
		}
	}
}

// linkStep is the LINK rule: move the head packet across the physical
// link into the neighbor's input queue.
func (m *Machine) linkStep(i int) {
	pkt := m.pop(i)
	if dst := m.slots[i].Dst; dst >= 0 { // else the link leads out of the modeled network
		m.push(dst, pkt)
	}
}

// outStep is the OUT rule: deliver the head packet to the attached host.
func (m *Machine) outStep(i int) {
	pkt, h := m.pop(i), m.slots[i].Host
	m.record(pkt.Fields, h.Loc(), false, pkt.tidx)
	m.Deliveries = append(m.Deliveries, Delivery{Host: h.Name, Fields: pkt.Fields})
}

// maxSteps bounds RunToQuiescence.
const maxSteps = 1000000

// RunToQuiescence steps until no rule is enabled.
func (m *Machine) RunToQuiescence() error {
	for i := 0; i < maxSteps; i++ {
		if !m.Step() {
			return nil
		}
	}
	return fmt.Errorf("runtime: machine did not quiesce within %d steps", maxSteps)
}

// NetTrace returns the network trace the machine records: its points
// and their parents. Later steps extend it, and its points share header
// maps with the machine.
func (m *Machine) NetTrace() *trace.NetTrace { return &m.nt }

// DeliveredTo returns the packets delivered to the named host.
func (m *Machine) DeliveredTo(host string) []netkat.Packet {
	var out []netkat.Packet
	for _, d := range m.Deliveries {
		if d.Host == host {
			out = append(out, d.Fields)
		}
	}
	return out
}

// SwitchView returns switch sw's current event view (for convergence
// observations).
func (m *Machine) SwitchView(sw int) nes.Set { return m.switchByID(sw).Events }

// switchByID returns the switch with the given ID, nil if there is none.
func (m *Machine) switchByID(id int) *SwitchState {
	i, ok := slices.BinarySearchFunc(m.sws, id, func(sw *SwitchState, id int) int { return cmp.Compare(sw.ID, id) })
	if !ok {
		return nil
	}
	return m.sws[i]
}

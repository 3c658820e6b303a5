package sim

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// TaggedPlane is the paper's implementation strategy (Section 4) in the
// timed simulator: per-switch event views, packet tags selecting the
// processing configuration, digests implementing the happens-before
// propagation, and optional controller broadcast.
type TaggedPlane struct {
	NES *nes.NES

	// Overhead of the version tag, digest, and encapsulation on the wire,
	// and the relative cost of the extra per-packet register and tag
	// operations on the switch fast path.
	TagBytes   int
	ExtraProc  float64 // e.g. 0.05 for +5% processing time
	views      map[int]nes.Set
	discovered map[int]map[int]float64 // switch -> event -> first-known time
	ctrl       nes.Set
	obuf       []flowtable.Output // per-sim scratch; Sim is single-goroutine
	outs       []Out              // Process's result, reused by the next call
}

// NewTaggedPlane builds the correct plane with default overhead figures
// (12 bytes of tag+digest encapsulation, 5% extra fast-path work; the
// paper reports the end-to-end effect as ~6% bandwidth overhead).
// Forwarding is flowtable.Table's linear scan over the NES's own tables.
func NewTaggedPlane(n *nes.NES) *TaggedPlane {
	return &TaggedPlane{
		NES:        n,
		TagBytes:   12,
		ExtraProc:  0.05,
		views:      map[int]nes.Set{},
		discovered: map[int]map[int]float64{},
	}
}

// HeaderOverhead implements Plane.
func (p *TaggedPlane) HeaderOverhead() int { return p.TagBytes }

// ProcFactor implements Plane.
func (p *TaggedPlane) ProcFactor() float64 { return 1 + p.ExtraProc }

// DiscoveryTime returns when a switch first learned about an event, and
// whether it has.
func (p *TaggedPlane) DiscoveryTime(sw, event int) (float64, bool) {
	t, ok := p.discovered[sw][event]
	return t, ok
}

// learn unions events into a switch's view, recording discovery times.
func (p *TaggedPlane) learn(s *Sim, sw int, events nes.Set) {
	cur := p.views[sw]
	fresh := events.Minus(cur)
	if fresh == nes.Empty {
		return
	}
	p.views[sw] = cur.Union(fresh)
	if p.discovered[sw] == nil {
		p.discovered[sw] = map[int]float64{}
	}
	for _, e := range fresh.Elems() {
		if _, ok := p.discovered[sw][e]; !ok {
			p.discovered[sw][e] = s.Now()
		}
	}
}

// Inject implements Plane: the IN rule's tag stamping.
func (p *TaggedPlane) Inject(_ *Sim, sw int, _ netkat.Packet) Meta {
	return Meta{Version: p.NES.ConfigFor(p.views[sw]), Digest: nes.Empty}
}

// Process implements Plane: the SWITCH rule.
func (p *TaggedPlane) Process(s *Sim, sw, inPort int, fields netkat.Packet, meta Meta) []Out {
	lp := netkat.LocatedPacket{Pkt: fields, Loc: netkat.Location{Switch: sw, Port: inPort}}
	newly, outDigest := p.NES.SwitchStep(p.views[sw], meta.Digest, lp)
	p.learn(s, sw, outDigest)
	if newly != nes.Empty && s.Params.CtrlAssist {
		// Notify the controller; it broadcasts its view to every
		// switch (CTRLRECV/CTRLSEND with one round trip each).
		ev := newly
		s.After(s.Params.CtrlLatency, func() {
			p.ctrl = p.ctrl.Union(ev)
			view := p.ctrl
			for _, other := range s.Topo.Switches {
				osw := other
				s.After(s.Params.CtrlLatency+s.Rand.Float64()*s.Params.InstallJitter, func() {
					p.learn(s, osw, view)
				})
			}
		})
	}

	p.obuf = p.NES.Configs[meta.Version].Tables[sw].AppendProcess(p.obuf[:0], fields, inPort, 0)
	p.outs = p.outs[:0]
	for _, o := range p.obuf {
		p.outs = append(p.outs, Out{
			Fields: o.Pkt,
			Port:   o.Port,
			Meta:   Meta{Version: meta.Version, Digest: outDigest},
		})
	}
	return p.outs
}

// UncoordPlane is the uncoordinated-update baseline of Section 5: events
// are detected and sent to the controller, which pushes updated
// configurations to switches after a delay and in arbitrary order.
// Packets carry no metadata; each switch forwards with whatever
// configuration it currently has installed.
type UncoordPlane struct {
	NES *nes.NES

	installed map[int]int // switch -> installed config index
	ctrlSet   nes.Set     // controller's view of occurred events
	pendingEv nes.Set     // events already reported (avoid duplicates)
	obuf      []flowtable.Output
	outs      []Out // Process's result, reused by the next call
}

// NewUncoordPlane builds the baseline plane.
func NewUncoordPlane(n *nes.NES) *UncoordPlane {
	return &UncoordPlane{
		NES:       n,
		installed: map[int]int{},
	}
}

// HeaderOverhead implements Plane: no tags on the wire.
func (p *UncoordPlane) HeaderOverhead() int { return 0 }

// ProcFactor implements Plane.
func (p *UncoordPlane) ProcFactor() float64 { return 1 }

// Inject implements Plane: no stamping.
func (p *UncoordPlane) Inject(*Sim, int, netkat.Packet) Meta { return Meta{} }

// Process implements Plane: forward with the switch's installed
// configuration; report matching enabled events to the controller, which
// pushes the new configuration to all switches after InstallDelay (+
// jitter), in effect an unpredictable order.
func (p *UncoordPlane) Process(s *Sim, sw, inPort int, fields netkat.Packet, _ Meta) []Out {
	lp := netkat.LocatedPacket{Pkt: fields, Loc: netkat.Location{Switch: sw, Port: inPort}}
	// Event detection against the controller's state (the controller is
	// the only component tracking events in this baseline). Detection is
	// immediate at the switch, but the reaction is remote.
	newly := p.NES.NewlyEnabled(p.ctrlSet.Union(p.pendingEv), lp)
	if newly != nes.Empty {
		p.pendingEv = p.pendingEv.Union(newly)
		ev := newly
		s.After(s.Params.CtrlLatency, func() {
			p.ctrlSet = p.ctrlSet.Union(ev)
			cfg, ok := p.NES.ConfigAt(p.ctrlSet)
			if !ok {
				return
			}
			for _, osw := range s.Topo.Switches {
				delay := s.Params.InstallDelay + s.Rand.Float64()*s.Params.InstallJitter
				s.After(delay, func() { p.installed[osw] = cfg })
			}
		})
	}

	p.obuf = p.NES.Configs[p.installed[sw]].Tables[sw].AppendProcess(p.obuf[:0], fields, inPort, 0)
	p.outs = p.outs[:0]
	for _, o := range p.obuf {
		p.outs = append(p.outs, Out{Fields: o.Pkt, Port: o.Port})
	}
	return p.outs
}

// PlaneKind selects a data-plane implementation.
type PlaneKind int

// Plane kinds.
const (
	PlaneKindTagged PlaneKind = iota
	PlaneKindUncoord
)

// NewPlane builds a plane of the given kind for an NES.
func NewPlane(k PlaneKind, n *nes.NES) Plane {
	if k == PlaneKindUncoord {
		return NewUncoordPlane(n)
	}
	return NewTaggedPlane(n)
}

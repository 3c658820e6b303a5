package main

import (
	"fmt"

	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// The delivery auditor is the independent check behind every timed
// number: a delivery is right when netkat.Eval of the program generation
// its stamp names — stateful.Project(prog, StateOf(stamp.Version)) —
// predicts it for the packet that was injected. The compiler's tables
// are never consulted.

// sentPacket is one audited injection; its index in the sent slice is
// the unique "id" field it carried.
type sentPacket struct {
	Host   string
	Fields netkat.Packet // without the id field
	Stamp  dataplane.Stamp
}

// auditor memoizes Eval predictions per (epoch, version, host, header).
type auditor struct {
	topo  *topo.Topology
	progs []*ctrl.Program // indexed by epoch
	memo  map[string]map[string]bool
}

func newAuditor(t *topo.Topology, progs []*ctrl.Program) *auditor {
	return &auditor{topo: t, progs: progs, memo: map[string]map[string]bool{}}
}

// auditCounts is an audit's verdict: Mixed counts deliveries that
// contradict their packet's stamp or its Eval prediction (a packet that
// touched two programs' rules lands here), Dropped counts predicted
// deliveries that never arrived.
type auditCounts struct {
	Checked, Mixed, Dropped int
}

func (c auditCounts) clean() bool { return c.Mixed == 0 && c.Dropped == 0 }

// predict returns the set of "host|fields" deliveries Eval allows for a
// packet under a stamp (nil when the stamp names no known generation).
func (a *auditor) predict(host string, fields netkat.Packet, st dataplane.Stamp) map[string]bool {
	if st.Epoch < 0 || st.Epoch >= len(a.progs) || a.progs[st.Epoch] == nil {
		return nil
	}
	key := fmt.Sprintf("%d|%d|%s|%s", st.Epoch, st.Version, host, fields.Key())
	if want, ok := a.memo[key]; ok {
		return want
	}
	want := map[string]bool{}
	p := a.progs[st.Epoch]
	if state, ok := p.StateOf(st.Version); ok {
		pol := stateful.Project(p.Prog.Cmd, state)
		h, _ := a.topo.HostByName(host)
		for _, lp := range netkat.Eval(pol, netkat.LocatedPacket{Pkt: fields, Loc: h.Attach}) {
			if lk, ok := a.topo.LinkFrom(lp.Loc); ok {
				if hh, isHost := a.topo.HostByID(lk.Dst.Switch); isHost {
					want[hh.Name+"|"+lp.Pkt.Key()] = true
				}
			}
		}
	}
	a.memo[key] = want
	return want
}

// splitID removes the id field from a delivered header.
func splitID(f netkat.Packet) (netkat.Packet, int, bool) {
	id, ok := f["id"]
	if !ok {
		return nil, 0, false
	}
	g := f.Clone()
	delete(g, "id")
	return g, id, true
}

// audit checks a complete delivery log against the packets sent: every
// delivery must carry its packet's stamp and be predicted, and every
// prediction must have arrived exactly once.
func (a *auditor) audit(sent []sentPacket, deliveries []dataplane.Delivery) auditCounts {
	var c auditCounts
	byID := make([][]dataplane.Delivery, len(sent))
	for _, d := range deliveries {
		c.Checked++
		id, ok := d.Fields["id"]
		if !ok || id < 0 || id >= len(sent) {
			c.Mixed++
			continue
		}
		byID[id] = append(byID[id], d)
	}
	for id, s := range sent {
		want := a.predict(s.Host, s.Fields, s.Stamp)
		got := map[string]bool{}
		for _, d := range byID[id] {
			f, _, _ := splitID(d.Fields)
			key := d.Host + "|" + f.Key()
			if d.Stamp != s.Stamp || !want[key] || got[key] {
				c.Mixed++
				continue
			}
			got[key] = true
		}
		c.Dropped += len(want) - len(got)
	}
	return c
}

// auditSampled checks a sample of deliveries (netd's /watch feed shows
// every Nth): each must be one Eval predicts for the packet with its id
// under the (epoch, version) the delivery itself reports. A sample
// cannot show a missing delivery; the wire conservation check covers
// loss.
func (a *auditor) auditSampled(sent []sentPacket, deliveries []dataplane.Delivery) auditCounts {
	var c auditCounts
	for _, d := range deliveries {
		c.Checked++
		f, id, ok := splitID(d.Fields)
		if !ok || id < 0 || id >= len(sent) {
			c.Mixed++
			continue
		}
		if !a.predict(sent[id].Host, sent[id].Fields, d.Stamp)[d.Host+"|"+f.Key()] {
			c.Mixed++
		}
	}
	return c
}

// conservation is the wire-side bookkeeping of one timed pass: what the
// client sent, what the daemon's responses acknowledged, what its
// counters say it admitted, and what was still queued after /quiesce.
type conservation struct {
	Sent, Acked, Admitted, Pending int64
	Non200                         int64
}

// verdict explains the first violated equality ("" when all hold).
func (c conservation) verdict() string {
	switch {
	case c.Non200 != 0:
		return fmt.Sprintf("%d non-200 responses", c.Non200)
	case c.Acked != c.Sent:
		return fmt.Sprintf("responses acknowledged %d of %d packets sent", c.Acked, c.Sent)
	case c.Admitted != c.Sent:
		return fmt.Sprintf("daemon counted %d injections for %d packets sent", c.Admitted, c.Sent)
	case c.Pending != 0:
		return fmt.Sprintf("%d packets pending after /quiesce", c.Pending)
	}
	return ""
}

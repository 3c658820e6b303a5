package dataplane

import (
	"eventnet/internal/nes"
	"eventnet/internal/obs"
)

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

// transition is the swap a hop runs under: while epoch old drains,
// whatever one of its packets detects is also admitted, through
// mapEvent, into next's view of the same switch.
type transition struct {
	old      int
	next     *progState
	mapEvent []int
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
	var tr *transition
	if e.swap != nil && len(e.progs) == 2 {
		tr = &transition{old: e.progs[0].epoch, next: e.progs[1], mapEvent: e.swap.spec.MapEvent}
	}
	sw, dests := int32(e.switches[i]), e.dests[i]
	hops := wk.n[obs.CtrHops]
	for r.len() > 0 {
		p := r.peekRef()
		rec := &e.emitBuf[p.seq-e.genLo-1]
		rec.w, rec.start = wk.id, int32(len(wk.outbox))
		if wk.curPS == nil || p.epoch != wk.curEpoch {
			wk.curPS, wk.curEpoch = e.prog(p.epoch), p.epoch
		}
		hop(wk, wk.curPS, i, sw, dests, p, tr)
		rec.n = int32(len(wk.outbox)) - rec.start
		r.drop()
	}
	e.hops[i] += wk.n[obs.CtrHops] - hops
}

// hop forwards packet p one switch-hop at switch index i, whose ID is sw
// and whose egress ports lead to dests: Figure 7's SWITCH rule. ps is the
// program epoch p is stamped with (nil once retired), tr the swap in
// progress (nil when none). It forwards by p's tag, detects what p's
// arrival enables, updates the switch's view and gossips the digest on
// every copy. All it reads arrives as an argument, and all it writes
// lands in wk, p, ps's views and detection memo, or tr.next's views.
func hop(wk *worker, ps *progState, i int, sw int32, dests []portDest, p *qpkt, tr *transition) {
	if p.hops >= maxPacketHops {
		wk.drop(p, sw, obs.HopTTLDrop, -1) // forwarding loop (see maxPacketHops)
		return
	}
	wk.n[obs.CtrHops]++
	if ps == nil {
		wk.drop(p, sw, obs.HopStale, -1) // stamped by a retired epoch; cannot happen post-drain
		return
	}

	// Event handling: learn from the digest, detect newly enabled
	// events this packet's arrival matches, update the local view.
	view := ps.views[i]
	known := view.Union(p.digest)
	newly := ps.detect(i, p.inPort, p.vals, p.pres, known)
	ps.views[i] = known.Union(newly)
	outDigest := p.digest.Union(view).Union(newly)
	if newly != nes.Empty {
		// Detection is rare: a count and an append to the worker's
		// log, read at the next feed.
		wk.n[obs.CtrEventsFired] += int64(newly.Count())
		wk.logDetect(p, sw, newly)
	}

	// Live knowledge transfer during a transition: an event the old
	// program detects at this switch is admitted into the *new*
	// program's view here too (through the event mapping), so
	// detections made by draining packets are not lost to the
	// successor. Detection happens exactly once per event, at one
	// switch, so this rule together with the flip-time replay is the
	// complete carry-over discipline (docs/CONTROLLER.md).
	if tr != nil && p.epoch == tr.old {
		wk.n[obs.CtrDrainedHops]++
		if newly != nes.Empty {
			if mapped := mapEvents(newly, tr.mapEvent); mapped != nes.Empty {
				tr.next.views[i] = tr.next.nes.Admit(tr.next.views[i], mapped)
			}
		}
	}

	// Forward with the packet's tagged configuration of its epoch.
	ft := ps.flat[p.version][i]
	if ft == nil {
		wk.drop(p, sw, obs.HopStale, -1)
		return
	}
	ri := ft.lookup(p.vals, p.pres, p.inPort, 0)
	if ri < 0 {
		wk.drop(p, sw, obs.HopRuleDrop, -1) // default drop
		return
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
		wk.drop(p, sw, obs.HopRuleDrop, ri) // drop, or every copy leaves the modeled network
		return
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
				sw:     sw,
				gen:    wk.gen,
			})
			wk.n[obs.CtrDeliveries]++
			if wk.ms != nil && p.tns != 0 {
				wk.ms.Observe(obs.HistDeliveryNs, wk.nowNs-p.tns)
			}
			if p.trace != 0 {
				wk.traceRec(p, sw, obs.HopDeliver, ri, 0, int32(gi), d.host)
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
		wk.traceRec(p, sw, obs.HopForward, ri, int32(len(wk.outbox)-outStart), p.branch, "")
	}
}

// drop discards the packet being consumed at switch sw, the hop's one
// exit without emissions: it counts the drop (TTL, or a rule drop for
// every other kind), records it on a traced journey, and returns the
// packet's value array to the free list.
func (wk *worker) drop(p *qpkt, sw int32, kind obs.HopKind, rank int32) {
	if kind == obs.HopTTLDrop {
		wk.n[obs.CtrTTLDrops]++
	} else {
		wk.n[obs.CtrRuleDrops]++
	}
	if p.trace != 0 {
		wk.traceRec(p, sw, kind, rank, 0, p.branch, "")
	}
	wk.recycle(p.vals)
}

// traceRec appends one trace record for the packet being consumed at
// switch sw. branch is the packet's own, except on a deliver record,
// which carries the emitting group's index.
func (wk *worker) traceRec(p *qpkt, sw int32, kind obs.HopKind, rank, out, branch int32, host string) {
	wk.ts.Add(obs.HopRec{
		Trace: p.trace, Kind: kind, Switch: sw, InPort: int32(p.inPort),
		Rank: rank, Out: out, Branch: branch,
		Epoch: int32(p.epoch), Version: int32(p.version),
		Gen: wk.gen, Seq: p.seq, Host: host,
	})
}

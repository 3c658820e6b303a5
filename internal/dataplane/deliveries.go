package dataplane

import (
	"slices"

	"eventnet/internal/netkat"
)

// Delivery is a packet received by a host, with the stamp that carried it.
type Delivery struct {
	Host   string
	Fields netkat.Packet
	Stamp  Stamp
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
	sw     int32 // ID of the switch that delivered it
	gen    int64 // generation it was delivered in
}

// materialize converts the retained delivery to its public form.
func (d *flatDelivery) materialize() Delivery {
	return Delivery{Host: d.host, Fields: d.schema.materialize(d.inert, d.vals, d.pres), Stamp: d.stamp}
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
		e.feed() // the dlog cursors reset below
	}
	start := len(e.deliveries)
	for _, wk := range e.ws {
		e.deliveries = append(e.deliveries, wk.dlog...)
		for i := range wk.dlog {
			wk.dlog[i] = flatDelivery{} // release references
		}
		wk.dlog = wk.dlog[:0]
		wk.dlogFed = 0
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

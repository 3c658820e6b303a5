package dataplane

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// ForwardsWith reports whether the engine's current program forwards
// through the plan's own schema and compiled tables — the same objects,
// not equal copies — i.e. whether adopting the program lowered nothing.
func (e *Engine) ForwardsWith(p *Plan) bool {
	ps := e.cur()
	if ps.plan != p || ps.schema != p.schema {
		return false
	}
	for ci := range p.flats {
		for sw, ft := range p.flats[ci] {
			if i, ok := e.swIdx[sw]; ok && ps.flat[ci][i] != ft {
				return false
			}
		}
	}
	return true
}

// DistinctFlats counts the plan's distinct compiled tables: what PlanFor
// lowered, as opposed to the (configuration, switch) slots that hold them.
func (p *Plan) DistinctFlats() int {
	seen := map[*flatTable]bool{}
	for ci := range p.flats {
		for _, ft := range p.flats[ci] {
			seen[ft] = true
		}
	}
	return len(seen)
}

// MaxInboxPackets is the served-mode inbox bound.
const MaxInboxPackets = maxInboxPackets

// IngressState reads, at a barrier, what a rejected injection must leave
// untouched: the engine's seq, the length of worker 0's free list, and
// the slack of the queued packets' inert sets — how many pairs the sets
// hold beyond the shares of the packets that reference them (a rejected
// packet's pairs left in its call's set).
func (e *Engine) IngressState() (seq int64, free, slack int) {
	e.Do(func() {
		seq, free = e.seq, len(e.ws[0].free)
		sets := map[*inertSet]int{}
		for _, r := range e.rings {
			for i := r.head; i < r.tail; i++ {
				if in := r.buf[i&(len(r.buf)-1)].inert; in.set != nil {
					sets[in.set] += int(in.hi - in.lo)
				}
			}
		}
		for set, shares := range sets {
			slack += len(set.pairs) - shares
		}
	})
	return seq, free, slack
}

// generation runs exactly one generation.
func (e *Engine) generation() { e.runChunk(1) }

// DeliveredTo returns the packets delivered to the named host, in
// delivery order.
func (e *Engine) DeliveredTo(host string) []netkat.Packet {
	var out []netkat.Packet
	for _, d := range e.CopyDeliveries(0) {
		if d.Host == host {
			out = append(out, d.Fields)
		}
	}
	return out
}

// Schema returns the plan's header schema.
func (p *Plan) Schema() *Schema { return p.schema }

// CompileFlat compiles a table against a schema (which must cover every
// field the table mentions — SchemaForTables or a program schema).
func CompileFlat(t *flowtable.Table, s *Schema) FlatMatcher {
	return FlatMatcher{schema: s, ft: newFlatTable(t, s)}
}

// Len returns the number of rules behind the matcher.
func (m FlatMatcher) Len() int { return len(m.ft.rules) }

// SchemaForTables builds a schema from flow tables alone (no event
// guards) — the form standalone matcher tests use for merged tables.
func SchemaForTables(ts flowtable.Tables) *Schema {
	var out []string
	for _, t := range ts {
		out = appendTableFields(out, t)
	}
	return NewSchema(out)
}

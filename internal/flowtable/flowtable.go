// Package flowtable models OpenFlow-style prioritized match-action tables,
// extended with the version (configuration-ID) guards of Section 4.1.
// Installed tables are per configuration, so their rules carry the
// all-pass guard, or an exact guard in a staged swap's merged tables; the
// masked guards of the Section 5.3 trie (internal/optimize) only count
// rules and are never installed.
//
// A rule matches a packet when the version guard matches the packet's tag
// and the rule's conjunction of field literals holds, "pt" testing the
// ingress port. Inequality literals are a simulator convenience standing
// in for the priority-shadowing encoding a hardware compiler would use;
// rule counts reported treat each rule as one TCAM entry either way.
//
// Rule actions are action *groups* (as in OpenFlow group tables): each
// group applies its field rewrites to the packet as it arrived and emits
// one copy. This matches NetKAT union semantics, where each summand of a
// policy rewrites the original packet independently.
package flowtable

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"eventnet/internal/netkat"
)

// Wildcard stands for any ingress port: the port a Match key shows when
// its Cond does not pin "pt".
const Wildcard = -1

// VersionGuard matches configuration-ID tags: a tag v matches when
// v & Mask == Value & Mask. A zero Mask matches every tag.
type VersionGuard struct {
	Value uint32
	Mask  uint32
}

// ExactGuard returns a guard matching only the given configuration ID,
// using the given number of significant bits.
func ExactGuard(id uint32, bits int) VersionGuard {
	if bits <= 0 {
		bits = 1
	}
	mask := uint32(1)<<uint(bits) - 1
	return VersionGuard{Value: id & mask, Mask: mask}
}

// Matches reports whether the guard admits the given tag.
func (g VersionGuard) Matches(tag uint32) bool { return tag&g.Mask == g.Value&g.Mask }

// String renders the guard as a masked binary pattern, e.g. "1*" for
// value 10 mask 10 over two bits; "*" matches everything.
func (g VersionGuard) String() string {
	if g.Mask == 0 {
		return "*"
	}
	hi := 31
	for hi > 0 && g.Mask&(1<<uint(hi)) == 0 {
		hi--
	}
	var b strings.Builder
	for i := hi; i >= 0; i-- {
		switch {
		case g.Mask&(1<<uint(i)) == 0:
			b.WriteByte('*')
		case g.Value&(1<<uint(i)) != 0:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Match is the match part of a rule: a conjunction of field literals, in
// which "pt" tests the ingress port, under a version guard. Cond is
// read-only once the rule is built, so rules may share it.
type Match struct {
	Cond  *netkat.Conj
	Guard VersionGuard
}

// Matches reports whether the match admits a packet with the given fields,
// ingress port, and version tag. A field absent from the packet fails an
// equality literal and passes an inequality literal. No rule tests "sw".
func (m Match) Matches(pkt netkat.Packet, inPort int, tag uint32) bool {
	return m.Guard.Matches(tag) && m.Cond.Eval(netkat.LocatedPacket{Pkt: pkt, Loc: netkat.Location{Port: inPort}})
}

// Specificity scores how constrained the match is, 10 per equality and 1
// per inequality; more-specific rules get higher priority so that
// overlap-resolution intersections shadow the rules they refine.
func (m Match) Specificity() int {
	s := 0
	for _, l := range m.Cond.Lits() {
		if l.Eq {
			s += 10
		} else {
			s++
		}
	}
	return s
}

// Key returns a canonical identity for the match, ignoring the guard: the
// ingress port as "in=p;" (p is Wildcard when "pt" is not pinned) and one
// "in!=p;" per excluded port, then the key of the other literals.
func (m Match) Key() string {
	pt, ok := m.Cond.Eq(netkat.FieldPt)
	if !ok {
		pt = Wildcard
	}
	b := strconv.AppendInt([]byte("in="), int64(pt), 10)
	b = append(b, ';')
	for _, v := range m.Cond.Neq(netkat.FieldPt) {
		b = append(b, "in!="...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ';')
	}
	return string(m.Cond.AppendKey(b, netkat.FieldPt))
}

// ActionGroup applies Sets to the packet as it arrived and emits one copy
// on OutPort.
type ActionGroup struct {
	Sets    map[string]int
	OutPort int
}

// Key returns a canonical identity for the group.
func (g ActionGroup) Key() string {
	fs := make([]string, 0, len(g.Sets))
	for f := range g.Sets {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s<-%d,", f, g.Sets[f])
	}
	fmt.Fprintf(&b, "out(%d)", g.OutPort)
	return b.String()
}

// String renders the group.
func (g ActionGroup) String() string { return g.Key() }

// Output is one packet emitted by table processing.
type Output struct {
	Pkt  netkat.Packet
	Port int
}

// Rule is one prioritized match-action entry. Higher Priority wins.
type Rule struct {
	Priority int
	Match    Match
	Groups   []ActionGroup // empty means drop
}

// Key returns a canonical identity for the rule ignoring its version guard
// and priority — the identity used by the Section 5.3 optimizer, which
// shares identical rules across configurations by widening guards.
func (r Rule) Key() string {
	keys := make([]string, 0, len(r.Groups))
	for _, g := range r.Groups {
		keys = append(keys, g.Key())
	}
	sort.Strings(keys)
	return r.Match.Key() + "->" + strings.Join(keys, "|")
}

// String renders the rule.
func (r Rule) String() string {
	var acts []string
	for _, g := range r.Groups {
		acts = append(acts, g.String())
	}
	if len(acts) == 0 {
		acts = []string{"drop"}
	}
	return fmt.Sprintf("[p%d g=%v %s -> %s]", r.Priority, r.Match.Guard, r.Match.Key(), strings.Join(acts, " ; "))
}

// AppendApply appends the rule's emitted copies to dst and returns the
// extended slice. This is the hot-path form: with a reusable dst buffer the
// only allocation left is the single right-sized map a rewriting group
// inherently needs (pass-through groups emit the input packet itself).
// The rewritten copy is built in one pass at its final size rather than
// cloned and then grown, so the scan reference path pays exactly one map
// allocation per rewriting emission — keeping the scan-vs-indexed
// throughput comparison apples-to-apples.
func (r Rule) AppendApply(dst []Output, pkt netkat.Packet) []Output {
	for _, g := range r.Groups {
		cur := pkt
		if len(g.Sets) > 0 {
			cur = make(netkat.Packet, len(pkt)+len(g.Sets))
			for f, v := range pkt {
				cur[f] = v
			}
			for f, v := range g.Sets {
				cur[f] = v
			}
		}
		dst = append(dst, Output{Pkt: cur, Port: g.OutPort})
	}
	return dst
}

// Table is a single switch's flow table, kept sorted by descending
// priority (stable for equal priorities).
type Table struct {
	Rules []Rule
}

// AddAll appends rules and restores priority order with a single sort;
// use it when installing a whole compiled table.
func (t *Table) AddAll(rs []Rule) {
	t.Rules = append(t.Rules, rs...)
	sort.SliceStable(t.Rules, func(i, j int) bool { return t.Rules[i].Priority > t.Rules[j].Priority })
}

// AppendProcess runs the packet through the table: the highest-priority
// matching rule fires, and its emitted packets are appended to dst
// (nothing on default drop or a rule with no groups). With a reused buffer the linear-scan path performs no per-call
// allocations beyond the clones rewriting groups require, which keeps the
// scan baseline in throughput comparisons honest. A nil table is a switch
// the configuration installs nothing on: default drop, so the executors
// can index Tables[sw] and call this without a presence check.
func (t *Table) AppendProcess(dst []Output, pkt netkat.Packet, inPort int, tag uint32) []Output {
	if r := t.first(pkt, inPort, tag); r != nil {
		return r.AppendApply(dst, pkt)
	}
	return dst
}

// Emits reports whether AppendProcess(nil, pkt, inPort, tag) holds the
// output (out, outPort), building none of it.
func (t *Table) Emits(pkt netkat.Packet, inPort int, tag uint32, out netkat.Packet, outPort int) bool {
	if r := t.first(pkt, inPort, tag); r != nil {
		for _, g := range r.Groups {
			if g.OutPort == outPort && g.yields(pkt, out) {
				return true
			}
		}
	}
	return false
}

// yields reports whether the group's copy of pkt has exactly out's
// fields: as many as pkt and Sets name together, each valued as Sets,
// else pkt, says.
func (g ActionGroup) yields(pkt, out netkat.Packet) bool {
	if len(g.Sets) == 0 {
		return pkt.Equal(out)
	}
	n := len(pkt)
	for f := range g.Sets {
		if _, had := pkt[f]; !had {
			n++
		}
	}
	for f, v := range out {
		w, ok := g.Sets[f]
		if !ok {
			w, ok = pkt[f]
		}
		if !ok || w != v {
			return false
		}
	}
	return len(out) == n
}

// first returns the highest-priority rule matching the packet, or nil.
func (t *Table) first(pkt netkat.Packet, inPort int, tag uint32) *Rule {
	if t == nil {
		return nil
	}
	for i := range t.Rules {
		if t.Rules[i].Match.Matches(pkt, inPort, tag) {
			return &t.Rules[i]
		}
	}
	return nil
}

// Len returns the number of rules.
func (t *Table) Len() int { return len(t.Rules) }

// Tables maps switch ID to its flow table.
type Tables map[int]*Table

// TotalRules returns the rule count summed over all switches — the metric
// reported by the paper's in-text table (18, 43, 72, 158, 152).
func (ts Tables) TotalRules() int {
	n := 0
	for _, t := range ts {
		n += t.Len()
	}
	return n
}

// Get returns the table for a switch, creating it if needed.
func (ts Tables) Get(sw int) *Table {
	t, ok := ts[sw]
	if !ok {
		t = &Table{}
		ts[sw] = t
	}
	return t
}

// Switches returns the switch IDs with tables, sorted.
func (ts Tables) Switches() []int {
	out := make([]int, 0, len(ts))
	for sw := range ts {
		out = append(out, sw)
	}
	sort.Ints(out)
	return out
}

// String renders all tables, for debugging and the snkc CLI.
func (ts Tables) String() string {
	var b strings.Builder
	for _, sw := range ts.Switches() {
		fmt.Fprintf(&b, "switch %d (%d rules):\n", sw, ts[sw].Len())
		for _, r := range ts[sw].Rules {
			fmt.Fprintf(&b, "  %v\n", r)
		}
	}
	return b.String()
}

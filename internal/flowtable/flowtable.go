// Package flowtable models OpenFlow-style prioritized match-action tables,
// extended with the version (configuration-ID) guards of Section 4.1 and
// the wildcard-masked guards produced by the rule-sharing optimization of
// Section 5.3.
//
// A rule matches a packet when the version guard matches the packet's tag,
// the ingress port matches, every equality field matches, and no excluded
// value matches. Exclusion matches are a simulator convenience standing in
// for the priority-shadowing encoding a hardware compiler would use; rule
// counts reported treat each rule as one TCAM entry either way.
//
// Rule actions are action *groups* (as in OpenFlow group tables): each
// group applies its field rewrites to the packet as it arrived and emits
// one copy. This matches NetKAT union semantics, where each summand of a
// policy rewrites the original packet independently.
package flowtable

import (
	"fmt"
	"sort"
	"strings"

	"eventnet/internal/netkat"
)

// Wildcard is the "any" value for ingress port matches.
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

// Match is the match part of a rule.
type Match struct {
	InPort       int              // ingress port, or Wildcard
	ExcludePorts []int            // excluded ingress ports (only with a Wildcard InPort)
	Fields       map[string]int   // required field values
	Excludes     map[string][]int // excluded field values (f != v)
	Guard        VersionGuard
}

// Matches reports whether the match admits a packet with the given fields,
// ingress port, and version tag. A field absent from the packet fails an
// equality match and passes an exclusion match.
func (m Match) Matches(pkt netkat.Packet, inPort int, tag uint32) bool {
	if !m.Guard.Matches(tag) {
		return false
	}
	if m.InPort != Wildcard && m.InPort != inPort {
		return false
	}
	if m.InPort == Wildcard {
		for _, v := range m.ExcludePorts {
			if v == inPort {
				return false
			}
		}
	}
	for f, v := range m.Fields {
		w, ok := pkt[f]
		if !ok || w != v {
			return false
		}
	}
	for f, vs := range m.Excludes {
		w, ok := pkt[f]
		if !ok {
			continue
		}
		for _, v := range vs {
			if w == v {
				return false
			}
		}
	}
	return true
}

// Specificity scores how constrained the match is; more-specific rules get
// higher priority so that overlap-resolution intersections shadow the rules
// they refine.
func (m Match) Specificity() int {
	s := 0
	if m.InPort != Wildcard {
		s += 10
	}
	s += len(m.ExcludePorts)
	s += 10 * len(m.Fields)
	for _, vs := range m.Excludes {
		s += len(vs)
	}
	return s
}

// Key returns a canonical identity for the match, ignoring the guard.
func (m Match) Key() string {
	fs := make([]string, 0, len(m.Fields))
	for f := range m.Fields {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	var b strings.Builder
	fmt.Fprintf(&b, "in=%d;", m.InPort)
	if len(m.ExcludePorts) > 0 {
		ps := append([]int{}, m.ExcludePorts...)
		sort.Ints(ps)
		for _, v := range ps {
			fmt.Fprintf(&b, "in!=%d;", v)
		}
	}
	for _, f := range fs {
		fmt.Fprintf(&b, "%s=%d;", f, m.Fields[f])
	}
	es := make([]string, 0, len(m.Excludes))
	for f := range m.Excludes {
		es = append(es, f)
	}
	sort.Strings(es)
	for _, f := range es {
		vs := append([]int{}, m.Excludes[f]...)
		sort.Ints(vs)
		for _, v := range vs {
			fmt.Fprintf(&b, "%s!=%d;", f, v)
		}
	}
	return b.String()
}

// Clone returns a deep copy of the match.
func (m Match) Clone() Match {
	n := Match{InPort: m.InPort, Guard: m.Guard, Fields: map[string]int{}, Excludes: map[string][]int{}}
	n.ExcludePorts = append(n.ExcludePorts, m.ExcludePorts...)
	for f, v := range m.Fields {
		n.Fields[f] = v
	}
	for f, vs := range m.Excludes {
		n.Excludes[f] = append([]int{}, vs...)
	}
	return n
}

// Intersect computes the intersection of two matches (the region of packets
// both admit). It reports false if the intersection is empty.
func (m Match) Intersect(o Match) (Match, bool) {
	out := m.Clone()
	if o.InPort != Wildcard {
		if out.InPort == Wildcard {
			for _, v := range out.ExcludePorts {
				if v == o.InPort {
					return Match{}, false
				}
			}
			out.InPort = o.InPort
		} else if out.InPort != o.InPort {
			return Match{}, false
		}
	} else {
		for _, v := range o.ExcludePorts {
			if out.InPort == v {
				return Match{}, false
			}
			if out.InPort == Wildcard {
				keep := true
				for _, w := range out.ExcludePorts {
					if w == v {
						keep = false
						break
					}
				}
				if keep {
					out.ExcludePorts = append(out.ExcludePorts, v)
				}
			}
		}
	}
	if out.InPort != Wildcard {
		out.ExcludePorts = nil
	} else {
		sort.Ints(out.ExcludePorts)
	}
	for f, v := range o.Fields {
		if w, ok := out.Fields[f]; ok {
			if w != v {
				return Match{}, false
			}
			continue
		}
		for _, x := range out.Excludes[f] {
			if x == v {
				return Match{}, false
			}
		}
		out.Fields[f] = v
	}
	for f, vs := range o.Excludes {
		for _, v := range vs {
			if w, ok := out.Fields[f]; ok && w == v {
				return Match{}, false
			}
			out.Excludes[f] = append(out.Excludes[f], v)
		}
	}
	// Drop excludes subsumed by equalities and dedup.
	for f := range out.Excludes {
		if _, ok := out.Fields[f]; ok {
			delete(out.Excludes, f)
			continue
		}
		seen := map[int]bool{}
		var vs []int
		for _, v := range out.Excludes[f] {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
		sort.Ints(vs)
		out.Excludes[f] = vs
	}
	return out, true
}

// Subsumes reports whether every packet admitted by o is admitted by m
// (sound syntactic approximation: m's constraints are a subset of o's).
func (m Match) Subsumes(o Match) bool {
	if m.InPort != Wildcard && m.InPort != o.InPort {
		return false
	}
	for _, v := range m.ExcludePorts {
		if o.InPort != Wildcard && o.InPort != v {
			continue // o pins the port to a non-v value; exclusion holds
		}
		found := false
		for _, w := range o.ExcludePorts {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for f, v := range m.Fields {
		if w, ok := o.Fields[f]; !ok || w != v {
			return false
		}
	}
	for f, vs := range m.Excludes {
		for _, v := range vs {
			if w, ok := o.Fields[f]; ok && w != v {
				continue // o pins f to a non-v value; exclusion holds
			}
			found := false
			for _, u := range o.Excludes[f] {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
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
	if t == nil {
		return dst
	}
	for i := range t.Rules {
		if t.Rules[i].Match.Matches(pkt, inPort, tag) {
			return t.Rules[i].AppendApply(dst, pkt)
		}
	}
	return dst
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

// Package trace implements the semantic machinery of Section 2 of the
// paper: network traces, the happens-before relation (Definition 1),
// membership in Traces(C), first occurrences FO(ntr, U), and the
// correctness checkers for event-driven consistent updates (Definition 2)
// and network event structures (Definition 6).
//
// A network trace has one form, the one an execution records: its points
// and each point's parent in its packet tree (NetTrace). The packet
// traces (Trees), the generators of happens-before (a point's parent and
// the previous point at its node) and the well-formedness check
// (Validate) are all read from it.
//
// The checkers are deliberately independent of the runtime in
// internal/runtime: they judge recorded executions from the definitions
// alone, so they can validate the correct implementation and convict the
// uncoordinated baseline.
package trace

import (
	"errors"
	"fmt"
	"slices"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// NetTrace is a network trace ntr = (lp0 lp1 ..., T), held as what an
// execution records: the interleaved sequence of located packets, and
// for each point its predecessor in its packet tree, Parent[i] < i, or
// -1 for a root. T is the family of root-to-leaf paths (Trees); with
// each node's order of points, Parent generates happens-before
// (Definition 1).
//
// Trace points are read-only: internal/runtime and internal/sim record
// the header map a packet carries, not a copy, so a point shares it with
// the executor and with the packet's other points. A caller that alters
// a point's headers replaces Pkt with a clone.
type NetTrace struct {
	Packets []netkat.DPacket
	Parent  []int
}

// Append records a trace point whose predecessor in its packet tree is
// parent, -1 for a root, and returns its index.
func (nt *NetTrace) Append(d netkat.DPacket, parent int) int {
	nt.Packets = append(nt.Packets, d)
	nt.Parent = append(nt.Parent, parent)
	return len(nt.Packets) - 1
}

// Trees returns the packet traces T: the root-to-leaf paths, roots
// ascending and each root's leaves in depth-first order with children
// ascending. Each path is increasing, as a parent precedes its child.
func (nt *NetTrace) Trees() [][]int {
	n := len(nt.Parent)
	// Ascending child lists in CSR form: the children of i are
	// kids[off[i]:off[i+1]]. Counting into off[p+2] and filling through
	// off[p+1] leaves off[i] at the start of i's list.
	off := make([]int, n+2)
	depth := make([]int, n)
	for i, p := range nt.Parent {
		if p >= 0 {
			off[p+2]++
			depth[i] = depth[p] + 1
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	kids := make([]int, off[n+1])
	for i, p := range nt.Parent {
		if p >= 0 {
			kids[off[p+1]] = i
			off[p+1]++
		}
	}
	total, leaves := 0, 0
	for i := range nt.Parent {
		if off[i] == off[i+1] {
			total += depth[i] + 1
			leaves++
		}
	}
	trees := make([][]int, 0, leaves)
	buf := make([]int, 0, total) // every path, back to back
	var path, stack []int
	for r, p := range nt.Parent {
		if p != -1 {
			continue
		}
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			path = append(path[:depth[i]], i)
			if off[i] == off[i+1] {
				a := len(buf)
				buf = append(buf, path...)
				trees = append(trees, buf[a:len(buf):len(buf)])
				continue
			}
			for j := off[i+1] - 1; j >= off[i]; j-- {
				stack = append(stack, kids[j])
			}
		}
	}
	return trees
}

// PacketTrace returns the trace points of tree t.
func (nt *NetTrace) PacketTrace(t []int) []netkat.DPacket {
	out := make([]netkat.DPacket, len(t))
	for i, k := range t {
		out[i] = nt.Packets[k]
	}
	return out
}

// Validate checks what Parent alone does not make true of a network
// trace: each point has a parent entry, each parent precedes its child,
// and each packet trace starts at a host emission. That every point lies
// on some packet trace, and has at most one predecessor, holds by
// construction.
func (nt *NetTrace) Validate(hosts map[netkat.Location]bool) error {
	if len(nt.Parent) != len(nt.Packets) {
		return fmt.Errorf("trace: %d parent entries for %d points", len(nt.Parent), len(nt.Packets))
	}
	for i, p := range nt.Parent {
		switch d := nt.Packets[i]; {
		case p < -1 || p >= i:
			return fmt.Errorf("trace: point %d has parent %d, which does not precede it", i, p)
		case p == -1 && (!hosts[d.Loc] || !d.Out):
			return fmt.Errorf("trace: point %d is a root but not a host emission (%v)", i, d)
		}
	}
	return nil
}

// prevAtNode returns each point's previous point at the same node, -1
// for none. With Parent it generates Definition 1's happens-before: a
// point's immediate predecessors are its tree parent and this point, and
// both precede it in the trace.
func prevAtNode(ps []netkat.DPacket) []int {
	nodes := 0
	for _, d := range ps {
		nodes = max(nodes, d.Loc.Switch+1)
	}
	last := make([]int, nodes) // node -> 1 + its latest point so far, 0 for none
	prev := make([]int, len(ps))
	for i, d := range ps {
		prev[i] = last[d.Loc.Switch] - 1
		last[d.Loc.Switch] = i + 1
	}
	return prev
}

// HB is the happens-before relation of Definition 1, closed transitively.
type HB struct {
	w      int
	before []uint64 // n x ceil(n/64) bit matrix: before[j*w+i/64] bit i iff lp_i ≺ lp_j
}

// HappensBefore computes the least partial order that respects (a) the
// total order induced by the trace at each node and (b) the order along
// each packet trace. Both generators point backwards, so one forward
// sweep closes them: the points before j are j's two predecessors and
// the points before those.
func HappensBefore(nt *NetTrace) *HB {
	n := len(nt.Packets)
	w := (n + 63) / 64
	hb := &HB{w: w, before: make([]uint64, n*w)}
	prev := prevAtNode(nt.Packets)
	for j := range n {
		row := hb.before[j*w : (j+1)*w]
		for _, p := range [2]int{nt.Parent[j], prev[j]} {
			if p < 0 {
				continue
			}
			row[p/64] |= 1 << uint(p%64)
			for k, x := range hb.before[p*w : (p+1)*w] {
				row[k] |= x
			}
		}
	}
	return hb
}

// Before reports lp_i ≺ lp_j.
func (hb *HB) Before(i, j int) bool {
	return hb.before[j*hb.w+i/64]&(1<<uint(i%64)) != 0
}

// InTraces reports whether a packet trace belongs to Traces(C): it starts
// at a host, each consecutive pair is a C-step, and it is complete — it
// either ends absorbed at a host or at a located packet with no C-successor
// (a packet C drops). Completeness is what lets the oracle distinguish "C
// dropped this packet" from "the packet was processed by a different C".
func InTraces(c netkat.DConfig, pt []netkat.DPacket, hosts map[netkat.Location]bool) bool {
	if len(pt) == 0 || !hosts[pt[0].Loc] || !pt[0].Out {
		return false
	}
	for i := 0; i+1 < len(pt); i++ {
		found := false
		for _, next := range c.DStep(pt[i]) {
			if next.Equal(pt[i+1]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	last := pt[len(pt)-1]
	if hosts[last.Loc] && !last.Out {
		return true // absorbed at a host
	}
	return len(c.DStep(last)) == 0 // dropped by C
}

// Update is an event-driven consistent update (U, E): the sequence
// C0 -e0-> C1 -e1-> ... -en-> Cn+1, with len(Configs) == len(Events)+1.
type Update struct {
	Configs []netkat.DConfig
	Events  []nes.Event
}

// FirstOccurrences computes FO(ntr, U): the indices k0 < ... < kn where
// each ki is the first occurrence of event ei after k(i-1), some packet
// trace through ki is in Traces(Ci), and no *pending* event occurs after
// kn. It reports ok=false if no such sequence exists.
//
// `pending` is the set of events that would extend the update: events
// enabled after U's events but not consumed by U. A packet that merely
// re-matches the pattern of a consumed event (the bandwidth cap's renamed
// copies, a second firewall-opening packet) is not an occurrence — an NES
// event happens at most once — and a pattern match of a not-yet-enabled
// event (the IDS's H4->H2 traffic in the initial state) triggers nothing.
// The caller computes pending from the NES's enabling relation.
func FirstOccurrences(nt *NetTrace, u Update, pending []nes.Event, hosts map[netkat.Location]bool) ([]int, bool) {
	ks := make([]int, 0, len(u.Events))
	trees := nt.Trees()
	prev := -1
	for i, e := range u.Events {
		ki := -1
		for j := prev + 1; j < len(nt.Packets); j++ {
			if e.MatchesD(nt.Packets[j]) {
				ki = j
				break
			}
		}
		if ki < 0 {
			return nil, false
		}
		// The event must be triggered by a packet processed in the
		// immediately preceding configuration Ci.
		ok := false
		for _, t := range trees {
			hasKi := false
			for _, k := range t {
				if k == ki {
					hasKi = true
					break
				}
			}
			if hasKi && InTraces(u.Configs[i], nt.PacketTrace(t), hosts) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, false
		}
		ks = append(ks, ki)
		prev = ki
	}
	// No pending event may occur after kn.
	for j := prev + 1; j < len(nt.Packets); j++ {
		for _, e := range pending {
			if e.MatchesD(nt.Packets[j]) {
				return nil, false
			}
		}
	}
	return ks, true
}

// Violation describes how a network trace breaks Definition 2.
type Violation struct {
	Tree   int
	Reason string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("trace: packet trace %d: %s", v.Tree, v.Reason)
}

// CheckUpdate verifies Definition 2: the network trace is correct with
// respect to the update (U, E) — every packet trace is processed entirely
// by one configuration, packets wholly before event ei see only
// configurations up to Ci, and packets wholly after see only Ci+1 onward.
func CheckUpdate(nt *NetTrace, u Update, pending []nes.Event, hosts map[netkat.Location]bool) error {
	if len(u.Configs) != len(u.Events)+1 {
		return fmt.Errorf("trace: malformed update: %d configs for %d events", len(u.Configs), len(u.Events))
	}
	ks, ok := FirstOccurrences(nt, u, pending, hosts)
	if !ok {
		return fmt.Errorf("trace: FO(ntr, U) does not exist")
	}
	hb := HappensBefore(nt)
	for ti, t := range nt.Trees() {
		pt := nt.PacketTrace(t)
		inC := make([]bool, len(u.Configs))
		any := false
		for c := range u.Configs {
			inC[c] = InTraces(u.Configs[c], pt, hosts)
			any = any || inC[c]
		}
		if !any {
			return &Violation{Tree: ti, Reason: "not processed entirely by any single configuration"}
		}
		for i, ki := range ks {
			allBefore := true
			allAfter := true
			for _, j := range t {
				if !hb.Before(j, ki) {
					allBefore = false
				}
				if !hb.Before(ki, j) {
					allAfter = false
				}
			}
			if allBefore {
				okPre := false
				for c := 0; c <= i; c++ {
					if inC[c] {
						okPre = true
						break
					}
				}
				if !okPre {
					return &Violation{Tree: ti, Reason: fmt.Sprintf("happens wholly before event %d (index %d) but is not processed by any of C0..C%d (update too early)", i, ki, i)}
				}
			}
			if allAfter {
				okPost := false
				for c := i + 1; c < len(u.Configs); c++ {
					if inC[c] {
						okPost = true
						break
					}
				}
				if !okPost {
					return &Violation{Tree: ti, Reason: fmt.Sprintf("happens wholly after event %d (index %d) but is not processed by any of C%d..C%d (update too late)", i, ki, i+1, len(u.Configs)-1)}
				}
			}
		}
	}
	return nil
}

// maxVisits bounds the candidate sequences one CheckNES examines.
const maxVisits = 200000

// SearchBoundError reports that CheckNES examined more than Limit
// candidate event sequences without finding one that makes the trace
// correct.
type SearchBoundError struct{ Limit int }

func (e *SearchBoundError) Error() string {
	return fmt.Sprintf("trace: more than %d candidate event sequences", e.Limit)
}

var errNoFO = errors.New("trace: FO(ntr, U) does not exist")

// CheckNES verifies Definition 6: the network trace is correct with
// respect to the NES — some event sequence allowed by the NES (possibly
// empty) makes the trace correct per Definition 2. A sequence's
// forbidden "pending" events are those armed at its final event-set
// (nes.ArmedFrom): their occurrence would have extended the update.
//
// The verdict is that of CheckUpdate run on every allowed sequence, but
// the trace is judged once: one depth-first search over the allowed
// sequences, in nes.AllowedSequences order, that prunes a prefix — and
// with it every extension, whose first occurrences extend the prefix's —
// as soon as its newest event has no first occurrence or was not
// triggered by a packet tree of the preceding configuration. Membership
// of a packet tree in Traces(C) is decided at most once per
// configuration and tree, each step by the configuration's Succ (DStep
// only for the leaf's completeness), and the happens-before cones of
// Definition 1 are computed only around the first occurrences a
// candidate uses.
//
// A trace that Validate rejects is rejected with Validate's error.
func CheckNES(nt *NetTrace, n *nes.NES, hosts map[netkat.Location]bool) error {
	if err := nt.Validate(hosts); err != nil {
		return err
	}
	c0, _ := n.ConfigAt(nes.Empty) // nes.New requires the empty event-set
	s := newSearch(nt, n, hosts)
	if found, err := s.visit(nes.Empty, []int{c0}, nil); found || err != nil {
		return err
	}
	return fmt.Errorf("trace: no allowed sequence of the NES makes the trace correct (last: %v)", s.lastErr)
}

// search is one CheckNES: the trace's structure, derived once, and the
// memos the candidate sequences share.
type search struct {
	nt    *NetTrace
	n     *nes.NES
	hosts map[netkat.Location]bool

	trees  [][]int // nt.Trees()
	prevAt []int   // prevAtNode(nt.Packets)
	// The trees through point k are trees[thrLo[k]:thrHi[k]]: they are
	// the leaves of k's subtree, which Trees lists one after another.
	thrLo, thrHi []int

	inTr  [][]uint8  // config -> tree -> 0 unknown, 1 not in Traces(C), 2 in; rows made on first use
	occ   [][]int    // event ID -> ascending indices of the points matching it; nil until computed
	cones []*hbCones // point -> its happens-before cones; nil until computed

	visits  int
	lastErr error
}

// hbCones are the points that happen before a point and after it.
type hbCones struct{ before, after bitset }

type bitset []uint64

func (b bitset) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }

func newSearch(nt *NetTrace, n *nes.NES, hosts map[netkat.Location]bool) *search {
	np := len(nt.Packets)
	s := &search{
		nt: nt, n: n, hosts: hosts,
		trees:  nt.Trees(),
		prevAt: prevAtNode(nt.Packets),
		thrLo:  make([]int, np),
		thrHi:  make([]int, np),
		inTr:   make([][]uint8, len(n.Configs)),
		occ:    make([][]int, len(n.Events)),
		cones:  make([]*hbCones, np),
	}
	for ti, t := range s.trees {
		for _, k := range t {
			if s.thrHi[k] == 0 {
				s.thrLo[k] = ti
			}
			s.thrHi[k] = ti + 1
		}
	}
	return s
}

// visit examines the candidate sequence that reached event-set set —
// configurations cfgs (C0..Cm), first occurrences ks (k0..k(m-1)) — and
// then its extensions. It reports whether some candidate among them
// makes the trace correct.
func (s *search) visit(set nes.Set, cfgs, ks []int) (bool, error) {
	if s.visits++; s.visits > maxVisits {
		return false, &SearchBoundError{Limit: maxVisits}
	}
	last := -1
	if len(ks) > 0 {
		last = ks[len(ks)-1]
	}
	armed := s.n.ArmedFrom(set).Elems()
	if !s.quietAfter(armed, last) {
		s.lastErr = errNoFO
	} else if err := s.correct(cfgs, ks); err != nil {
		s.lastErr = err
	} else {
		return true, nil
	}
	for _, e := range armed {
		next := set.With(e)
		c, ok := s.n.ConfigAt(next)
		if !ok {
			continue
		}
		k := s.firstAfter(e, last)
		if k < 0 || !s.triggered(k, cfgs[len(cfgs)-1]) {
			continue
		}
		if found, err := s.visit(next, append(cfgs, c), append(ks, k)); found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// occurrences returns the ascending indices of the points matching event e.
func (s *search) occurrences(e int) []int {
	if m := s.occ[e]; m != nil {
		return m
	}
	m := []int{}
	ev := &s.n.Events[e]
	for j, d := range s.nt.Packets {
		if ev.MatchesD(d) {
			m = append(m, j)
		}
	}
	s.occ[e] = m
	return m
}

// firstAfter returns the first occurrence of event e after index last,
// or -1.
func (s *search) firstAfter(e, last int) int {
	m := s.occurrences(e)
	if i, _ := slices.BinarySearch(m, last+1); i < len(m) {
		return m[i]
	}
	return -1
}

// quietAfter reports that no event of pending occurs after index last.
func (s *search) quietAfter(pending []int, last int) bool {
	for _, e := range pending {
		if m := s.occurrences(e); len(m) > 0 && m[len(m)-1] > last {
			return false
		}
	}
	return true
}

// triggered reports that some packet tree through point k is in
// Traces(C) for configuration c.
func (s *search) triggered(k, c int) bool {
	for ti := s.thrLo[k]; ti < s.thrHi[k]; ti++ {
		if s.in(c, ti) {
			return true
		}
	}
	return false
}

// in reports whether tree ti is in Traces(C) for configuration c.
func (s *search) in(c, ti int) bool {
	if s.inTr[c] == nil {
		s.inTr[c] = make([]uint8, len(s.trees))
	}
	m := &s.inTr[c][ti]
	if *m == 0 {
		*m = 1
		if s.member(s.n.Configs[c].Rel, s.trees[ti]) {
			*m = 2
		}
	}
	return *m == 2
}

// member is InTraces on the points of tree t, with each step decided by
// c.Succ rather than found in c.DStep's result.
func (s *search) member(c netkat.DConfig, t []int) bool {
	ps := s.nt.Packets
	if len(t) == 0 || !s.hosts[ps[t[0]].Loc] || !ps[t[0]].Out {
		return false
	}
	for i := 1; i < len(t); i++ {
		if !c.Succ(ps[t[i-1]], ps[t[i]]) {
			return false
		}
	}
	last := ps[t[len(t)-1]]
	return s.hosts[last.Loc] && !last.Out || len(c.DStep(last)) == 0
}

// correct is CheckUpdate's per-tree test for the update with
// configurations cfgs and first occurrences ks. A tree is a chain of
// Definition 1, so it happens wholly before k iff its last point does,
// and wholly after k iff its first point does.
func (s *search) correct(cfgs, ks []int) error {
	for ti, t := range s.trees {
		first := 0
		for first < len(cfgs) && !s.in(cfgs[first], ti) {
			first++
		}
		if first == len(cfgs) {
			return &Violation{Tree: ti, Reason: "not processed entirely by any single configuration"}
		}
		// Only events before the first configuration that processes the
		// tree can find it too early, and only the latest event it
		// happens wholly after decides whether it is too late.
		for i := 0; i < first && i < len(ks); i++ {
			if s.cone(ks[i]).before.has(t[len(t)-1]) {
				return &Violation{Tree: ti, Reason: fmt.Sprintf("happens wholly before event %d (index %d) but is not processed by any of C0..C%d (update too early)", i, ks[i], i)}
			}
		}
		for i := len(ks) - 1; i >= 0; i-- {
			if !s.cone(ks[i]).after.has(t[0]) {
				continue
			}
			c := max(first, i+1)
			for c < len(cfgs) && !s.in(cfgs[c], ti) {
				c++
			}
			if c == len(cfgs) {
				return &Violation{Tree: ti, Reason: fmt.Sprintf("happens wholly after event %d (index %d) but is not processed by any of C%d..C%d (update too late)", i, ks[i], i+1, len(cfgs)-1)}
			}
			break
		}
	}
	return nil
}

// cone returns the points that happen before point k and after it. A
// point's predecessors in Definition 1 are its tree parent and the
// previous point at its node: the before-cone is their closure from k,
// and, as predecessors precede, one forward sweep decides the
// after-cone.
func (s *search) cone(k int) *hbCones {
	if c := s.cones[k]; c != nil {
		return c
	}
	w := (len(s.nt.Parent) + 63) / 64
	c := &hbCones{before: make(bitset, w), after: make(bitset, w)}
	for stack := []int{k}; len(stack) > 0; {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range [2]int{s.nt.Parent[j], s.prevAt[j]} {
			if p >= 0 && !c.before.has(p) {
				c.before.set(p)
				stack = append(stack, p)
			}
		}
	}
	for j := k + 1; j < len(s.nt.Parent); j++ {
		for _, p := range [2]int{s.nt.Parent[j], s.prevAt[j]} {
			if p == k || p > k && c.after.has(p) {
				c.after.set(j)
				break
			}
		}
	}
	s.cones[k] = c
	return c
}

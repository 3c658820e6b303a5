package flowtable

import (
	"math/rand"
	"testing"

	"eventnet/internal/netkat"
)

func TestVersionGuard(t *testing.T) {
	g := ExactGuard(2, 2)
	if !g.Matches(2) || g.Matches(3) || g.Matches(0) {
		t.Error("exact guard broken")
	}
	wild := VersionGuard{Value: 0b10, Mask: 0b10}
	if !wild.Matches(0b10) || !wild.Matches(0b11) || wild.Matches(0b01) {
		t.Error("wildcard guard broken")
	}
	if (VersionGuard{}).String() != "*" {
		t.Error("zero-mask guard should render '*'")
	}
	if got := wild.String(); got != "1*" {
		t.Errorf("guard string: %q", got)
	}
	if got := ExactGuard(1, 2).String(); got != "01" {
		t.Errorf("guard string: %q", got)
	}
}

// cond builds the conjunction of the given literals; the tests only
// build satisfiable ones.
func cond(lits ...netkat.Lit) *netkat.Conj {
	c := netkat.NewConj()
	for _, l := range lits {
		if !c.Add(l) {
			panic("unsatisfiable test conjunction")
		}
	}
	return c
}

func eq(f string, v int) netkat.Lit  { return netkat.Lit{F: f, V: v, Eq: true} }
func neq(f string, v int) netkat.Lit { return netkat.Lit{F: f, V: v} }

// intersect is the intersection of two matches' regions, as the compiler
// forms it: a clone of the first conjunction merged with the second.
func intersect(m, o Match) (Match, bool) {
	c := m.Cond.Clone()
	return Match{Cond: c, Guard: m.Guard}, c.MergeWith(o.Cond)
}

func TestMatchMatches(t *testing.T) {
	m := Match{Cond: cond(eq(netkat.FieldPt, 2), eq("dst", 104), neq("src", 9))}
	pkt := netkat.Packet{"dst": 104, "src": 1}
	if !m.Matches(pkt, 2, 0) {
		t.Error("match failed")
	}
	if m.Matches(pkt, 1, 0) {
		t.Error("wrong in-port matched")
	}
	if m.Matches(netkat.Packet{"dst": 105}, 2, 0) {
		t.Error("wrong field matched")
	}
	if m.Matches(netkat.Packet{"src": 1}, 2, 0) {
		t.Error("missing field matched equality")
	}
	if m.Matches(netkat.Packet{"dst": 104, "src": 9}, 2, 0) {
		t.Error("excluded value matched")
	}
	// Absent field passes exclusion.
	if !m.Matches(netkat.Packet{"dst": 104}, 2, 0) {
		t.Error("absent field failed exclusion")
	}
	if got := m.Key(); got != "in=2;dst=104;src!=9;" {
		t.Errorf("key %q", got)
	}
	if got := m.Specificity(); got != 21 {
		t.Errorf("specificity %d, want 10 per equality and 1 per exclusion", got)
	}
}

// TestMatchExcludePorts: wildcard-ingress matches can exclude specific
// ports (emitted by the FDD backend's lo branches on "pt").
func TestMatchExcludePorts(t *testing.T) {
	m := Match{Cond: cond(neq(netkat.FieldPt, 3), neq(netkat.FieldPt, 2))}
	pkt := netkat.Packet{"dst": 104}
	if !m.Matches(pkt, 1, 0) || !m.Matches(pkt, 4, 0) {
		t.Error("allowed port rejected")
	}
	if m.Matches(pkt, 2, 0) || m.Matches(pkt, 3, 0) {
		t.Error("excluded port matched")
	}
	exact := Match{Cond: cond(eq(netkat.FieldPt, 2))}
	if _, ok := intersect(m, exact); ok {
		t.Error("intersection with excluded exact port accepted")
	}
	other := Match{Cond: cond(eq(netkat.FieldPt, 4))}
	inter, ok := intersect(m, other)
	if !ok || inter.Key() != "in=4;" {
		t.Errorf("intersection with allowed exact port: %v %v", inter.Key(), ok)
	}
	if !m.Cond.Subsumes(other.Cond) {
		t.Error("port exclusion must subsume a pinned non-excluded port")
	}
	if m.Cond.Subsumes(exact.Cond) {
		t.Error("port exclusion must not subsume its excluded port")
	}
	if got := m.Key(); got != "in=-1;in!=2;in!=3;" {
		t.Errorf("port exclusions missing from key: %q", got)
	}
}

func TestMatchIntersectSubsumes(t *testing.T) {
	broad := Match{Cond: cond(eq(netkat.FieldPt, 2))}
	narrow := Match{Cond: cond(eq(netkat.FieldPt, 2), eq("dst", 7))}
	if !broad.Cond.Subsumes(narrow.Cond) {
		t.Error("broad must subsume narrow")
	}
	if narrow.Cond.Subsumes(broad.Cond) {
		t.Error("narrow must not subsume broad")
	}
	inter, ok := intersect(broad, narrow)
	if v, _ := inter.Cond.Eq("dst"); !ok || v != 7 {
		t.Errorf("intersection: %v %v", inter.Key(), ok)
	}
	disjoint := Match{Cond: cond(eq(netkat.FieldPt, 2), eq("dst", 8))}
	if _, ok := intersect(narrow, disjoint); ok {
		t.Error("disjoint matches intersected")
	}
	excl := Match{Cond: cond(eq(netkat.FieldPt, 2), neq("dst", 7))}
	if _, ok := intersect(narrow, excl); ok {
		t.Error("exclusion-contradicting intersection accepted")
	}
}

// TestIntersectSemantics: a packet is in the intersection region iff it
// matches both.
func TestIntersectSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	randMatch := func() Match {
		c := netkat.NewConj()
		if r.Intn(2) == 0 {
			c.AddEq(netkat.FieldPt, 1+r.Intn(2))
		} else if r.Intn(2) == 0 {
			c.AddNeq(netkat.FieldPt, 1+r.Intn(2))
		}
		for _, f := range []string{"a", "b"} {
			switch r.Intn(3) {
			case 0:
				c.AddEq(f, r.Intn(3))
			case 1:
				c.AddNeq(f, r.Intn(3))
			}
		}
		return Match{Cond: c}
	}
	for i := 0; i < 500; i++ {
		m1, m2 := randMatch(), randMatch()
		inter, ok := intersect(m1, m2)
		pkt := netkat.Packet{"a": r.Intn(3), "b": r.Intn(3)}
		port := 1 + r.Intn(2)
		both := m1.Matches(pkt, port, 0) && m2.Matches(pkt, port, 0)
		if ok {
			if got := inter.Matches(pkt, port, 0); got != both {
				t.Fatalf("intersection mismatch: m1=%v m2=%v pkt=%v port=%d", m1.Key(), m2.Key(), pkt, port)
			}
		} else if both {
			t.Fatalf("empty intersection but both match: m1=%v m2=%v pkt=%v", m1.Key(), m2.Key(), pkt)
		}
	}
}

func TestTablePriorityAndGroups(t *testing.T) {
	tbl := &Table{}
	tbl.AddAll([]Rule{{
		Priority: 1,
		Match:    Match{Cond: cond()},
		Groups:   []ActionGroup{{Sets: map[string]int{}, OutPort: 9}},
	}, {
		Priority: 10,
		Match:    Match{Cond: cond(eq("dst", 7))},
		Groups: []ActionGroup{
			{Sets: map[string]int{"tos": 5}, OutPort: 1},
			{Sets: map[string]int{}, OutPort: 2},
		},
	}})
	outs := tbl.AppendProcess(nil, netkat.Packet{"dst": 7}, 0, 0)
	if len(outs) != 2 {
		t.Fatalf("multicast outputs: %v", outs)
	}
	// Group semantics: each group rewrites the packet as it arrived.
	if outs[0].Pkt["tos"] != 5 || outs[0].Port != 1 {
		t.Errorf("group 1: %v", outs[0])
	}
	if _, has := outs[1].Pkt["tos"]; has || outs[1].Port != 2 {
		t.Errorf("group 2 saw group 1's rewrite: %v", outs[1])
	}
	// Lower-priority fallback.
	outs = tbl.AppendProcess(nil, netkat.Packet{"dst": 8}, 0, 0)
	if len(outs) != 1 || outs[0].Port != 9 {
		t.Errorf("fallback: %v", outs)
	}
	// Default drop.
	empty := &Table{}
	if outs := empty.AppendProcess(nil, netkat.Packet{}, 0, 0); outs != nil {
		t.Errorf("empty table forwarded: %v", outs)
	}
}

func TestTablesAccounting(t *testing.T) {
	ts := Tables{}
	ts.Get(4).AddAll([]Rule{{Match: Match{Cond: cond()}, Groups: nil}})
	ts.Get(1).AddAll([]Rule{{Match: Match{Cond: cond()}, Groups: nil}})
	ts.Get(1).AddAll([]Rule{{Match: Match{Cond: cond(eq(netkat.FieldPt, 2))}, Groups: nil}})
	if ts.TotalRules() != 3 {
		t.Errorf("TotalRules: %d", ts.TotalRules())
	}
	sws := ts.Switches()
	if len(sws) != 2 || sws[0] != 1 || sws[1] != 4 {
		t.Errorf("Switches: %v", sws)
	}
}

func TestRuleKeyIgnoresGuardAndPriority(t *testing.T) {
	mk := func(prio int, g VersionGuard) Rule {
		return Rule{
			Priority: prio,
			Match:    Match{Cond: cond(eq(netkat.FieldPt, 2), eq("dst", 7)), Guard: g},
			Groups:   []ActionGroup{{Sets: map[string]int{}, OutPort: 1}},
		}
	}
	a := mk(1, ExactGuard(0, 2))
	b := mk(9, ExactGuard(3, 2))
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

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

func TestMatchMatches(t *testing.T) {
	m := Match{
		InPort:   2,
		Fields:   map[string]int{"dst": 104},
		Excludes: map[string][]int{"src": {9}},
	}
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
}

// TestMatchExcludePorts: wildcard-ingress matches can exclude specific
// ports (emitted by the FDD backend's lo branches on "pt").
func TestMatchExcludePorts(t *testing.T) {
	m := Match{InPort: Wildcard, ExcludePorts: []int{2, 3}, Fields: map[string]int{}, Excludes: map[string][]int{}}
	pkt := netkat.Packet{"dst": 104}
	if !m.Matches(pkt, 1, 0) || !m.Matches(pkt, 4, 0) {
		t.Error("allowed port rejected")
	}
	if m.Matches(pkt, 2, 0) || m.Matches(pkt, 3, 0) {
		t.Error("excluded port matched")
	}
	exact := Match{InPort: 2, Fields: map[string]int{}, Excludes: map[string][]int{}}
	if _, ok := m.Intersect(exact); ok {
		t.Error("intersection with excluded exact port accepted")
	}
	other := Match{InPort: 4, Fields: map[string]int{}, Excludes: map[string][]int{}}
	inter, ok := m.Intersect(other)
	if !ok || inter.InPort != 4 || len(inter.ExcludePorts) != 0 {
		t.Errorf("intersection with allowed exact port: %v %v", inter.Key(), ok)
	}
	if !m.Subsumes(other) {
		t.Error("port exclusion must subsume a pinned non-excluded port")
	}
	if m.Subsumes(exact) {
		t.Error("port exclusion must not subsume its excluded port")
	}
	if m.Key() == (Match{InPort: Wildcard, Fields: map[string]int{}, Excludes: map[string][]int{}}).Key() {
		t.Error("ExcludePorts missing from Key")
	}
	if m.Clone().Key() != m.Key() {
		t.Error("Clone dropped ExcludePorts")
	}
}

func TestMatchIntersectSubsumes(t *testing.T) {
	broad := Match{InPort: 2, Fields: map[string]int{}, Excludes: map[string][]int{}}
	narrow := Match{InPort: 2, Fields: map[string]int{"dst": 7}, Excludes: map[string][]int{}}
	if !broad.Subsumes(narrow) {
		t.Error("broad must subsume narrow")
	}
	if narrow.Subsumes(broad) {
		t.Error("narrow must not subsume broad")
	}
	inter, ok := broad.Intersect(narrow)
	if !ok || inter.Fields["dst"] != 7 {
		t.Errorf("intersection: %v %v", inter, ok)
	}
	disjoint := Match{InPort: 2, Fields: map[string]int{"dst": 8}, Excludes: map[string][]int{}}
	if _, ok := narrow.Intersect(disjoint); ok {
		t.Error("disjoint matches intersected")
	}
	excl := Match{InPort: 2, Fields: map[string]int{}, Excludes: map[string][]int{"dst": {7}}}
	if _, ok := narrow.Intersect(excl); ok {
		t.Error("exclusion-contradicting intersection accepted")
	}
}

// TestIntersectSemantics: a packet is in the intersection region iff it
// matches both.
func TestIntersectSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	randMatch := func() Match {
		m := Match{InPort: Wildcard, Fields: map[string]int{}, Excludes: map[string][]int{}}
		if r.Intn(2) == 0 {
			m.InPort = 1 + r.Intn(2)
		} else if r.Intn(2) == 0 {
			m.ExcludePorts = []int{1 + r.Intn(2)}
		}
		for _, f := range []string{"a", "b"} {
			switch r.Intn(3) {
			case 0:
				m.Fields[f] = r.Intn(3)
			case 1:
				m.Excludes[f] = []int{r.Intn(3)}
			}
		}
		return m
	}
	for i := 0; i < 500; i++ {
		m1, m2 := randMatch(), randMatch()
		inter, ok := m1.Intersect(m2)
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
		Match:    Match{InPort: Wildcard, Fields: map[string]int{}, Excludes: map[string][]int{}},
		Groups:   []ActionGroup{{Sets: map[string]int{}, OutPort: 9}},
	}, {
		Priority: 10,
		Match:    Match{InPort: Wildcard, Fields: map[string]int{"dst": 7}, Excludes: map[string][]int{}},
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
	ts.Get(4).AddAll([]Rule{{Match: Match{InPort: Wildcard}, Groups: nil}})
	ts.Get(1).AddAll([]Rule{{Match: Match{InPort: Wildcard}, Groups: nil}})
	ts.Get(1).AddAll([]Rule{{Match: Match{InPort: 2}, Groups: nil}})
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
			Match:    Match{InPort: 2, Fields: map[string]int{"dst": 7}, Excludes: map[string][]int{}, Guard: g},
			Groups:   []ActionGroup{{Sets: map[string]int{}, OutPort: 1}},
		}
	}
	a := mk(1, ExactGuard(0, 2))
	b := mk(9, ExactGuard(3, 2))
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

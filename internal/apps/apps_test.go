package apps

import (
	"testing"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// TestAllValid: topologies validate and programs enumerate their expected
// state spaces.
func TestAllValid(t *testing.T) {
	wantStates := map[string]int{
		"firewall":         2,
		"learning-switch":  2,
		"authentication":   3,
		"bandwidth-cap-10": 12,
		"ids":              3,
	}
	for _, a := range All() {
		if err := a.Topo.Validate(); err != nil {
			t.Errorf("%s: topology: %v", a.Name, err)
		}
		states, _, err := a.Prog.ReachableStates()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if want := wantStates[a.Name]; len(states) != want {
			t.Errorf("%s: %d states, want %d", a.Name, len(states), want)
		}
	}
}

// TestFirewallProjections: the two firewall configurations forward as the
// paper describes — C[0] outgoing only, C[1] both directions.
func TestFirewallProjections(t *testing.T) {
	a := Firewall()
	outPkt := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(4)}, Loc: netkat.Location{Switch: 1, Port: 2}}
	backPkt := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(1)}, Loc: netkat.Location{Switch: 4, Port: 2}}

	c0 := stateful.Project(a.Prog.Cmd, stateful.State{0})
	c1 := stateful.Project(a.Prog.Cmd, stateful.State{1})

	if got := netkat.Eval(c0, outPkt); len(got) != 1 || got[0].Loc != (netkat.Location{Switch: 4, Port: 2}) {
		t.Errorf("C[0] outgoing: %v", got)
	}
	if got := netkat.Eval(c0, backPkt); len(got) != 0 {
		t.Errorf("C[0] must drop incoming: %v", got)
	}
	if got := netkat.Eval(c1, backPkt); len(got) != 1 || got[0].Loc != (netkat.Location{Switch: 1, Port: 2}) {
		t.Errorf("C[1] incoming: %v", got)
	}
}

// TestLearningSwitchFloodProjection: in state [0] traffic to H1 reaches
// both H1's and H2's egress; in state [1] only H1's.
func TestLearningSwitchFloodProjection(t *testing.T) {
	a := LearningSwitch()
	pkt := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(1)}, Loc: netkat.Location{Switch: 4, Port: 2}}
	c0 := stateful.Project(a.Prog.Cmd, stateful.State{0})
	if got := netkat.Eval(c0, pkt); len(got) != 2 {
		t.Errorf("state [0] flood: %v", got)
	}
	c1 := stateful.Project(a.Prog.Cmd, stateful.State{1})
	got := netkat.Eval(c1, pkt)
	if len(got) != 1 || got[0].Loc != (netkat.Location{Switch: 1, Port: 2}) {
		t.Errorf("state [1] unicast: %v", got)
	}
}

// TestBandwidthCapChain: counting transitions move 0 -> 1 -> ... -> n+1
// and stop.
func TestBandwidthCapChain(t *testing.T) {
	a := BandwidthCap(3)
	states, edges, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 5 || len(edges) != 4 {
		t.Fatalf("chain: %d states, %d edges", len(states), len(edges))
	}
	// Final state drops incoming but still forwards outgoing.
	cLast := stateful.Project(a.Prog.Cmd, stateful.State{4})
	outPkt := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(4)}, Loc: netkat.Location{Switch: 1, Port: 2}}
	backPkt := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(1)}, Loc: netkat.Location{Switch: 4, Port: 2}}
	if got := netkat.Eval(cLast, outPkt); len(got) != 1 {
		t.Errorf("capped state must forward outgoing: %v", got)
	}
	if got := netkat.Eval(cLast, backPkt); len(got) != 0 {
		t.Errorf("capped state must drop incoming: %v", got)
	}
}

// TestRingPaths: in state [0] H1->H2 follows the clockwise arc; in state
// [1] the counterclockwise arc; replies always clockwise.
func TestRingPaths(t *testing.T) {
	d := 3
	a := Ring(d)
	fwd := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(2)}, Loc: netkat.Location{Switch: 1, Port: 3}}
	dst := netkat.Location{Switch: d + 1, Port: 3}
	for _, k := range []stateful.State{{0}, {1}} {
		c := stateful.Project(a.Prog.Cmd, k)
		got := netkat.Eval(c, fwd)
		if len(got) != 1 || got[0].Loc != dst {
			t.Errorf("state %v: H1->H2 = %v, want %v", k, got, dst)
		}
	}
	back := netkat.LocatedPacket{Pkt: netkat.Packet{FieldDst: H(1)}, Loc: netkat.Location{Switch: d + 1, Port: 3}}
	c0 := stateful.Project(a.Prog.Cmd, stateful.State{0})
	got := netkat.Eval(c0, back)
	if len(got) != 1 || got[0].Loc != (netkat.Location{Switch: 1, Port: 3}) {
		t.Errorf("H2->H1: %v", got)
	}
}

// TestRingSignalEdge: the only event edge is the signal arrival at 2:2.
func TestRingSignalEdge(t *testing.T) {
	a := Ring(4)
	_, edges, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("edges: %v", edges)
	}
	e := edges[0]
	if e.Loc != (netkat.Location{Switch: 2, Port: 2}) {
		t.Errorf("event loc: %v", e.Loc)
	}
	if v, ok := e.Guard.Eq(FieldSig); !ok || v != 1 {
		t.Errorf("event guard: %v", e.Guard)
	}
}

// TestByName: every built-in name resolves to a valid program, zero
// Params take the defaults, and anything else is an error naming it.
func TestByName(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"firewall", "firewall"},
		{"learning-switch", "learning-switch"},
		{"authentication", "authentication"},
		{"bandwidth-cap", "bandwidth-cap-10"},
		{"ids", "ids"},
		{"walled-garden", "walled-garden"},
		{"distributed-firewall", "distributed-firewall"},
		{"ring", "ring-3"},
		{"ids-fattree", "ids-fattree-4"},
		{"failover-diamond", "failover-diamond-4"},
		{"failover-wan", "failover-wan-4"},
		{"failover-fattree", "failover-fattree-4-4"},
	} {
		a, err := ByName(c.name, Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Name != c.want {
			t.Errorf("%s resolved to %q, want %q", c.name, a.Name, c.want)
		}
		if err := a.Topo.Validate(); err != nil {
			t.Errorf("%s: topology: %v", c.name, err)
		}
	}
	if a, _ := ByName("bandwidth-cap", Params{Cap: 7}); a.Name != "bandwidth-cap-7" {
		t.Errorf("Params.Cap 7 resolved to %q", a.Name)
	}
	if _, err := ByName("ids-fattree", Params{Arity: 3}); err == nil {
		t.Error("ids-fattree at arity 3 resolved")
	}
	if _, err := ByName("nope", Params{}); err == nil || err.Error() != `unknown app "nope"` {
		t.Errorf("unknown name: err = %v", err)
	}
}

package topo

import (
	"testing"

	"eventnet/internal/netkat"
)

func TestBuildersValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    *Topology
	}{
		{"firewall", Firewall()},
		{"learning-switch", LearningSwitch()},
		{"star", Star()},
		{"ring-2", Ring(2)},
		{"ring-8", Ring(8)},
	} {
		if err := tc.t.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestFirewallShape(t *testing.T) {
	tp := Firewall()
	if len(tp.Switches) != 2 || len(tp.Hosts) != 2 {
		t.Fatalf("shape: %v switches, %v hosts", tp.Switches, tp.Hosts)
	}
	h1, ok := tp.HostByName("H1")
	if !ok || h1.Attach != (netkat.Location{Switch: 1, Port: 2}) {
		t.Errorf("H1: %v", h1)
	}
	lk, ok := tp.LinkFrom(netkat.Location{Switch: 1, Port: 1})
	if !ok || lk.Dst != (netkat.Location{Switch: 4, Port: 1}) {
		t.Errorf("s1 link: %v", lk)
	}
	// Host link both ways.
	lk, ok = tp.LinkFrom(h1.Loc())
	if !ok || lk.Dst != h1.Attach {
		t.Errorf("host uplink: %v", lk)
	}
	lk, ok = tp.LinkFrom(h1.Attach)
	if !ok || lk.Dst != h1.Loc() {
		t.Errorf("host downlink: %v", lk)
	}
}

func TestRingShape(t *testing.T) {
	d := 3
	tp := Ring(d)
	if len(tp.Switches) != 2*d {
		t.Fatalf("switches: %v", tp.Switches)
	}
	// Clockwise closure: following port 1 from switch 1 visits every
	// switch and returns.
	cur := 1
	for i := 0; i < 2*d; i++ {
		lk, ok := tp.LinkFrom(netkat.Location{Switch: cur, Port: 1})
		if !ok {
			t.Fatalf("no clockwise link from %d", cur)
		}
		cur = lk.Dst.Switch
	}
	if cur != 1 {
		t.Fatalf("ring does not close: ended at %d", cur)
	}
	if h2, ok := tp.HostByName("H2"); !ok || h2.Attach.Switch != d+1 {
		t.Errorf("H2 attach: %v", h2)
	}
}

func TestValidateRejects(t *testing.T) {
	tp := New()
	tp.AddSwitch(1)
	tp.AddHost(1, "H1", netkat.Location{Switch: 1, Port: 2}) // ID collides
	if err := tp.Validate(); err == nil {
		t.Error("host/switch ID collision accepted")
	}
	// AddHost auto-registers the attachment switch, so a dangling
	// attachment can only arise from a hand-built value.
	tp2 := &Topology{Switches: []int{1}, Hosts: []Host{{ID: HostID(1), Name: "H1", Attach: netkat.Location{Switch: 9, Port: 2}}}}
	if err := tp2.Validate(); err == nil {
		t.Error("dangling attachment accepted")
	}
	tp3 := New()
	tp3.AddSwitch(1)
	tp3.AddSwitch(2)
	tp3.AddSwitch(3)
	tp3.AddBiLink(netkat.Location{Switch: 1, Port: 1}, netkat.Location{Switch: 2, Port: 1})
	tp3.AddBiLink(netkat.Location{Switch: 1, Port: 1}, netkat.Location{Switch: 3, Port: 1})
	if err := tp3.Validate(); err == nil {
		t.Error("two links from one port accepted")
	}
}

func TestHostLocs(t *testing.T) {
	tp := Star()
	locs := tp.HostLocs()
	if len(locs) != 4 {
		t.Errorf("host locs: %v", locs)
	}
	for _, h := range tp.Hosts {
		if !locs[h.Loc()] {
			t.Errorf("missing %s", h.Name)
		}
	}
}

func TestFatTree(t *testing.T) {
	k := 4
	tp := FatTree(k)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	core := (k / 2) * (k / 2)
	if got, want := len(tp.Switches), core+k*k; got != want {
		t.Fatalf("switches: %d want %d", got, want)
	}
	if got, want := len(tp.Hosts), k*k*k/4; got != want {
		t.Fatalf("hosts: %d want %d", got, want)
	}
	// A k-ary fat-tree has k^3/4 edge-agg and k^3/4 agg-core bidirectional
	// pairs: k^3 unidirectional links.
	if got, want := len(tp.Links), k*k*k; got != want {
		t.Fatalf("links: %d want %d", got, want)
	}
	// Every host pair is connected by a path, and intra-pod paths are
	// shorter than inter-pod ones.
	h1, _ := tp.HostByName("H1")
	h2, _ := tp.HostByName("H2")   // same edge switch
	h3, _ := tp.HostByName("H3")   // same pod, other edge
	h16, _ := tp.HostByName("H16") // other pod
	if p, ok := tp.ShortestPath(h1.Attach.Switch, h2.Attach.Switch, nil); !ok || len(p) != 0 {
		t.Fatalf("same-edge path: %v %v", p, ok)
	}
	if p, ok := tp.ShortestPath(h1.Attach.Switch, h3.Attach.Switch, nil); !ok || len(p) != 2 {
		t.Fatalf("intra-pod path: %v %v", p, ok)
	}
	p, ok := tp.ShortestPath(h1.Attach.Switch, h16.Attach.Switch, nil)
	if !ok || len(p) != 4 {
		t.Fatalf("inter-pod path: %v %v", p, ok)
	}
	// The path is a connected chain of real links.
	for i := 1; i < len(p); i++ {
		if p[i].Src.Switch != p[i-1].Dst.Switch {
			t.Fatalf("path not a chain: %v", p)
		}
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	tp := New()
	tp.AddSwitch(1)
	tp.AddSwitch(2)
	if _, ok := tp.ShortestPath(1, 2, nil); ok {
		t.Fatal("found a path in a disconnected graph")
	}
	if p, ok := tp.ShortestPath(1, 1, nil); !ok || p != nil {
		t.Fatal("self path should be the empty chain")
	}
}

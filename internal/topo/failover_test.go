package topo

import "testing"

func TestDiamondAndWANValidate(t *testing.T) {
	for _, tp := range []*Topology{Diamond(), WAN()} {
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"H1", "H2", "M"} {
			if _, ok := tp.HostByName(name); !ok {
				t.Fatalf("missing host %s", name)
			}
		}
	}
}

func TestDiamondDisjointPaths(t *testing.T) {
	tp := Diamond()
	primary, ok := tp.ShortestPath(1, 4, nil)
	if !ok || len(primary) != 2 {
		t.Fatalf("primary path: %v, %v", primary, ok)
	}
	banned := map[Link]bool{}
	for _, l := range primary {
		banned[l] = true
		banned[Link{Src: l.Dst, Dst: l.Src}] = true
	}
	backup, ok := tp.ShortestPath(1, 4, banned)
	if !ok || len(backup) != 2 {
		t.Fatalf("backup path: %v, %v", backup, ok)
	}
	for _, b := range backup {
		if banned[b] {
			t.Fatalf("backup reuses banned link %v", b)
		}
	}
}

func TestWANEqualCostDisjointPaths(t *testing.T) {
	tp := WAN()
	primary, ok := tp.ShortestPath(1, 4, nil)
	if !ok || len(primary) != 3 {
		t.Fatalf("primary path: %v, %v", primary, ok)
	}
	banned := map[Link]bool{}
	for _, l := range primary {
		banned[l] = true
		banned[Link{Src: l.Dst, Dst: l.Src}] = true
	}
	backup, ok := tp.ShortestPath(1, 4, banned)
	if !ok || len(backup) != len(primary) {
		t.Fatalf("backup path not equal-cost: %v vs %v", backup, primary)
	}
}

func TestShortestPathAvoidingNoPath(t *testing.T) {
	tp := Firewall()
	banned := map[Link]bool{
		{Src: loc(1, 1), Dst: loc(4, 1)}: true,
	}
	if p, ok := tp.ShortestPath(1, 4, banned); ok {
		t.Fatalf("expected no path, got %v", p)
	}
	// Unbanned direction still routes 4 -> 1.
	if _, ok := tp.ShortestPath(4, 1, banned); !ok {
		t.Fatal("reverse direction should be unaffected")
	}
}

// TestFatTreeArities checks the compact k<=8 numbering and the wide k=16
// numbering: both validate, hosts count k^3/4, and wide switch IDs are
// clear of the host-ID range.
func TestFatTreeArities(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		tp := FatTree(k)
		if err := tp.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantHosts := k * k * k / 4
		if len(tp.Hosts) != wantHosts {
			t.Fatalf("k=%d: %d hosts, want %d", k, len(tp.Hosts), wantHosts)
		}
		wantSwitches := (k/2)*(k/2) + k*k
		if len(tp.Switches) != wantSwitches {
			t.Fatalf("k=%d: %d switches, want %d", k, len(tp.Switches), wantSwitches)
		}
		if k > 8 {
			for _, s := range tp.Switches {
				if s < wideFatTreeSwitchBase {
					t.Fatalf("k=%d: switch %d below the wide base", k, s)
				}
			}
		} else if tp.Switches[wantSwitches-1] >= hostIDBase {
			t.Fatalf("k=%d: compact switch IDs reach the host base", k)
		}
		// Any two hosts are connected through the fabric.
		h1 := tp.Hosts[0]
		hn := tp.Hosts[len(tp.Hosts)-1]
		path, ok := tp.ShortestPath(h1.Attach.Switch, hn.Attach.Switch, nil)
		if !ok || len(path) != 4 {
			t.Fatalf("k=%d: cross-pod path %v, %v (want 4 hops)", k, path, ok)
		}
	}
}

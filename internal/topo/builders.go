package topo

import (
	"fmt"

	"eventnet/internal/netkat"
)

// Host node IDs are offset well above switch IDs so they never collide.
const hostIDBase = 100

// HostID returns the conventional node ID for host Hn.
func HostID(n int) int { return hostIDBase + n }

func loc(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }

// Firewall builds the two-switch topology of Figures 1 and 8(a,d):
// H1 - s1:2, s1:1 - s4:1, s4:2 - H4.
func Firewall() *Topology {
	t := New()
	t.AddSwitch(1)
	t.AddSwitch(4)
	t.AddBiLink(loc(1, 1), loc(4, 1))
	t.AddHost(HostID(1), "H1", loc(1, 2))
	t.AddHost(HostID(4), "H4", loc(4, 2))
	return t
}

// LearningSwitch builds the three-switch topology of Figure 8(b):
// s4 is the hub; H1 behind s1, H2 behind s2, H4 at s4.
// Links: (1:1)-(4:1), (2:1)-(4:3). Hosts at port 2 of their switch.
func LearningSwitch() *Topology {
	t := New()
	for _, s := range []int{1, 2, 4} {
		t.AddSwitch(s)
	}
	t.AddBiLink(loc(1, 1), loc(4, 1))
	t.AddBiLink(loc(2, 1), loc(4, 3))
	t.AddHost(HostID(1), "H1", loc(1, 2))
	t.AddHost(HostID(2), "H2", loc(2, 2))
	t.AddHost(HostID(4), "H4", loc(4, 2))
	return t
}

// Star builds the four-switch topology of Figure 8(c,e): s4 is the hub with
// H4; H1, H2, H3 behind s1, s2, s3. Links: (1:1)-(4:1), (2:1)-(4:3),
// (3:1)-(4:4). Hosts at port 2.
func Star() *Topology {
	t := New()
	for _, s := range []int{1, 2, 3, 4} {
		t.AddSwitch(s)
	}
	t.AddBiLink(loc(1, 1), loc(4, 1))
	t.AddBiLink(loc(2, 1), loc(4, 3))
	t.AddBiLink(loc(3, 1), loc(4, 4))
	t.AddHost(HostID(1), "H1", loc(1, 2))
	t.AddHost(HostID(2), "H2", loc(2, 2))
	t.AddHost(HostID(3), "H3", loc(3, 2))
	t.AddHost(HostID(4), "H4", loc(4, 2))
	return t
}

// wideFatTreeSwitchBase offsets the switch IDs of fat-trees too wide for
// the 1..hostIDBase switch range (k > 8): their switches are numbered
// from this base upward, clear of every host ID any fabric can produce
// (k=16 uses hosts 101..1124), while the k <= 8 trees keep the historical
// compact numbering.
const wideFatTreeSwitchBase = 10000

// FatTree builds a k-ary fat-tree (Al-Fahres/leaf-spine style data-center
// fabric): (k/2)^2 core switches, k pods of k/2 aggregation and k/2 edge
// switches, and k/2 hosts per edge switch (k^3/4 hosts total, named
// H1..Hn in pod order). Port conventions: on an edge switch, ports
// 1..k/2 face hosts and k/2+1..k face aggregation; on an aggregation
// switch, ports 1..k/2 face edges and k/2+1..k face cores; on a core
// switch, port p+1 faces pod p. k must be even. For k <= 8 switch IDs are
// the compact 1..(k/2)^2+k^2 range below the host-ID base; wider fabrics
// (k=16 needs 320 switches) number their switches from
// wideFatTreeSwitchBase so they cannot collide with host IDs.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity %d is not a positive even number", k))
	}
	half := k / 2
	core := half * half
	base := 0
	if core+k*k >= hostIDBase {
		base = wideFatTreeSwitchBase
	}
	// Switch numbering: cores base+1..base+core, then per pod p (0-based)
	// the aggregation switches base+core+p*k+1..+half followed by the edge
	// switches base+core+p*k+half+1..base+core+(p+1)*k.
	aggID := func(p, i int) int { return base + core + p*k + 1 + i }
	edgeID := func(p, j int) int { return base + core + p*k + half + 1 + j }
	t := New()
	for s := 1; s <= core+k*k; s++ {
		t.AddSwitch(base + s)
	}
	host := 1
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			e := edgeID(p, j)
			// Edge <-> aggregation.
			for i := 0; i < half; i++ {
				t.AddBiLink(loc(e, half+1+i), loc(aggID(p, i), 1+j))
			}
			// Hosts.
			for h := 0; h < half; h++ {
				t.AddHost(HostID(host), fmt.Sprintf("H%d", host), loc(e, 1+h))
				host++
			}
		}
		// Aggregation <-> core: aggregation i serves cores i*half+1..(i+1)*half.
		for i := 0; i < half; i++ {
			for m := 0; m < half; m++ {
				t.AddBiLink(loc(aggID(p, i), half+1+m), loc(base+i*half+m+1, p+1))
			}
		}
	}
	return t
}

// ShortestPath returns a minimum-hop chain of switch-to-switch links from
// switch `from` to switch `to` that uses no link in banned (directed: ban
// both directions to exclude a bidirectional link; nil bans nothing). The
// BFS follows the link list in declaration order, so the chosen path is
// deterministic. The second result is false when no path exists; a
// switch's path to itself is the empty chain.
func (t *Topology) ShortestPath(from, to int, banned map[Link]bool) ([]Link, bool) {
	if from == to {
		return nil, true
	}
	prev := map[int]Link{} // switch -> link that first reached it
	seen := map[int]bool{from: true}
	frontier := []int{from}
	for len(frontier) > 0 {
		var next []int
		for _, sw := range frontier {
			for _, lk := range t.Links {
				if lk.Src.Switch != sw || seen[lk.Dst.Switch] || banned[lk] {
					continue
				}
				seen[lk.Dst.Switch] = true
				prev[lk.Dst.Switch] = lk
				if lk.Dst.Switch == to {
					var path []Link
					for at := to; at != from; at = prev[at].Src.Switch {
						path = append([]Link{prev[at]}, path...)
					}
					return path, true
				}
				next = append(next, lk.Dst.Switch)
			}
		}
		frontier = next
	}
	return nil, false
}

// Diamond builds the minimal failover topology: H1 behind s1, H2 behind
// s4, a primary path s1-s2-s4 and a link-disjoint backup path s1-s3-s4,
// plus a monitor host M on s1 (the failure-notification source).
//
//	H1 - s1:3   s1:1 - s2:1, s2:2 - s4:1   (primary)
//	M  - s1:4   s1:2 - s3:1, s3:2 - s4:2   (backup)
//	H2 - s4:3
func Diamond() *Topology {
	t := New()
	for _, s := range []int{1, 2, 3, 4} {
		t.AddSwitch(s)
	}
	t.AddBiLink(loc(1, 1), loc(2, 1))
	t.AddBiLink(loc(2, 2), loc(4, 1))
	t.AddBiLink(loc(1, 2), loc(3, 1))
	t.AddBiLink(loc(3, 2), loc(4, 2))
	t.AddHost(HostID(1), "H1", loc(1, 3))
	t.AddHost(HostID(2), "H2", loc(4, 3))
	t.AddHost(HostID(9), "M", loc(1, 4))
	return t
}

// WAN builds a wide-area-style six-switch graph with two link-disjoint
// equal-cost three-hop paths between the H1 site (s1) and the H2 site
// (s4) — the ECMP shape whose path choice a failover program flips:
//
//	primary  s1:1 - s2:1, s2:2 - s3:1, s3:2 - s4:1
//	backup   s1:2 - s5:1, s5:2 - s6:1, s6:2 - s4:2
//
// H1 sits at s1:3, H2 at s4:3, and the monitor M at s1:4.
func WAN() *Topology {
	t := New()
	for s := 1; s <= 6; s++ {
		t.AddSwitch(s)
	}
	t.AddBiLink(loc(1, 1), loc(2, 1))
	t.AddBiLink(loc(2, 2), loc(3, 1))
	t.AddBiLink(loc(3, 2), loc(4, 1))
	t.AddBiLink(loc(1, 2), loc(5, 1))
	t.AddBiLink(loc(5, 2), loc(6, 1))
	t.AddBiLink(loc(6, 2), loc(4, 2))
	t.AddHost(HostID(1), "H1", loc(1, 3))
	t.AddHost(HostID(2), "H2", loc(4, 3))
	t.AddHost(HostID(9), "M", loc(1, 4))
	return t
}

// Ring builds the synthetic ring of Section 5.2 with the given diameter
// (number of switches between H1 and H2 going one way). The ring has
// 2*diameter switches numbered 1..2d; switch i connects to i+1 (mod). H1 is
// attached to switch 1, H2 to switch diameter+1, both at port 3. Port 1 of
// each switch faces clockwise (toward i+1), port 2 counterclockwise.
func Ring(diameter int) *Topology {
	n := 2 * diameter
	t := New()
	for i := 1; i <= n; i++ {
		t.AddSwitch(i)
	}
	for i := 1; i <= n; i++ {
		next := i%n + 1
		t.AddBiLink(loc(i, 1), loc(next, 2))
	}
	t.AddHost(HostID(1), "H1", loc(1, 3))
	t.AddHost(HostID(2), "H2", loc(diameter+1, 3))
	return t
}

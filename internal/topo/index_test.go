package topo

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"testing"

	"eventnet/internal/netkat"
)

// The linear scans the index replaced, kept here as its reference.

func scanLinkFrom(t *Topology, src netkat.Location) (Link, bool) {
	for _, lk := range t.AllLinks() {
		if lk.Src == src {
			return lk, true
		}
	}
	return Link{}, false
}

func scanHostByID(t *Topology, id int) (Host, bool) {
	for _, h := range t.Hosts {
		if h.ID == id {
			return h, true
		}
	}
	return Host{}, false
}

func scanHostByName(t *Topology, name string) (Host, bool) {
	for _, h := range t.Hosts {
		if h.Name == name {
			return h, true
		}
	}
	return Host{}, false
}

// scanPorts derives a port table by scans, as the machine's slot layout
// and the load generator each once did for themselves: per registered
// switch ascending, its ingress and then its egress link-end ports
// ascending, each egress end resolved by the scans above, and every
// non-host link end's port listed under its node.
func scanPorts(tp *Topology) (sws []int, ends []End, hosts []*Host, swPorts map[int][]int) {
	for _, s := range tp.Switches {
		if !slices.Contains(sws, s) {
			sws = append(sws, s)
		}
	}
	slices.Sort(sws)
	links := tp.AllLinks()
	for _, s := range sws {
		for _, egress := range []bool{false, true} {
			var ports []int
			for _, lk := range links {
				l := lk.Dst
				if egress {
					l = lk.Src
				}
				if l.Switch == s && !slices.Contains(ports, l.Port) {
					ports = append(ports, l.Port)
				}
			}
			slices.Sort(ports)
			for _, p := range ports {
				ends = append(ends, End{Loc: netkat.Location{Switch: s, Port: p}, Egress: egress, Dst: -1})
			}
		}
	}
	hosts = make([]*Host, len(ends))
	for i := range ends {
		if e := &ends[i]; e.Egress {
			lk, _ := scanLinkFrom(tp, e.Loc)
			if h, ok := scanHostByID(tp, lk.Dst.Switch); ok {
				hosts[i] = &h
				continue
			}
			for j, f := range ends {
				if !f.Egress && f.Loc == lk.Dst {
					e.Dst = j
				}
			}
		}
	}
	swPorts = map[int][]int{}
	for _, lk := range links {
		for _, l := range []netkat.Location{lk.Src, lk.Dst} {
			if _, isHost := scanHostByID(tp, l.Switch); !isHost && !slices.Contains(swPorts[l.Switch], l.Port) {
				swPorts[l.Switch] = append(swPorts[l.Switch], l.Port)
			}
		}
	}
	for _, ports := range swPorts {
		slices.Sort(ports)
	}
	return sws, ends, hosts, swPorts
}

// agreePorts checks the port table against scanPorts. Like agree, it
// reports through t.Errorf only.
func agreePorts(t *testing.T, name string, tp *Topology) {
	t.Helper()
	pt := tp.Ports()
	sws, ends, hosts, swPorts := scanPorts(tp)
	if !slices.Equal(pt.Switches, sws) {
		t.Errorf("%s: Ports().Switches = %v; scan %v", name, pt.Switches, sws)
	}
	if len(pt.Ends) != len(ends) {
		t.Errorf("%s: %d link ends; scan %d", name, len(pt.Ends), len(ends))
		return
	}
	ingress := 0
	for i, e := range pt.Ends {
		want := ends[i]
		if e.Loc != want.Loc || e.Egress != want.Egress || e.Dst != want.Dst || (e.Host != nil) != (hosts[i] != nil) || (e.Host != nil && *e.Host != *hosts[i]) {
			t.Errorf("%s: end %d = %+v; scan %+v (host %v)", name, i, e, want, hosts[i])
		}
		if !e.Egress {
			ingress++
			if j, ok := pt.Ingress[e.Loc]; !ok || j != i {
				t.Errorf("%s: Ingress[%v] = %d, %v; want %d", name, e.Loc, j, ok, i)
			}
		}
	}
	if len(pt.Ingress) != ingress {
		t.Errorf("%s: %d ingress entries for %d ingress ends", name, len(pt.Ingress), ingress)
	}
	for _, s := range sws {
		if !slices.Equal(pt.SwPorts[s], swPorts[s]) {
			t.Errorf("%s: SwPorts[%d] = %v; scan %v", name, s, pt.SwPorts[s], swPorts[s])
		}
	}
	byName := func(a, b Host) int { return strings.Compare(a.Name, b.Name) }
	total := func(a, b Host) int {
		return cmp.Or(byName(a, b), cmp.Compare(a.ID, b.ID), cmp.Compare(a.Attach.Switch, b.Attach.Switch), cmp.Compare(a.Attach.Port, b.Attach.Port))
	}
	if !slices.IsSortedFunc(pt.ByName, byName) || !slices.Equal(slices.SortedFunc(slices.Values(pt.ByName), total), slices.SortedFunc(slices.Values(tp.Hosts), total)) {
		t.Errorf("%s: Ports().ByName = %v is not Hosts sorted by name", name, pt.ByName)
	}
}

// probes returns locations, node IDs and names to look up: every one the
// topology mentions and neighbours of each that it does not.
func probes(t *Topology) (locs []netkat.Location, ids []int, names []string) {
	for _, lk := range t.AllLinks() {
		for _, l := range []netkat.Location{lk.Src, lk.Dst} {
			locs = append(locs, l, netkat.Location{Switch: l.Switch, Port: l.Port + 17}, netkat.Location{Switch: l.Switch + 5003, Port: l.Port})
			ids = append(ids, l.Switch, l.Switch+5003)
		}
	}
	ids = append(ids, t.Switches...)
	for _, h := range t.Hosts {
		names = append(names, h.Name, h.Name+"x")
	}
	return locs, append(ids, -1, 0), append(names, "", "H0")
}

// agree checks every lookup against its scan. It reports through t.Errorf
// only, so goroutines other than the test's may call it.
func agree(t *testing.T, name string, tp *Topology) {
	t.Helper()
	locs, ids, names := probes(tp)
	for _, l := range locs {
		want, wantOK := scanLinkFrom(tp, l)
		if got, ok := tp.LinkFrom(l); got != want || ok != wantOK {
			t.Errorf("%s: LinkFrom(%v) = %v, %v; scan %v, %v", name, l, got, ok, want, wantOK)
		}
		far, h, ok := tp.Across(l)
		wantHost, isHost := scanHostByID(tp, want.Dst.Switch)
		isHost = isHost && wantOK
		if ok != wantOK || far != want.Dst || (h != nil) != isHost || (h != nil && *h != wantHost) {
			t.Errorf("%s: Across(%v) = %v, %v, %v; scan %v, %v (host %v)", name, l, far, h, ok, want.Dst, wantOK, isHost)
		}
	}
	for _, id := range ids {
		want, wantOK := scanHostByID(tp, id)
		if got, ok := tp.HostByID(id); got != want || ok != wantOK {
			t.Errorf("%s: HostByID(%d) = %v, %v; scan %v, %v", name, id, got, ok, want, wantOK)
		}
		if got := tp.IsHostNode(id); got != wantOK {
			t.Errorf("%s: IsHostNode(%d) = %v; scan %v", name, id, got, wantOK)
		}
	}
	for _, n := range names {
		want, wantOK := scanHostByName(tp, n)
		if got, ok := tp.HostByName(n); got != want || ok != wantOK {
			t.Errorf("%s: HostByName(%q) = %v, %v; scan %v, %v", name, n, got, ok, want, wantOK)
		}
	}
	agreePorts(t, name, tp)
}

var builders = []struct {
	name  string
	build func() *Topology
}{
	{"firewall", Firewall},
	{"learning-switch", LearningSwitch},
	{"star", Star},
	{"fattree-4", func() *Topology { return FatTree(4) }},
	{"diamond", Diamond},
	{"wan", WAN},
	{"ring-8", func() *Topology { return Ring(8) }},
}

// TestIndexMatchesScan: on every builder's topology each lookup, and the
// port table, answers as the linear scan does, for keys present and
// absent, and still does after the topology grows behind a lookup.
func TestIndexMatchesScan(t *testing.T) {
	for _, b := range builders {
		tp := b.build()
		agree(t, b.name, tp)

		// Grow through the methods: a new host, a link from a fresh port,
		// and a switch link from a port a host already hangs off (the
		// Links entry precedes the derived one in AllLinks, so it wins).
		attach := tp.Hosts[0].Attach
		tp.AddHost(HostID(900), "Hnew", netkat.Location{Switch: tp.Switches[0], Port: 40})
		tp.AddBiLink(netkat.Location{Switch: tp.Switches[0], Port: 41}, netkat.Location{Switch: 7001, Port: 1})
		tp.AddBiLink(attach, netkat.Location{Switch: 7002, Port: 1})
		if lk, _ := tp.LinkFrom(attach); lk.Dst.Switch != 7002 {
			t.Errorf("%s: LinkFrom(%v) = %v after a switch link was added there; the Links entry must win", b.name, attach, lk)
		}
		agree(t, b.name+"+adds", tp)

		// A bare switch: the port table lists it, with no link ends.
		tp.AddSwitch(7004)
		if !slices.Contains(tp.Ports().Switches, 7004) {
			t.Errorf("%s: Ports().Switches misses a switch added after a lookup", b.name)
		}
		agree(t, b.name+"+switch", tp)

		// Grow behind the index's back.
		tp.Links = append(tp.Links, Link{Src: netkat.Location{Switch: 7003, Port: 1}, Dst: netkat.Location{Switch: tp.Switches[0], Port: 42}})
		tp.Hosts = append(tp.Hosts, Host{ID: HostID(901), Name: "Hraw", Attach: netkat.Location{Switch: 7003, Port: 2}})
		agree(t, b.name+"+appends", tp)
	}
}

// TestIndexFirstMatchWins: duplicates resolve as a scan resolves them.
func TestIndexFirstMatchWins(t *testing.T) {
	a, b := netkat.Location{Switch: 1, Port: 1}, netkat.Location{Switch: 2, Port: 1}
	tp := &Topology{
		Switches: []int{1, 2, 3},
		Links:    []Link{{Src: a, Dst: b}, {Src: a, Dst: netkat.Location{Switch: 3, Port: 1}}},
		Hosts: []Host{
			{ID: HostID(1), Name: "H1", Attach: netkat.Location{Switch: 1, Port: 2}},
			{ID: HostID(1), Name: "H1", Attach: netkat.Location{Switch: 2, Port: 2}}, // same ID and name
			{ID: HostID(2), Name: "H2", Attach: a},                                   // attach port already has a switch link
			{ID: HostID(3), Name: "H3", Attach: netkat.Location{Switch: 1, Port: 2}}, // attach port already has a host
		},
	}
	agree(t, "literal", tp)
	if lk, _ := tp.LinkFrom(a); lk.Dst != b {
		t.Errorf("LinkFrom(%v) = %v, want the first of two links", a, lk)
	}
	if h, _ := tp.HostByName("H1"); h.Attach.Switch != 1 {
		t.Errorf("HostByName(H1) = %v, want the first of two hosts", h)
	}
}

// TestIndexConcurrentFirstLookups: goroutines whose lookups are all the
// first on a fresh topology see the scan's answers (run under -race).
func TestIndexConcurrentFirstLookups(t *testing.T) {
	for _, b := range builders {
		tp := b.build()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				agree(t, b.name, tp)
			}()
		}
		wg.Wait()
	}
}

// TestLookupsDoNotAllocate: a lookup on an indexed topology is a map probe.
func TestLookupsDoNotAllocate(t *testing.T) {
	tp := FatTree(4)
	h := tp.Hosts[len(tp.Hosts)-1]
	var sink int
	for name, fn := range map[string]func(){
		"LinkFrom":   func() { lk, _ := tp.LinkFrom(h.Attach); sink += lk.Dst.Port },
		"Across":     func() { _, hh, _ := tp.Across(h.Attach); sink += hh.ID },
		"HostByID":   func() { hh, _ := tp.HostByID(h.ID); sink += hh.ID },
		"IsHostNode": func() { _ = tp.IsHostNode(h.ID) },
		"HostByName": func() { hh, _ := tp.HostByName(h.Name); sink += hh.ID },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per lookup, want 0", name, n)
		}
	}
	_ = sink
}

// Package topo models network topologies: switches, hosts, and
// unidirectional physical links, plus builders for the topologies used in
// the paper's evaluation (Figure 8) and the synthetic ring (Section 5.2).
//
// Hosts are modeled as nodes with a single port 0; a host is attached to an
// edge switch by a bidirectional link between host:0 and switch:port.
//
// # Lookups
//
// LinkFrom, Across, HostByID, IsHostNode and HostByName answer from an
// index (source location → link, node ID → host, name → host) built on
// the first lookup, so each costs a map probe however large the network;
// the index also holds the Ports table. The contract:
//
//   - First match: where two links leave one location, or two hosts share
//     an ID or a name, the one earlier in AllLinks (Links, then each
//     host's pair in Hosts order) or in Hosts wins, as a scan would find.
//   - Invalidation: the index records the lengths of Switches, Links and
//     Hosts it covers, and a lookup after any has grown (through
//     AddSwitch, AddBiLink, AddHost or a direct append) rebuilds it. The
//     builders look up only once the topology is complete, so each builds
//     its index once.
//     Rewriting an element in place is not seen; nothing in this module
//     does it.
//   - Concurrency: any number of goroutines may look up at once,
//     including the first lookup (each builds the same index and
//     publishes it atomically; a published index is only read). A
//     mutation must not run concurrently with anything else, as for any
//     Go value. A Topology must not be copied after first use.
package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"eventnet/internal/netkat"
)

// Link is a unidirectional physical link (lsrc, ldst).
type Link struct {
	Src, Dst netkat.Location
}

// Host is a packet source/sink attached to an edge switch.
type Host struct {
	ID     int    // node ID of the host itself
	Name   string // e.g. "H1"
	Attach netkat.Location
}

// Loc returns the host's own location (port 0 of the host node).
func (h Host) Loc() netkat.Location { return netkat.Location{Switch: h.ID, Port: 0} }

// Topology is a set of switches, hosts, and links.
type Topology struct {
	Switches []int
	Hosts    []Host
	Links    []Link // switch-to-switch links only; host links are derived

	idx atomic.Pointer[index] // lookup tables over Switches, Links and Hosts; see index
}

// index is the lookup form of a topology's first switches, links and
// hosts entries, current while those counts equal the slice lengths.
type index struct {
	switches, links, hosts int
	from                   map[netkat.Location]Link
	byID                   map[int]int // host node ID -> position in Hosts
	byName                 map[string]int
	ports                  Ports
}

// Ports is a topology's port table, which Figure 7 machines lay their
// queues out from and load generators draw from. It is shared: read only.
type Ports struct {
	Switches []int // registered switch IDs, ascending, each once
	// Ends is every link end at a registered switch: by switch ascending,
	// its ingress ends by port ascending, then its egress ends likewise.
	Ends    []End
	Ingress map[netkat.Location]int // ingress end's location -> its position in Ends
	ByName  []Host                  // Hosts sorted by name
	SwPorts map[int][]int           // switch -> the ports of its link ends, ascending
}

// End is one link end at a switch. An egress end is resolved to what the
// link Across follows from it leads to: a host, an ingress end, or neither.
type End struct {
	Loc    netkat.Location
	Egress bool
	Host   *Host // the host an egress end leads to; nil otherwise
	Dst    int   // the position in Ends of the ingress end an egress end leads to; -1 otherwise
}

// lookup returns the current index, building one if the topology has none
// or has grown since. Links and hosts go in AllLinks and Hosts order, and
// the first entry for a key wins.
func (t *Topology) lookup() *index {
	ix := t.idx.Load()
	if ix != nil && ix.switches == len(t.Switches) && ix.links == len(t.Links) && ix.hosts == len(t.Hosts) {
		return ix
	}
	ix = &index{
		switches: len(t.Switches),
		links:    len(t.Links),
		hosts:    len(t.Hosts),
		from:     make(map[netkat.Location]Link, len(t.Links)+2*len(t.Hosts)),
		byID:     make(map[int]int, len(t.Hosts)),
		byName:   make(map[string]int, len(t.Hosts)),
	}
	links := t.AllLinks()
	for _, lk := range links {
		if _, ok := ix.from[lk.Src]; !ok {
			ix.from[lk.Src] = lk
		}
	}
	for i, h := range t.Hosts {
		if _, ok := ix.byID[h.ID]; !ok {
			ix.byID[h.ID] = i
		}
		if _, ok := ix.byName[h.Name]; !ok {
			ix.byName[h.Name] = i
		}
	}
	t.buildPorts(ix, links)
	t.idx.Store(ix)
	return ix
}

// buildPorts fills ix.ports from the links and the rest of ix.
func (t *Topology) buildPorts(ix *index, links []Link) {
	p := &ix.ports
	p.Switches = slices.Compact(slices.Sorted(slices.Values(t.Switches)))
	for _, lk := range links {
		for _, e := range []End{{Loc: lk.Src, Egress: true, Dst: -1}, {Loc: lk.Dst, Dst: -1}} {
			if _, ok := slices.BinarySearch(p.Switches, e.Loc.Switch); ok {
				p.Ends = append(p.Ends, e)
			}
		}
	}
	slices.SortFunc(p.Ends, func(a, b End) int {
		if c := cmp.Compare(a.Loc.Switch, b.Loc.Switch); c != 0 || a.Egress == b.Egress {
			return cmp.Or(c, cmp.Compare(a.Loc.Port, b.Loc.Port))
		} else if a.Egress {
			return 1
		}
		return -1
	})
	p.Ends = slices.Compact(p.Ends)
	p.Ingress, p.SwPorts = make(map[netkat.Location]int, len(p.Ends)/2), map[int][]int{}
	for i, e := range p.Ends {
		if !e.Egress {
			p.Ingress[e.Loc] = i
		}
		if _, isHost := ix.byID[e.Loc.Switch]; !isHost {
			p.SwPorts[e.Loc.Switch] = append(p.SwPorts[e.Loc.Switch], e.Loc.Port)
		}
	}
	for sw, ports := range p.SwPorts {
		slices.Sort(ports)
		p.SwPorts[sw] = slices.Compact(ports)
	}
	for i := range p.Ends {
		if e := &p.Ends[i]; e.Egress {
			far := ix.from[e.Loc].Dst
			if h, isHost := ix.byID[far.Switch]; isHost {
				e.Host = &t.Hosts[h]
			} else if dst, ok := p.Ingress[far]; ok {
				e.Dst = dst
			}
		}
	}
	p.ByName = slices.Clone(t.Hosts)
	sort.Slice(p.ByName, func(i, j int) bool { return p.ByName[i].Name < p.ByName[j].Name })
}

// Ports returns the topology's port table (see Ports).
func (t *Topology) Ports() *Ports { return &t.lookup().ports }

// New returns an empty topology.
func New() *Topology { return &Topology{} }

// AddSwitch registers a switch ID (idempotent).
func (t *Topology) AddSwitch(id int) {
	for _, s := range t.Switches {
		if s == id {
			return
		}
	}
	t.Switches = append(t.Switches, id)
	sort.Ints(t.Switches)
}

// AddBiLink adds links in both directions between two switch ports.
func (t *Topology) AddBiLink(a, b netkat.Location) {
	t.AddSwitch(a.Switch)
	t.AddSwitch(b.Switch)
	t.Links = append(t.Links, Link{Src: a, Dst: b}, Link{Src: b, Dst: a})
}

// AddHost attaches a named host to a switch port.
func (t *Topology) AddHost(id int, name string, attach netkat.Location) {
	t.AddSwitch(attach.Switch)
	t.Hosts = append(t.Hosts, Host{ID: id, Name: name, Attach: attach})
}

// HostByName returns the host with the given name.
func (t *Topology) HostByName(name string) (Host, bool) {
	if i, ok := t.lookup().byName[name]; ok {
		return t.Hosts[i], true
	}
	return Host{}, false
}

// HostByID returns the host with the given node ID.
func (t *Topology) HostByID(id int) (Host, bool) {
	if i, ok := t.lookup().byID[id]; ok {
		return t.Hosts[i], true
	}
	return Host{}, false
}

// IsHostNode reports whether the node ID belongs to a host.
func (t *Topology) IsHostNode(id int) bool {
	_, ok := t.lookup().byID[id]
	return ok
}

// HostLocs returns the set of host locations (used by the trace oracle to
// identify trace starting points).
func (t *Topology) HostLocs() map[netkat.Location]bool {
	m := map[netkat.Location]bool{}
	for _, h := range t.Hosts {
		m[h.Loc()] = true
	}
	return m
}

// AllLinks returns every unidirectional link including host-switch links in
// both directions.
func (t *Topology) AllLinks() []Link {
	out := append([]Link{}, t.Links...)
	for _, h := range t.Hosts {
		out = append(out, Link{Src: h.Loc(), Dst: h.Attach}, Link{Src: h.Attach, Dst: h.Loc()})
	}
	return out
}

// LinkFrom returns the link leaving the given location, if any. Topologies
// in this package have at most one link per (node, port) direction.
func (t *Topology) LinkFrom(src netkat.Location) (Link, bool) {
	lk, ok := t.lookup().from[src]
	return lk, ok
}

// Across follows the link leaving src. It returns the link's far end and,
// when that end is a host node, the host (nil when it is a switch); ok is
// false when no link leaves src. The host is an element of Hosts and must
// not be written through.
func (t *Topology) Across(src netkat.Location) (far netkat.Location, h *Host, ok bool) {
	ix := t.lookup()
	e, ok := ix.from[src]
	if !ok {
		return netkat.Location{}, nil, false
	}
	if i, isHost := ix.byID[e.Dst.Switch]; isHost {
		h = &t.Hosts[i]
	}
	return e.Dst, h, true
}

// Validate checks structural sanity: link endpoints are registered
// switches, host IDs do not collide with switch IDs, and no two links leave
// the same port.
func (t *Topology) Validate() error {
	sw := map[int]bool{}
	for _, s := range t.Switches {
		sw[s] = true
	}
	for _, h := range t.Hosts {
		if sw[h.ID] {
			return fmt.Errorf("topo: host %s ID %d collides with a switch ID", h.Name, h.ID)
		}
		if !sw[h.Attach.Switch] {
			return fmt.Errorf("topo: host %s attaches to unknown switch %d", h.Name, h.Attach.Switch)
		}
	}
	seen := map[netkat.Location]bool{}
	for _, lk := range t.AllLinks() {
		if !sw[lk.Src.Switch] && !t.IsHostNode(lk.Src.Switch) {
			return fmt.Errorf("topo: link source %v is not a node", lk.Src)
		}
		if !sw[lk.Dst.Switch] && !t.IsHostNode(lk.Dst.Switch) {
			return fmt.Errorf("topo: link destination %v is not a node", lk.Dst)
		}
		if seen[lk.Src] {
			return fmt.Errorf("topo: two links leave %v", lk.Src)
		}
		seen[lk.Src] = true
	}
	return nil
}

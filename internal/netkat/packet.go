// Package netkat implements the core NetKAT network programming language:
// packets, locations, predicates, policies, and a reference denotational
// evaluator. It corresponds to the static (stateless) fragment used in
// "Event-Driven Network Programming" (PLDI 2016), Section 3.2.
//
// A policy denotes a function from a located packet to a set of located
// packets. The special fields "sw" and "pt" refer to the packet's current
// switch and port; "pt" may be assigned, "sw" may only change by crossing
// a Link.
package netkat

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Location identifies a switch-port pair n:m (written n:m in the paper).
type Location struct {
	Switch int
	Port   int
}

// String renders the location in the paper's n:m notation.
func (l Location) String() string {
	return strconv.Itoa(l.Switch) + ":" + strconv.Itoa(l.Port)
}

// Packet is a record of numeric header fields {f1; f2; ...; fn}.
// The map is never mutated in place by the evaluator; use Clone/With.
type Packet map[string]int

// Clone returns an independent copy of the packet.
func (p Packet) Clone() Packet {
	q := make(Packet, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// With returns a copy of the packet with field f set to v (pkt[f <- v]).
func (p Packet) With(f string, v int) Packet {
	q := p.Clone()
	q[f] = v
	return q
}

// Equal reports whether two packets have identical fields and values; one
// map is equal to itself without a walk (hops share read-only maps).
func (p Packet) Equal(q Packet) bool {
	if len(p) != len(q) {
		return false
	}
	if reflect.ValueOf(p).UnsafePointer() == reflect.ValueOf(q).UnsafePointer() {
		return true
	}
	for k, v := range p {
		w, ok := q[k]
		if !ok || w != v {
			return false
		}
	}
	return true
}

// Fields returns the field names in sorted order.
func (p Packet) Fields() []string {
	fs := make([]string, 0, len(p))
	for k := range p {
		fs = append(fs, k)
	}
	sort.Strings(fs)
	return fs
}

// Key returns a canonical string usable as a map key for packet sets.
// Hot path (evaluator and simulator packet sets): appends, no fmt.
func (p Packet) Key() string {
	buf := make([]byte, 0, 16*len(p))
	for _, f := range p.Fields() {
		buf = append(buf, f...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(p[f]), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// String renders the packet as {f1=v1, f2=v2, ...}.
func (p Packet) String() string {
	var parts []string
	for _, f := range p.Fields() {
		parts = append(parts, fmt.Sprintf("%s=%d", f, p[f]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// LocatedPacket pairs a packet with its current location (pkt, sw, pt).
type LocatedPacket struct {
	Pkt Packet
	Loc Location
}

// Key returns a canonical string usable as a map key for sets of located
// packets.
func (lp LocatedPacket) Key() string {
	return lp.Loc.String() + "|" + lp.Pkt.Key()
}

// Equal reports whether two located packets agree on location and fields.
func (lp LocatedPacket) Equal(o LocatedPacket) bool {
	return lp.Loc == o.Loc && lp.Pkt.Equal(o.Pkt)
}

// String renders the located packet as (pkt @ n:m).
func (lp LocatedPacket) String() string {
	return fmt.Sprintf("(%v @ %v)", lp.Pkt, lp.Loc)
}

// SortLocated sorts a slice of located packets into canonical order.
func SortLocated(lps []LocatedPacket) {
	sort.Slice(lps, func(i, j int) bool { return lps[i].Key() < lps[j].Key() })
}

// FieldSw and FieldPt are the special location pseudo-fields.
const (
	FieldSw = "sw"
	FieldPt = "pt"
)

// FieldLinkDown and FieldLinkUp are the reserved header fields of
// link-failure and link-recovery notifications: a packet carrying
// linkdown = LinkID(src, dst) announces that the physical link (src, dst)
// has failed, and linkup announces its recovery. Failure and recovery are
// thereby ordinary events in the paper's sense — the arrival of a packet
// satisfying a guard over these fields at a deciding switch — so the
// whole event-structure machinery (consistency, enabling, occurrence
// renaming, replay across program swaps) covers failover for free.
const (
	FieldLinkDown = "linkdown"
	FieldLinkUp   = "linkup"
)

// linkIDRadix bounds each location component of a LinkID encoding. Base
// 128 keeps the largest encodable ID (~2.7e8) inside the int32 header
// value domain the flat dataplane interns.
const linkIDRadix = 128

// LinkID encodes a directed physical link as a single header value for
// the linkdown/linkup notification fields. Each of the four location
// components must be below 128; the encoding is injective, so distinct
// links never alias.
func LinkID(src, dst Location) int {
	for _, v := range [4]int{src.Switch, src.Port, dst.Switch, dst.Port} {
		if v < 0 || v >= linkIDRadix {
			panic(fmt.Sprintf("netkat: link component %d outside [0,%d) is not LinkID-encodable", v, linkIDRadix))
		}
	}
	return ((src.Switch*linkIDRadix+src.Port)*linkIDRadix+dst.Switch)*linkIDRadix + dst.Port
}

package netkat

import "fmt"

// DPacket is a directed located packet: a trace point of the operational
// model. Out=false means the packet is arriving at Loc (switch ingress, or
// delivery into a host); Out=true means it is leaving Loc (switch egress,
// or emission from a host). The direction disambiguates the two roles a
// physical port plays, so the configuration relation has no spurious
// steps (e.g. a packet dropped at its ingress port must have no
// C-successor, even though a link into the attached host leaves the same
// port).
type DPacket struct {
	Pkt Packet
	Loc Location
	Out bool
}

// Key returns a canonical string usable as a set key.
func (d DPacket) Key() string {
	dir := "in"
	if d.Out {
		dir = "out"
	}
	return d.Loc.String() + dir + "|" + d.Pkt.Key()
}

// Equal reports whether two directed packets agree on direction, location
// and fields.
func (d DPacket) Equal(o DPacket) bool {
	return d.Out == o.Out && d.Loc == o.Loc && d.Pkt.Equal(o.Pkt)
}

// LP returns the undirected located packet.
func (d DPacket) LP() LocatedPacket { return LocatedPacket{Pkt: d.Pkt, Loc: d.Loc} }

// String renders the directed packet.
func (d DPacket) String() string {
	arrow := "->"
	if d.Out {
		arrow = "<-"
	}
	return fmt.Sprintf("(%v %s %v)", d.Pkt, arrow, d.Loc)
}

// DConfig is a network configuration C as a relation on directed located
// packets (Section 2): switch processing maps ingress points to egress
// points within a switch, and link traversal (including host links) maps
// egress points to the far end's ingress point.
type DConfig interface {
	DStep(d DPacket) []DPacket
	// Succ reports whether next is in DStep(d), building nothing.
	Succ(d, next DPacket) bool
}

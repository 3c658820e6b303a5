package nkc

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Compile translates a (state-free) policy into per-switch flow tables
// over the given topology. A plain policy is the one-state case of a
// program (Figure 5: a configuration is a projection ⟦p⟧k), so it is
// lifted to the command whose every projection it is and handed to a
// fresh ProgramCompiler, which walks it in full. The tables realize
// exactly the relation denoted by the policy, as checked by property
// tests against netkat.Eval and against CompileDNF.
func Compile(p netkat.Policy, t *topo.Topology) (flowtable.Tables, error) {
	pc, err := NewProgramCompiler(stateful.Lift(p), t, nil)
	if err != nil {
		return nil, err
	}
	return pc.Compile(nil)
}

// Eval applies the diagram to a located packet, returning the output set
// in canonical order. Tests resolve "sw" and "pt" against the location.
func (d *FDD) Eval(lp netkat.LocatedPacket) []netkat.LocatedPacket {
	n := d
	for !n.leaf {
		var cur int
		ok := true
		switch n.field {
		case netkat.FieldSw:
			cur = lp.Loc.Switch
		case netkat.FieldPt:
			cur = lp.Loc.Port
		default:
			cur, ok = lp.Pkt[n.field]
		}
		if ok && cur == n.value {
			n = n.hi
		} else {
			n = n.lo
		}
	}
	seen := map[string]netkat.LocatedPacket{}
	for _, a := range n.acts {
		out := netkat.LocatedPacket{Pkt: lp.Pkt.Clone(), Loc: lp.Loc}
		for f, v := range a.sets {
			switch f {
			case netkat.FieldPt:
				out.Loc.Port = v
			case netkat.FieldSw:
				out.Loc.Switch = v // rejected by Validate; defensive
			default:
				out.Pkt[f] = v
			}
		}
		seen[out.Key()] = out
	}
	outs := make([]netkat.LocatedPacket, 0, len(seen))
	for _, v := range seen {
		outs = append(outs, v)
	}
	netkat.SortLocated(outs)
	return outs
}

// Eval applies the path set to a located packet, returning the output set
// in canonical order. Used by property tests against netkat.Eval.
func (ps PathSet) Eval(lp netkat.LocatedPacket) []netkat.LocatedPacket {
	seen := map[string]netkat.LocatedPacket{}
	for _, p := range ps.Paths {
		if out, ok := p.Apply(lp); ok {
			seen[out.Key()] = out
		}
	}
	outs := make([]netkat.LocatedPacket, 0, len(seen))
	for _, v := range seen {
		outs = append(outs, v)
	}
	netkat.SortLocated(outs)
	return outs
}

// Apply runs the path on a located packet, reporting ok=false if the
// condition fails.
func (p Path) Apply(lp netkat.LocatedPacket) (netkat.LocatedPacket, bool) {
	if !p.Cond.Eval(lp) {
		return netkat.LocatedPacket{}, false
	}
	out := netkat.LocatedPacket{Pkt: lp.Pkt.Clone(), Loc: lp.Loc}
	for f, v := range p.Acts {
		switch f {
		case netkat.FieldPt:
			out.Loc.Port = v
		case netkat.FieldSw:
			// Rejected by Validate; defensive.
			out.Loc.Switch = v
		default:
			out.Pkt[f] = v
		}
	}
	return out, true
}

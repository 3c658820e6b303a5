package dataplane

import (
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
)

// Plan is an NES compiled for forwarding: the program's header Schema and
// every (configuration, switch) flow table lowered and indexed against it
// (flat.go). It is built whole by PlanFor — a snapshot of the tables as
// they stood then — immutable afterwards and safe for concurrent use.
type Plan struct {
	nes    *nes.NES
	schema *Schema
	flats  []map[int]*flatTable // [config][switch]
}

// PlanFor lowers the NES into its forwarding plan — schema, lowering and
// index, nothing deferred — and the caller owns the result: nothing else
// keeps it, so a plan lives exactly as long as whoever forwards or may
// swap back with it. Each distinct *flowtable.Table is lowered once, and
// the configurations holding it (the compiler hands identically-behaving
// switches one table) share the immutable flatTable.
func PlanFor(n *nes.NES) *Plan {
	p := &Plan{nes: n, schema: SchemaFor(n), flats: make([]map[int]*flatTable, len(n.Configs))}
	lowered := map[*flowtable.Table]*flatTable{}
	for ci := range n.Configs {
		fm := make(map[int]*flatTable, len(n.Configs[ci].Tables))
		for sw, t := range n.Configs[ci].Tables {
			ft, ok := lowered[t]
			if !ok {
				ft = newFlatTable(t, p.schema)
				lowered[t] = ft
			}
			fm[sw] = ft
		}
		p.flats[ci] = fm
	}
	return p
}

func Invalidate(*nes.NES) {} // accepted and ignored; named by bench/

// Matcher returns the reference view of a configuration's switch: the
// linear scan over the NES's own table as it stands now (not the PlanFor
// snapshot), which is what the compiled table is checked and timed
// against. A configuration that installs no table there (or a version out
// of range) yields a Scan that drops everything.
func (p *Plan) Matcher(version, sw int) Scan {
	if version < 0 || version >= len(p.nes.Configs) {
		return Scan{}
	}
	return Scan{Table: p.nes.Configs[version].Tables[sw]}
}

// MergedPair builds the staged-install deployment shape of a live program
// swap: one physical table per switch holding *both* programs' rules —
// the running program's configurations at tags [0, |P|) and the incoming
// program's behind fresh exact version guards at tags [off, off+|P'|),
// with off = |P|. Installing this table is phase one of the two-phase
// update: it changes the forwarding of no in-flight packet (their tags
// all lie below off and exact guards with the same mask never admit
// another program's tags), yet the moment ingress tagging flips to
// off+c, packets follow P' rules exclusively. The returned offset is the
// tag displacement of the new program's configurations.
//
// The configurations are gathered in turn — tags run on from the old
// program into the new under exact guards wide enough for both — into one
// rule list per switch, then each is installed with a single priority
// sort: stable over the append order, which is where sorting after every
// configuration arrives too.
func MergedPair(old, new_ *nes.NES) (flowtable.Tables, int) {
	tags := len(old.Configs) + len(new_.Configs)
	bits := 1
	for 1<<uint(bits) < tags {
		bits++
	}
	rules := map[int][]flowtable.Rule{}
	tag := uint32(0)
	for _, n := range []*nes.NES{old, new_} {
		for ci := range n.Configs {
			guard := flowtable.ExactGuard(tag, bits)
			tag++
			for sw, t := range n.Configs[ci].Tables {
				rs := rules[sw]
				for _, r := range t.Rules {
					m := r.Match // Cond is read-only: share it
					m.Guard = guard
					rs = append(rs, flowtable.Rule{Priority: r.Priority, Match: m, Groups: r.Groups})
				}
				rules[sw] = rs
			}
		}
	}
	dst := make(flowtable.Tables, len(rules))
	for sw, rs := range rules {
		dst.Get(sw).AddAll(rs)
	}
	return dst, len(old.Configs)
}

// Flat returns the plan's compiled matcher for a configuration's switch
// (ok is false when the configuration installs no table there).
func (p *Plan) Flat(version, sw int) (FlatMatcher, bool) {
	if version < 0 || version >= len(p.flats) {
		return FlatMatcher{}, false
	}
	ft, ok := p.flats[version][sw]
	if !ok {
		return FlatMatcher{}, false
	}
	return FlatMatcher{schema: p.schema, ft: ft}, true
}

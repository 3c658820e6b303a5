package nkc

import (
	"fmt"
	"sort"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/topo"
)

// hopRule is one per-switch rule produced by symbolic strand execution,
// before multicast merging and overlap resolution.
type hopRule struct {
	sw    int
	match flowtable.Match
	group flowtable.ActionGroup
}

// errInfeasible signals a statically contradictory strand instance; such
// instances simply contribute no rules.
var errInfeasible = fmt.Errorf("nkc: infeasible strand instance")

// CompileDNF is the reference oracle that tests hold Compile and
// ProgramCompiler against: predicates are normalized to DNF, link-free
// segments to path normal form, union is distributed over sequence into
// strands, and overlapping matches are resolved by a fixpoint. Both
// normal forms are exponential in the worst case. Of the compiler it
// checks it shares only the symbolic executor (compileStrand) — not the
// strand split, the diagrams or any cache — and no non-test code outside
// this package calls it (CI's Layering step).
func CompileDNF(p netkat.Policy, t *topo.Topology) (flowtable.Tables, error) {
	if err := netkat.Validate(p); err != nil {
		return nil, err
	}
	strands, err := ExtractStrands(p)
	if err != nil {
		return nil, err
	}
	var hops []hopRule
	for _, s := range strands {
		hs, err := compileStrand(s, t.Switches)
		if err != nil {
			return nil, err
		}
		hops = append(hops, hs...)
	}
	return assembleTables(hops)
}

// maxChoices bounds the per-strand cartesian expansion of segment paths.
const maxChoices = 100000

// compileStrand enumerates every combination of one path per segment and
// symbolically executes each combination into hop rules.
func compileStrand(s Strand, allSwitches []int) ([]hopRule, error) {
	total := 1
	for _, seg := range s.Segments {
		total *= len(seg.Paths)
		if total > maxChoices {
			return nil, fmt.Errorf("nkc: strand expands to more than %d path combinations", maxChoices)
		}
	}
	var out []hopRule
	choice := make([]Path, len(s.Segments))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(s.Segments) {
			hs, err := execChoice(choice, s.Links, allSwitches)
			if err == errInfeasible {
				return nil
			}
			if err != nil {
				return err
			}
			out = append(out, hs...)
			return nil
		}
		for _, p := range s.Segments[i].Paths {
			choice[i] = p
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// execChoice symbolically executes one concrete strand instance: a path
// per segment interleaved with the strand's links. It tracks the values of
// header fields assigned by earlier hops (so later tests against them are
// resolved statically) and what is known of the packet's switch, and
// emits one rule per hop. A hop's match is built directly from its path's
// literals; its "pt" literals are the ingress port, pinned after a link.
func execChoice(paths []Path, links []netkat.Link, allSwitches []int) ([]hopRule, error) {
	env := map[string]int{}  // header fields assigned so far
	at := netkat.NewConj()   // "sw" literals known of the packet's switch
	cond := netkat.NewConj() // the hop's match
	var out []hopRule

	for i, p := range paths {
		for _, l := range p.Cond.Lits() {
			w, assigned := env[l.F] // "sw" and "pt" are never assigned here
			switch {
			case l.F == netkat.FieldSw:
				if !at.Add(l) {
					return nil, errInfeasible
				}
			case assigned:
				if (w == l.V) != l.Eq {
					return nil, errInfeasible
				}
			case !cond.Add(l):
				return nil, errInfeasible
			}
		}
		// Assignments.
		sets := map[string]int{}
		for f, v := range p.Acts {
			if f != netkat.FieldPt {
				sets[f] = v
				env[f] = v
			}
		}
		egress, hasEgress := p.Acts[netkat.FieldPt]
		if !hasEgress {
			egress, hasEgress = cond.Eq(netkat.FieldPt)
		}

		if i < len(links) {
			l := links[i]
			if !at.AddEq(netkat.FieldSw, l.Src.Switch) {
				return nil, errInfeasible
			}
			if !hasEgress {
				// No port information: the packet must already be at the
				// link's source port, so match on it as the ingress port.
				if !cond.AddEq(netkat.FieldPt, l.Src.Port) {
					return nil, errInfeasible
				}
			} else if egress != l.Src.Port {
				return nil, errInfeasible
			}
			out = append(out, hopRule{sw: l.Src.Switch, match: flowtable.Match{Cond: cond}, group: flowtable.ActionGroup{Sets: sets, OutPort: l.Src.Port}})
			at, cond = netkat.NewConj(), netkat.NewConj()
			at.AddEq(netkat.FieldSw, l.Dst.Switch)
			cond.AddEq(netkat.FieldPt, l.Dst.Port)
			continue
		}

		// Final hop. A segment is an identity tail when it imposes no
		// tests or rewrites of its own (the ingress port recorded from the
		// preceding link does not count): the journey then ends at the
		// link's destination and the previous hop's rule already emitted.
		if len(p.Cond.Lits()) == 0 && len(p.Acts) == 0 && len(links) > 0 {
			return out, nil
		}
		if !hasEgress {
			return nil, fmt.Errorf("nkc: strand does not determine an egress port (final segment must assign pt or follow a link)")
		}
		match, group := flowtable.Match{Cond: cond}, flowtable.ActionGroup{Sets: sets, OutPort: egress}
		if sw, ok := at.Eq(netkat.FieldSw); ok {
			return append(out, hopRule{sw: sw, match: match, group: group}), nil
		}
		// Location-agnostic single-hop policy: install on every switch
		// not explicitly excluded.
		for _, sw := range allSwitches {
			if at.Eval(netkat.LocatedPacket{Loc: netkat.Location{Switch: sw}}) {
				out = append(out, hopRule{sw: sw, match: match, group: group})
			}
		}
		return out, nil
	}
	return out, nil
}

// ruleAccum accumulates the action groups attached to one match.
type ruleAccum struct {
	match  flowtable.Match
	groups map[string]flowtable.ActionGroup
}

func (r *ruleAccum) add(g flowtable.ActionGroup) bool {
	k := g.Key()
	if _, ok := r.groups[k]; ok {
		return false
	}
	r.groups[k] = g
	return true
}

func (r *ruleAccum) addAll(o *ruleAccum) bool {
	changed := false
	for _, g := range o.groups {
		if r.add(g) {
			changed = true
		}
	}
	return changed
}

// overlapBound caps overlap-resolution iterations.
const overlapBound = 1000

// assembleTables merges hop rules with identical matches (multicast),
// resolves overlapping matches so that first-match-wins tables implement
// union semantics, and assigns priorities by match specificity.
func assembleTables(hops []hopRule) (flowtable.Tables, error) {
	perSwitch := map[int]map[string]*ruleAccum{}
	for _, h := range hops {
		rules, ok := perSwitch[h.sw]
		if !ok {
			rules = map[string]*ruleAccum{}
			perSwitch[h.sw] = rules
		}
		k := h.match.Key()
		acc, ok := rules[k]
		if !ok {
			acc = &ruleAccum{match: h.match, groups: map[string]flowtable.ActionGroup{}}
			rules[k] = acc
		}
		acc.add(h.group)
	}

	tables := flowtable.Tables{}
	for sw, rules := range perSwitch {
		if err := resolveOverlaps(rules); err != nil {
			return nil, fmt.Errorf("switch %d: %w", sw, err)
		}
		keys := make([]string, 0, len(rules))
		for k := range rules {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		installed := make([]flowtable.Rule, 0, len(keys))
		for _, k := range keys {
			acc := rules[k]
			gks := make([]string, 0, len(acc.groups))
			for gk := range acc.groups {
				gks = append(gks, gk)
			}
			sort.Strings(gks)
			groups := make([]flowtable.ActionGroup, 0, len(gks))
			for _, gk := range gks {
				groups = append(groups, acc.groups[gk])
			}
			installed = append(installed, flowtable.Rule{Priority: acc.match.Specificity(), Match: acc.match, Groups: groups})
		}
		tables.Get(sw).AddAll(installed)
	}
	return tables, nil
}

// resolveOverlaps enforces union semantics under first-match-wins: when
// one match subsumes another, the more specific rule absorbs the broader
// rule's groups; when two matches properly overlap, a rule for the
// intersection region carrying both group sets is added. Iterates to a
// fixpoint (the intersection closure is finite).
func resolveOverlaps(rules map[string]*ruleAccum) error {
	for iter := 0; iter < overlapBound; iter++ {
		changed := false
		keys := make([]string, 0, len(rules))
		for k := range rules {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := rules[keys[i]], rules[keys[j]]
				aSubB := a.match.Cond.Subsumes(b.match.Cond) // b's region inside a's
				bSubA := b.match.Cond.Subsumes(a.match.Cond)
				switch {
				case aSubB && bSubA:
					// Same region, different keys (syntactic variants):
					// merge both directions.
					if b.addAll(a) {
						changed = true
					}
					if a.addAll(b) {
						changed = true
					}
				case aSubB:
					if b.addAll(a) {
						changed = true
					}
				case bSubA:
					if a.addAll(b) {
						changed = true
					}
				default:
					inter := flowtable.Match{Cond: a.match.Cond.Clone(), Guard: a.match.Guard}
					if !inter.Cond.MergeWith(b.match.Cond) {
						continue
					}
					k := inter.Key()
					acc, exists := rules[k]
					if !exists {
						acc = &ruleAccum{match: inter, groups: map[string]flowtable.ActionGroup{}}
						rules[k] = acc
						changed = true
					}
					if acc.addAll(a) {
						changed = true
					}
					if acc.addAll(b) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("nkc: overlap resolution did not converge within %d iterations", overlapBound)
}

// CompiledConfig realizes a configuration relation C from compiled tables
// plus the topology's links (Section 2: C captures both switch processing
// and link behavior, including host attachment links).
//
// Switch processing is flowtable.Table's linear scan over the tables as
// given: this is the relation the trace oracle and the model checker hold
// executions against, so it reads the reference form and shares no index
// with the engine it judges. It holds no state of its own and is safe for
// concurrent use.
type CompiledConfig struct {
	Tables flowtable.Tables
	Topo   *topo.Topology
	Tag    uint32 // version tag presented to the tables (0 for unguarded)
}

// DStep implements netkat.DConfig: an egress point follows its link (to a
// switch ingress or into a host), a host emission enters the attachment
// port, and a switch ingress is processed by the flow table.
func (c *CompiledConfig) DStep(d netkat.DPacket) []netkat.DPacket {
	if d.Out || c.Topo.IsHostNode(d.Loc.Switch) {
		if next, ok := c.link(d); ok {
			return []netkat.DPacket{next}
		}
		return nil
	}
	var outs []netkat.DPacket
	for _, o := range c.Tables[d.Loc.Switch].AppendProcess(nil, d.Pkt, d.Loc.Port, c.Tag) {
		outs = append(outs, netkat.DPacket{Pkt: o.Pkt, Loc: netkat.Location{Switch: d.Loc.Switch, Port: o.Port}, Out: true})
	}
	return outs
}

// Succ implements netkat.DConfig: a link or host hop compares location
// and headers, and a switch hop asks the flow table whether it emits next.
func (c *CompiledConfig) Succ(d, next netkat.DPacket) bool {
	if d.Out || c.Topo.IsHostNode(d.Loc.Switch) {
		l, ok := c.link(d)
		return ok && l.Loc == next.Loc && !next.Out && l.Pkt.Equal(next.Pkt)
	}
	return next.Out && next.Loc.Switch == d.Loc.Switch &&
		c.Tables[d.Loc.Switch].Emits(d.Pkt, d.Loc.Port, c.Tag, next.Pkt, next.Loc.Port)
}

// link returns the successor of an egress or host point: the far end of
// its link, or a host emission's attachment port. ok is false where a
// host absorbs the packet or no link leaves the port.
func (c *CompiledConfig) link(d netkat.DPacket) (netkat.DPacket, bool) {
	if h, isHost := c.Topo.HostByID(d.Loc.Switch); isHost {
		return netkat.DPacket{Pkt: d.Pkt, Loc: h.Attach}, d.Out
	}
	far, h, ok := c.Topo.Across(d.Loc)
	if h != nil {
		far = h.Loc()
	}
	return netkat.DPacket{Pkt: d.Pkt, Loc: far}, ok
}

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
// resolved statically), the packet's current switch and port, and emits
// one rule per hop.
func execChoice(paths []Path, links []netkat.Link, allSwitches []int) ([]hopRule, error) {
	env := map[string]int{}    // header fields assigned so far
	curSw, arrivalPt := -1, -1 // -1 = unknown
	swNeq := map[int]bool{}    // excluded switches while curSw unknown
	var out []hopRule

	for i, p := range paths {
		match := flowtable.Match{InPort: flowtable.Wildcard, Fields: map[string]int{}, Excludes: map[string][]int{}}
		if i > 0 {
			match.InPort = arrivalPt
		}
		// Equality literals.
		for _, f := range p.Cond.EqFields() {
			v, _ := p.Cond.Eq(f)
			switch f {
			case netkat.FieldSw:
				if curSw != -1 {
					if curSw != v {
						return nil, errInfeasible
					}
				} else {
					if swNeq[v] {
						return nil, errInfeasible
					}
					curSw = v
				}
			case netkat.FieldPt:
				if arrivalPt != -1 {
					if arrivalPt != v {
						return nil, errInfeasible
					}
				} else {
					arrivalPt = v
					match.InPort = v
				}
			default:
				if w, ok := env[f]; ok {
					if w != v {
						return nil, errInfeasible
					}
				} else {
					match.Fields[f] = v
				}
			}
		}
		// Inequality literals.
		for _, f := range p.Cond.NeqFields() {
			for _, v := range p.Cond.Neq(f) {
				switch f {
				case netkat.FieldSw:
					if curSw != -1 {
						if curSw == v {
							return nil, errInfeasible
						}
					} else {
						swNeq[v] = true
					}
				case netkat.FieldPt:
					if arrivalPt == -1 {
						// Unknown ingress: match any port except v.
						match.ExcludePorts = appendPortNeq(match.ExcludePorts, v)
					} else if arrivalPt == v {
						return nil, errInfeasible
					}
				default:
					if w, ok := env[f]; ok {
						if w == v {
							return nil, errInfeasible
						}
					} else {
						match.Excludes[f] = append(match.Excludes[f], v)
					}
				}
			}
		}
		// Assignments.
		sets := map[string]int{}
		assignedPt, hasAssignedPt := -1, false
		for f, v := range p.Acts {
			if f == netkat.FieldPt {
				assignedPt, hasAssignedPt = v, true
			} else {
				sets[f] = v
			}
		}
		for f, v := range sets {
			env[f] = v
		}
		effectivePt := arrivalPt
		if hasAssignedPt {
			effectivePt = assignedPt
		}

		if i < len(links) {
			l := links[i]
			if curSw == -1 {
				if swNeq[l.Src.Switch] {
					return nil, errInfeasible
				}
				curSw = l.Src.Switch
			} else if curSw != l.Src.Switch {
				return nil, errInfeasible
			}
			if effectivePt == -1 {
				// No port information: the packet must already be at the
				// link's source port, so match on it as the ingress port.
				for _, x := range match.ExcludePorts {
					if x == l.Src.Port {
						return nil, errInfeasible
					}
				}
				match.ExcludePorts = nil
				arrivalPt = l.Src.Port
				match.InPort = l.Src.Port
				effectivePt = l.Src.Port
			} else if effectivePt != l.Src.Port {
				return nil, errInfeasible
			}
			out = append(out, hopRule{sw: curSw, match: match, group: flowtable.ActionGroup{Sets: sets, OutPort: l.Src.Port}})
			curSw, arrivalPt = l.Dst.Switch, l.Dst.Port
			swNeq = map[int]bool{}
			continue
		}

		// Final hop. A segment is an identity tail when it imposes no
		// tests or rewrites of its own (the ingress port recorded from the
		// preceding link does not count): the journey then ends at the
		// link's destination and the previous hop's rule already emitted.
		segmentEmpty := len(p.Cond.EqFields()) == 0 && len(p.Cond.NeqFields()) == 0 && len(p.Acts) == 0
		if segmentEmpty && len(links) > 0 {
			return out, nil
		}
		if effectivePt == -1 {
			return nil, fmt.Errorf("nkc: strand does not determine an egress port (final segment must assign pt or follow a link)")
		}
		group := flowtable.ActionGroup{Sets: sets, OutPort: effectivePt}
		if curSw != -1 {
			out = append(out, hopRule{sw: curSw, match: match, group: group})
			return out, nil
		}
		// Location-agnostic single-hop policy: install on every switch
		// not explicitly excluded.
		for _, sw := range allSwitches {
			if swNeq[sw] {
				continue
			}
			out = append(out, hopRule{sw: sw, match: match, group: group})
		}
		return out, nil
	}
	return out, nil
}

// appendPortNeq adds an excluded ingress port, deduplicating.
func appendPortNeq(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
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
				aSubB := a.match.Subsumes(b.match) // b's region inside a's
				bSubA := b.match.Subsumes(a.match)
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
					inter, ok := a.match.Intersect(b.match)
					if !ok {
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
	var outs []netkat.DPacket
	switch h, isHost := c.Topo.HostByID(d.Loc.Switch); {
	case isHost:
		if !d.Out {
			return nil // absorbed by the host
		}
		outs = append(outs, netkat.DPacket{Pkt: d.Pkt, Loc: h.Attach})
	case d.Out:
		if far, h, ok := c.Topo.Across(d.Loc); ok {
			if h != nil {
				far = h.Loc()
			}
			outs = append(outs, netkat.DPacket{Pkt: d.Pkt, Loc: far})
		}
	default:
		for _, o := range c.Tables[d.Loc.Switch].AppendProcess(nil, d.Pkt, d.Loc.Port, c.Tag) {
			outs = append(outs, netkat.DPacket{Pkt: o.Pkt, Loc: netkat.Location{Switch: d.Loc.Switch, Port: o.Port}, Out: true})
		}
	}
	return outs
}

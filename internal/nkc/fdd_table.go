package nkc

// Table generation from forwarding decision diagrams: symbolic execution
// of one strand's segment diagrams into per-switch hops (hopsFor), and
// per-switch table generation by FDD union + direct extraction
// (assembleTablesFDD). ProgramCompiler (incremental.go, sparse.go) is the
// only caller: it splits the program into strands and translates their
// segments.
//
// The per-switch diagrams make the DNF oracle's two hot spots
// unnecessary: multicast merging happens by unioning leaf action sets,
// and overlap resolution is structural — the root-leaf paths of a
// diagram partition the packet space, so the extracted rules are
// mutually disjoint and any priority assignment is correct.

import (
	"fmt"
	"slices"
	"sort"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// hopsFor runs the symbolic strand execution for one strand given its
// segment diagrams. Execution is a pure function of the diagrams, the
// link skeleton, and the switch set; it is memoized so compiles sharing
// this context (e.g. the per-state configurations of one program) pay for
// each distinct strand once.
func (c *FDDCtx) hopsFor(fdds []*FDD, links []netkat.Link, switches []int) ([]cachedHop, error) {
	// The key is built in the context's own buffer and probed in place;
	// only a miss copies it, once, as the map's key. (keyBuf is not
	// usable here: ruleFDD interns actions through it before the insert.)
	c.strandKey = appendStrandKey(c.strandKey[:0], fdds, links, switches)
	if hs, ok := c.hopCache[string(c.strandKey)]; ok {
		return hs, nil
	}
	segs := make([]PathSet, len(fdds))
	for i, d := range fdds {
		ps, err := d.PathSet()
		if err != nil {
			return nil, err
		}
		segs[i] = ps
	}
	raw, err := compileStrand(Strand{Segments: segs, Links: links}, switches)
	if err != nil {
		return nil, err
	}
	hs := make([]cachedHop, len(raw))
	for i, h := range raw {
		hs[i] = cachedHop{sw: h.sw, d: ruleFDD(c, h.match, h.group)}
	}
	c.hopCache[string(c.strandKey)] = hs
	return hs, nil
}

// cachedHop is one per-switch hop with its prebuilt single-rule diagram.
type cachedHop struct {
	sw int
	d  *FDD
}

// appendStrandKey appends the identity of a strand: its segment diagram
// identities (stable within one context), its links, and the topology's
// switch set. The key is packed binary — 4 bytes per id — and the two
// sections before the last are length-prefixed, so the three
// variable-length parts cannot alias each other.
func appendStrandKey(buf []byte, fdds []*FDD, links []netkat.Link, switches []int) []byte {
	buf = appendID(buf, len(fdds))
	for _, d := range fdds {
		buf = appendID(buf, d.id)
	}
	buf = appendID(buf, len(links))
	for _, l := range links {
		buf = appendID(buf, l.Src.Switch)
		buf = appendID(buf, l.Src.Port)
		buf = appendID(buf, l.Dst.Switch)
		buf = appendID(buf, l.Dst.Port)
	}
	for _, sw := range switches {
		buf = appendID(buf, sw)
	}
	return buf
}

// ruleFDD builds the single-rule diagram: a spine of tests for the match,
// ending in a leaf whose one action encodes the group (the egress port is
// carried as a "pt" assignment and decoded at extraction).
func ruleFDD(c *FDDCtx, m flowtable.Match, g flowtable.ActionGroup) *FDD {
	lits := slices.Clone(m.Cond.Lits())
	sort.Slice(lits, func(i, j int) bool { return testLess(lits[i].F, lits[i].V, lits[j].F, lits[j].V) })

	acts := make(map[string]int, len(g.Sets)+1)
	for f, v := range g.Sets {
		acts[f] = v
	}
	acts[netkat.FieldPt] = g.OutPort
	acc := c.mkLeaf([]*Action{c.internAction(acts)})
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].Eq {
			acc = c.mkNode(lits[i].F, lits[i].V, acc, c.Drop)
		} else {
			acc = c.mkNode(lits[i].F, lits[i].V, c.Drop, acc)
		}
	}
	return acc
}

// assembleTablesFDD unions each switch's hop rules into one diagram and
// extracts a prioritized table from its (disjoint) root-leaf paths. The
// tables are memoized on the hop list's (switch, diagram) pairs, so a
// state with an earlier state's hops, in any program on the context,
// gets its map (hit); a miss sorts hops stably by switch and folds each
// switch's with Union. The table is memoized on the diagram's identity,
// so configurations with identical per-switch behavior hold the same
// *flowtable.Table: table identity is switch-diagram identity, and the
// tables are read-only downstream.
func assembleTablesFDD(c *FDDCtx, hops []cachedHop) (tables flowtable.Tables, hit bool, err error) {
	key := c.hopKey[:0]
	for _, h := range hops {
		key = appendID(appendID(key, h.sw), h.d.id)
	}
	c.hopKey = key
	if tables, ok := c.hopTables[string(key)]; ok {
		return tables, true, nil
	}
	slices.SortStableFunc(hops, func(a, b cachedHop) int { return a.sw - b.sw })
	tables = flowtable.Tables{}
	for lo, hi := 0, 0; lo < len(hops); lo = hi {
		d := c.Drop
		for hi = lo; hi < len(hops) && hops[hi].sw == hops[lo].sw; hi++ {
			d = c.Union(d, hops[hi].d)
		}
		t, ok := c.tableMemo[d.id]
		if !ok {
			rules, err := extractRules(d)
			if err != nil {
				return nil, false, fmt.Errorf("switch %d: %w", hops[lo].sw, err)
			}
			t = &flowtable.Table{}
			t.AddAll(rules)
			c.tableMemo[d.id] = t
		}
		tables[hops[lo].sw] = t
	}
	c.hopTables[string(key)] = tables
	return tables, false, nil
}

// extractRules converts a switch diagram to prioritized rules: hi edges
// contribute equalities (an equality on a field supersedes accumulated
// exclusions on it), lo edges contribute exclusions, and empty leaves
// fall through to the table's default drop. The resulting matches
// partition the packet space, so priorities (assigned by specificity for
// readability) never change behavior. A rule's conjunction is built only
// at its leaf. A switch test is refused at the leaves below it: a node whose
// branches both drop is reduced away, so every node lies on a path to a
// leaf with actions.
func extractRules(d *FDD) ([]flowtable.Rule, error) {
	var rules []flowtable.Rule
	err := d.eachPath(func(lits []netkat.Lit, acts []*Action) error {
		cond := netkat.NewConj()
		for _, l := range lits {
			if l.F == netkat.FieldSw {
				return fmt.Errorf("nkc: switch test %s=%d inside a per-switch diagram", l.F, l.V)
			}
			cond.Add(l)
		}
		groups := make([]flowtable.ActionGroup, 0, len(acts))
		for _, a := range acts {
			out, ok := a.Get(netkat.FieldPt)
			if !ok {
				return fmt.Errorf("nkc: table action %v has no egress port", a)
			}
			sets := a.Sets()
			delete(sets, netkat.FieldPt)
			groups = append(groups, flowtable.ActionGroup{Sets: sets, OutPort: out})
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].Key() < groups[j].Key() })
		m := flowtable.Match{Cond: cond}
		rules = append(rules, flowtable.Rule{Priority: m.Specificity(), Match: m, Groups: groups})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rules, nil
}

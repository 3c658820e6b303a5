package nkc

// Forwarding decision diagrams (FDDs): the compiler's normal form.
//
// An FDD is a binary decision diagram whose internal nodes test one
// (field, value) equality and whose leaves hold sets of actions
// (simultaneous field assignments). Every test examines the *input*
// packet; the actions of the reached leaf are applied at the end, each
// emitting one output copy — so an FDD denotes exactly the same
// packet-set function as a link-free NetKAT policy.
//
// Nodes are hash-consed: structurally equal diagrams are the same
// pointer, so semantic equality of subterms is pointer equality, and the
// union/sequence/star combinators memoize on node identity. Tests along
// every root-leaf path are strictly ordered by the global field order
// (testLess): "pt" first, then "sw", then header fields alphabetically,
// with ascending values within a field; a hi (equal) branch never
// re-tests its field. This canonical form is what makes the combinators
// near-linear in practice where the DNF/strand pipeline is exponential.
// See docs/ARCHITECTURE.md for the comparison with the DNF oracle.

import (
	"fmt"
	"sort"
	"strings"

	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
)

// fieldRank gives the coarse field order: the location pseudo-fields come
// first so table extraction finds ingress-port tests at the root.
func fieldRank(f string) int {
	switch f {
	case netkat.FieldPt:
		return 0
	case netkat.FieldSw:
		return 1
	default:
		return 2
	}
}

// testLess is the global total order on (field, value) tests.
func testLess(f1 string, v1 int, f2 string, v2 int) bool {
	r1, r2 := fieldRank(f1), fieldRank(f2)
	if r1 != r2 {
		return r1 < r2
	}
	if f1 != f2 {
		return f1 < f2
	}
	return v1 < v2
}

// Action is an interned simultaneous assignment of constants to fields
// (the paper's "complete test/assignment" atoms, restricted to the fields
// actually written). The empty Action is the identity. Actions are
// interned per context under a packed binary (fieldID, value) key, so
// the dense id is a sound identity everywhere a rendered string used to
// be.
type Action struct {
	id     int
	sets   map[string]int
	fields []string // sorted; cached at intern time
}

// Get returns the value the action assigns to f, if any.
func (a *Action) Get(f string) (int, bool) {
	v, ok := a.sets[f]
	return v, ok
}

// Fields returns the assigned fields in sorted order.
func (a *Action) Fields() []string {
	return append([]string{}, a.fields...)
}

// Sets returns a copy of the assignment map.
func (a *Action) Sets() map[string]int {
	m := make(map[string]int, len(a.sets))
	for f, v := range a.sets {
		m[f] = v
	}
	return m
}

// String renders the action; the identity prints as "id".
func (a *Action) String() string {
	if len(a.sets) == 0 {
		return "id"
	}
	var parts []string
	for _, f := range a.Fields() {
		parts = append(parts, fmt.Sprintf("%s<-%d", f, a.sets[f]))
	}
	return strings.Join(parts, ",")
}

// FDD is one hash-consed diagram node: either an internal (field = value)
// test with hi/lo children, or a leaf carrying a canonical action set.
// FDDs are immutable and must only be combined through the FDDCtx that
// created them.
type FDD struct {
	id     int
	leaf   bool
	field  string
	value  int
	hi, lo *FDD
	acts   []*Action // leaf payload, sorted by action key, deduplicated
}

// isDropLeaf reports whether d is the empty (drop-everything) leaf.
func (d *FDD) isDropLeaf() bool { return d.leaf && len(d.acts) == 0 }

// String renders the diagram as nested if-expressions (for debugging).
func (d *FDD) String() string {
	var b strings.Builder
	var walk func(n *FDD)
	walk = func(n *FDD) {
		if n.leaf {
			var parts []string
			for _, a := range n.acts {
				parts = append(parts, a.String())
			}
			fmt.Fprintf(&b, "{%s}", strings.Join(parts, " + "))
			return
		}
		fmt.Fprintf(&b, "(%s=%d?", n.field, n.value)
		walk(n.hi)
		b.WriteString(":")
		walk(n.lo)
		b.WriteString(")")
	}
	walk(d)
	return b.String()
}

// nodeKey identifies a test node by its packed (field, value) atom and
// child ids — three machine words, no string hashing on the consing
// path.
type nodeKey struct {
	atom       uint64
	hiID, loID int
}

type fddPair struct{ a, b int }

// FDDCtx owns the hash-consing tables and combinator memos for one
// compilation. Nodes live in a chunked arena (intern.go); every cache
// below is keyed by dense ids or packed atoms, never by rendered text.
// A context is not safe for concurrent use.
type FDDCtx struct {
	arena  fddArena
	nextID int
	fields fieldIntern
	nodes  map[nodeKey]*FDD

	// leaf1 interns the common single-action leaves by action id; leafN
	// interns multicast leaves by their packed sorted action-id bytes.
	leaf1 map[int]*FDD
	leafN map[string]*FDD

	// actions interns assignment sets by packed (fieldID, value) pairs
	// in sorted-field order.
	actions map[string]*Action

	unionMemo map[fddPair]*FDD
	seqMemo   map[fddPair]*FDD
	gateMemo  map[fddPair]*FDD
	pushMemo  map[fddPair]*FDD // (action id, fdd id)
	notMemo   map[int]*FDD

	// hopCache memoizes symbolic strand execution (fdd_table.go) across
	// compiles sharing this context: policies projected from different
	// states of one program repeat most strands verbatim. Each cached hop
	// carries its prebuilt single-rule diagram. Keys are packed id bytes
	// (appendStrandKey), built in strandKey.
	hopCache  map[string][]cachedHop
	strandKey []byte

	// segMemo memoizes segment diagrams and walkMemo the test
	// conjunctions reaching each link of a strand prefix (Figure 6), each
	// under a structural key (interned shape, packed truth vector over its
	// placeholders) that holds for every program sharing this context and
	// its interners (evalStrand).
	segMemo  map[segMemoKey]*FDD
	walkMemo map[segMemoKey][][]*netkat.Conj

	// foldCache memoizes the per-switch union fold over hop diagrams by
	// the packed hop identity sequence, and tableMemo memoizes the
	// extracted table by switch-diagram identity: every state — and, when
	// the context outlives a build (ProgramCache), every later program —
	// whose switch behaves identically holds the same *flowtable.Table.
	// Cached tables are read-only to everyone downstream.
	foldCache map[string]*FDD
	tableMemo map[int]*flowtable.Table

	// scratch buffers reused across intern/key construction calls.
	keyBuf []byte

	// ID is the identity diagram (leaf {id}); Drop is the empty leaf.
	ID   *FDD
	Drop *FDD
	eps  *Action
}

// NewFDDCtx returns a fresh hash-consing context.
func NewFDDCtx() *FDDCtx {
	c := &FDDCtx{
		fields:    newFieldIntern(),
		nodes:     map[nodeKey]*FDD{},
		leaf1:     map[int]*FDD{},
		leafN:     map[string]*FDD{},
		actions:   map[string]*Action{},
		unionMemo: map[fddPair]*FDD{},
		seqMemo:   map[fddPair]*FDD{},
		gateMemo:  map[fddPair]*FDD{},
		pushMemo:  map[fddPair]*FDD{},
		notMemo:   map[int]*FDD{},
		hopCache:  map[string][]cachedHop{},
		segMemo:   map[segMemoKey]*FDD{},
		walkMemo:  map[segMemoKey][][]*netkat.Conj{},
		foldCache: map[string]*FDD{},
		tableMemo: map[int]*flowtable.Table{},
	}
	c.eps = c.internAction(nil)
	c.Drop = c.mkLeaf(nil)
	c.ID = c.mkLeaf([]*Action{c.eps})
	return c
}

// NodeCount returns the number of nodes interned so far — the size of the
// hash-consed node store, reported by CacheStats.
func (c *FDDCtx) NodeCount() int { return c.nextID }

// StrandCount returns the number of distinct symbolic strand executions
// memoized so far.
func (c *FDDCtx) StrandCount() int { return len(c.hopCache) }

// ArenaBytes returns the slab bytes reserved by the node arena.
func (c *FDDCtx) ArenaBytes() int64 { return c.arena.bytes() }

// AtomCount returns the number of interned field atoms plus actions —
// the per-context interner population reported by CacheStats.
func (c *FDDCtx) AtomCount() int { return c.fields.len() + len(c.actions) }

// internAction canonicalizes an assignment map under a packed binary
// key: sorted field ids and values, 8 bytes per assignment, no decimal
// rendering.
func (c *FDDCtx) internAction(sets map[string]int) *Action {
	fs := make([]string, 0, len(sets))
	for f := range sets {
		checkAtomValue(sets[f])
		fs = append(fs, f)
	}
	sort.Strings(fs)
	buf := c.keyBuf[:0]
	for _, f := range fs {
		buf = appendUint64(buf, packAtom(c.fields.id(f), sets[f]))
	}
	c.keyBuf = buf
	if a, ok := c.actions[string(buf)]; ok {
		return a
	}
	cp := make(map[string]int, len(sets))
	for f, v := range sets {
		cp[f] = v
	}
	a := &Action{id: len(c.actions), sets: cp, fields: fs}
	c.actions[string(buf)] = a
	return a
}

// appendUint64 appends v big-endian.
func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendID appends a dense id as 4 little-endian bytes (ids are bounded
// by store sizes, far below 2^32).
func appendID(b []byte, id int) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// compose sequences two actions: b's assignments override a's.
func (c *FDDCtx) compose(a, b *Action) *Action {
	if len(b.sets) == 0 {
		return a
	}
	if len(a.sets) == 0 {
		return b
	}
	m := a.Sets()
	for f, v := range b.sets {
		m[f] = v
	}
	return c.internAction(m)
}

// mkLeaf interns a leaf with the canonical (sorted, deduplicated) form of
// the given action set. Single-action leaves — the overwhelmingly common
// case — are an int-keyed lookup; multicast leaves key on packed sorted
// action ids. Action ids are assigned at intern time, so sorting by id is
// deterministic for a deterministic compile sequence, and extraction
// re-sorts groups canonically anyway.
func (c *FDDCtx) mkLeaf(acts []*Action) *FDD {
	if len(acts) == 0 && c.Drop != nil {
		return c.Drop
	}
	if len(acts) == 1 {
		if d, ok := c.leaf1[acts[0].id]; ok {
			return d
		}
		d := c.newLeaf([]*Action{acts[0]})
		c.leaf1[acts[0].id] = d
		return d
	}
	sorted := append([]*Action{}, acts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	uniq := sorted[:0]
	var prev *Action
	for _, a := range sorted {
		if a != prev {
			uniq = append(uniq, a)
		}
		prev = a
	}
	if len(uniq) == 1 {
		return c.mkLeaf(uniq[:1])
	}
	buf := c.keyBuf[:0]
	for _, a := range uniq {
		buf = appendID(buf, a.id)
	}
	c.keyBuf = buf
	if d, ok := c.leafN[string(buf)]; ok {
		return d
	}
	d := c.newLeaf(append([]*Action{}, uniq...))
	c.leafN[string(buf)] = d
	return d
}

// newLeaf allocates a leaf node from the arena.
func (c *FDDCtx) newLeaf(acts []*Action) *FDD {
	d := c.arena.alloc()
	c.nextID = c.arena.n
	d.leaf = true
	d.acts = acts
	return d
}

// mkNode interns a test node, eliminating it when both branches agree.
func (c *FDDCtx) mkNode(field string, value int, hi, lo *FDD) *FDD {
	if hi == lo {
		return hi
	}
	checkAtomValue(value)
	k := nodeKey{atom: packAtom(c.fields.id(field), value), hiID: hi.id, loID: lo.id}
	if d, ok := c.nodes[k]; ok {
		return d
	}
	d := c.arena.alloc()
	c.nextID = c.arena.n
	d.field = field
	d.value = value
	d.hi = hi
	d.lo = lo
	c.nodes[k] = d
	return d
}

// atom returns the single-test filter diagram field = value (negated if
// neg).
func (c *FDDCtx) atom(field string, value int, neg bool) *FDD {
	if neg {
		return c.mkNode(field, value, c.Drop, c.ID)
	}
	return c.mkNode(field, value, c.ID, c.Drop)
}

// specialize restricts d to field = value: in a canonical diagram every
// test on the field sits on the top lo-spine, so pinning the field just
// walks it.
func specialize(d *FDD, field string, value int) *FDD {
	for !d.leaf && d.field == field {
		if d.value == value {
			d = d.hi
		} else {
			d = d.lo
		}
	}
	return d
}

// sameRoot reports whether two internal nodes test the same (field, value).
func sameRoot(a, b *FDD) bool {
	return !a.leaf && !b.leaf && a.field == b.field && a.value == b.value
}

// rootFirst reports whether a is an internal node whose root test is
// strictly ordered before b's (leaves order after every test).
func rootFirst(a, b *FDD) bool {
	if a.leaf {
		return false
	}
	if b.leaf {
		return true
	}
	return testLess(a.field, a.value, b.field, b.value)
}

// Union returns the diagram denoting the union of the two behaviors
// (leaf action sets are unioned pointwise over the packet space).
func (c *FDDCtx) Union(a, b *FDD) *FDD {
	if a == b {
		return a
	}
	if a.isDropLeaf() {
		return b
	}
	if b.isDropLeaf() {
		return a
	}
	if a.leaf && b.leaf {
		return c.mkLeaf(append(append([]*Action{}, a.acts...), b.acts...))
	}
	k := fddPair{a.id, b.id}
	if k.a > k.b {
		k.a, k.b = k.b, k.a // union is commutative
	}
	if r, ok := c.unionMemo[k]; ok {
		return r
	}
	var r *FDD
	switch {
	case sameRoot(a, b):
		r = c.mkNode(a.field, a.value, c.Union(a.hi, b.hi), c.Union(a.lo, b.lo))
	case rootFirst(a, b):
		r = c.mkNode(a.field, a.value, c.Union(a.hi, specialize(b, a.field, a.value)), c.Union(a.lo, b))
	default:
		r = c.mkNode(b.field, b.value, c.Union(specialize(a, b.field, b.value), b.hi), c.Union(a, b.lo))
	}
	c.unionMemo[k] = r
	return r
}

// gate restricts d to the region where the filter diagram p (leaves ID or
// Drop) accepts; on filters it is conjunction.
func (c *FDDCtx) gate(p, d *FDD) *FDD {
	if p.leaf {
		if len(p.acts) > 0 {
			return d
		}
		return c.Drop
	}
	if d.isDropLeaf() {
		return c.Drop
	}
	k := fddPair{p.id, d.id}
	if r, ok := c.gateMemo[k]; ok {
		return r
	}
	var r *FDD
	switch {
	case sameRoot(p, d):
		r = c.mkNode(p.field, p.value, c.gate(p.hi, d.hi), c.gate(p.lo, d.lo))
	case rootFirst(p, d):
		r = c.mkNode(p.field, p.value, c.gate(p.hi, specialize(d, p.field, p.value)), c.gate(p.lo, d))
	default:
		r = c.mkNode(d.field, d.value, c.gate(specialize(p, d.field, d.value), d.hi), c.gate(p, d.lo))
	}
	c.gateMemo[k] = r
	return r
}

// Not complements a filter diagram (leaves must be ID or Drop).
func (c *FDDCtx) Not(p *FDD) *FDD {
	if p.leaf {
		if len(p.acts) > 0 {
			return c.Drop
		}
		return c.ID
	}
	if r, ok := c.notMemo[p.id]; ok {
		return r
	}
	r := c.mkNode(p.field, p.value, c.Not(p.hi), c.Not(p.lo))
	c.notMemo[p.id] = r
	return r
}

// branch builds the canonical diagram for "if field = value then t else
// e" where t and e are arbitrary canonical diagrams (their roots may test
// fields ordered before the condition).
func (c *FDDCtx) branch(field string, value int, t, e *FDD) *FDD {
	if t == e {
		return t
	}
	return c.Union(
		c.gate(c.atom(field, value, false), t),
		c.gate(c.atom(field, value, true), e),
	)
}

// push threads an action through a diagram: tests on assigned fields are
// resolved statically (they see the written value) and leaf actions are
// composed after act.
func (c *FDDCtx) push(act *Action, d *FDD) *FDD {
	if d.leaf {
		if len(d.acts) == 0 {
			return c.Drop
		}
		out := make([]*Action, 0, len(d.acts))
		for _, b := range d.acts {
			out = append(out, c.compose(act, b))
		}
		return c.mkLeaf(out)
	}
	k := fddPair{act.id, d.id}
	if r, ok := c.pushMemo[k]; ok {
		return r
	}
	var r *FDD
	if v, ok := act.sets[d.field]; ok {
		if v == d.value {
			r = c.push(act, d.hi)
		} else {
			r = c.push(act, d.lo)
		}
	} else {
		r = c.mkNode(d.field, d.value, c.push(act, d.hi), c.push(act, d.lo))
	}
	c.pushMemo[k] = r
	return r
}

// Seq returns the Kleisli composition a; b.
func (c *FDDCtx) Seq(a, b *FDD) *FDD {
	if a.isDropLeaf() || b.isDropLeaf() {
		return c.Drop
	}
	if a == c.ID {
		return b
	}
	if b == c.ID {
		return a
	}
	k := fddPair{a.id, b.id}
	if r, ok := c.seqMemo[k]; ok {
		return r
	}
	var r *FDD
	if a.leaf {
		r = c.Drop
		for _, act := range a.acts {
			r = c.Union(r, c.push(act, b))
		}
	} else {
		r = c.branch(a.field, a.value, c.Seq(a.hi, b), c.Seq(a.lo, b))
	}
	c.seqMemo[k] = r
	return r
}

// Star computes the reflexive-transitive closure by fixpoint iteration;
// hash-consing makes convergence a pointer comparison.
func (c *FDDCtx) Star(a *FDD) (*FDD, error) {
	s := c.ID
	for i := 0; i < starBound; i++ {
		next := c.Union(c.ID, c.Seq(a, s))
		if next == s {
			return s, nil
		}
		s = next
	}
	return nil, fmt.Errorf("nkc: fdd star did not stabilize within %d iterations", starBound)
}

// FromPredFDD translates a predicate into a filter diagram.
func (c *FDDCtx) FromPredFDD(p netkat.Pred) *FDD {
	switch q := p.(type) {
	case netkat.True:
		return c.ID
	case netkat.False:
		return c.Drop
	case netkat.Test:
		return c.atom(q.Field, q.Value, false)
	case netkat.Not:
		return c.Not(c.FromPredFDD(q.P))
	case netkat.And:
		return c.gate(c.FromPredFDD(q.L), c.FromPredFDD(q.R))
	case netkat.Or:
		return c.Union(c.FromPredFDD(q.L), c.FromPredFDD(q.R))
	default:
		panic(fmt.Sprintf("nkc: unknown predicate node %T", p))
	}
}

// ToFDD translates a link-free policy into a diagram. It returns an error
// if the policy contains a Link or a non-stabilizing Star.
func (c *FDDCtx) ToFDD(p netkat.Policy) (*FDD, error) {
	switch q := p.(type) {
	case netkat.Filter:
		return c.FromPredFDD(q.P), nil
	case netkat.Assign:
		return c.mkLeaf([]*Action{c.internAction(map[string]int{q.Field: q.Value})}), nil
	case netkat.Union:
		l, err := c.ToFDD(q.L)
		if err != nil {
			return nil, err
		}
		r, err := c.ToFDD(q.R)
		if err != nil {
			return nil, err
		}
		return c.Union(l, r), nil
	case netkat.Seq:
		l, err := c.ToFDD(q.L)
		if err != nil {
			return nil, err
		}
		r, err := c.ToFDD(q.R)
		if err != nil {
			return nil, err
		}
		return c.Seq(l, r), nil
	case netkat.Star:
		inner, err := c.ToFDD(q.P)
		if err != nil {
			return nil, err
		}
		return c.Star(inner)
	case netkat.Link:
		return nil, fmt.Errorf("nkc: link %v inside a link-free context", q)
	default:
		return nil, fmt.Errorf("nkc: unknown policy node %T", p)
	}
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

// maxFDDPaths bounds leaf-path enumeration, mirroring maxChoices.
const maxFDDPaths = maxChoices

// PathSet enumerates the diagram's root-leaf paths as compiler paths: one
// Path per (path condition, leaf action) pair. Unlike DNF path normal
// form the conditions of distinct paths are mutually disjoint.
//
// The returned paths share their condition per leaf and alias the
// diagram's interned action maps; callers must treat Cond and Acts as
// read-only (Path.Clone gives an independent copy).
func (d *FDD) PathSet() (PathSet, error) {
	var out []Path
	type pathLit struct {
		f  string
		v  int
		eq bool
	}
	var lits []pathLit
	var walk func(n *FDD) error
	walk = func(n *FDD) error {
		if n.leaf {
			if len(n.acts) == 0 {
				return nil
			}
			if len(out)+len(n.acts) > maxFDDPaths {
				return fmt.Errorf("nkc: fdd expands to more than %d paths", maxFDDPaths)
			}
			cond := netkat.NewConj()
			for _, l := range lits {
				// Always satisfiable: each (field, value) test occurs at
				// most once along a canonical root-leaf path.
				if l.eq {
					cond.AddEq(l.f, l.v)
				} else {
					cond.AddNeq(l.f, l.v)
				}
			}
			for _, a := range n.acts {
				out = append(out, Path{Cond: cond, Acts: a.sets})
			}
			return nil
		}
		lits = append(lits, pathLit{f: n.field, v: n.value, eq: true})
		if err := walk(n.hi); err != nil {
			return err
		}
		lits[len(lits)-1].eq = false
		if err := walk(n.lo); err != nil {
			return err
		}
		lits = lits[:len(lits)-1]
		return nil
	}
	if err := walk(d); err != nil {
		return PathSet{}, err
	}
	return PathSet{Paths: out}, nil
}

// Package stateful implements Stateful NetKAT (Section 3.2 of the paper):
// NetKAT extended with a global vector-valued state variable. A stateful
// program compactly denotes a collection of static NetKAT configurations —
// one per state-vector value, extracted by Project (the ⟦p⟧k function of
// Figure 5) — together with the event-labeled transitions between them,
// extracted by Events (the ⟪p⟫k function of Figure 6).
package stateful

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"eventnet/internal/netkat"
)

// State is a value ~k of the global state vector.
type State []int

// Clone returns an independent copy.
func (s State) Clone() State { return append(State{}, s...) }

// Get returns the value at index m (0 if beyond the vector's length).
func (s State) Get(m int) int {
	if m < len(s) {
		return s[m]
	}
	return 0
}

// Key returns a canonical map key.
func (s State) Key() string {
	var b strings.Builder
	b.Grow(2 + 4*len(s))
	s.writeKey(&b)
	return b.String()
}

// writeKey writes Key's rendering to b.
func (s State) writeKey(b *strings.Builder) {
	var num [20]byte
	b.WriteByte('[')
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], int64(v), 10))
	}
	b.WriteByte(']')
}

// Equal reports pointwise equality (implicitly zero-padded).
func (s State) Equal(o State) bool {
	n := len(s)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s.Get(i) != o.Get(i) {
			return false
		}
	}
	return true
}

// String renders the state in the paper's [v0,v1,...] notation.
func (s State) String() string { return s.Key() }

// Pred is a Stateful NetKAT test: a boolean formula over header fields and
// the global state vector.
type Pred interface {
	isSPred()
	String() string
}

// PTrue is the test true.
type PTrue struct{}

// PFalse is the test false.
type PFalse struct{}

// PTest is the header test field = value (fields include sw and pt).
type PTest struct {
	Field string
	Value int
}

// PState is the state test state(Index) = Value.
type PState struct {
	Index int
	Value int
}

// PNot is negation.
type PNot struct{ P Pred }

// PAnd is conjunction.
type PAnd struct{ L, R Pred }

// POr is disjunction.
type POr struct{ L, R Pred }

func (PTrue) isSPred()  {}
func (PFalse) isSPred() {}
func (PTest) isSPred()  {}
func (PState) isSPred() {}
func (PNot) isSPred()   {}
func (PAnd) isSPred()   {}
func (POr) isSPred()    {}

func (t PTrue) String() string  { return new(text).pred(t, 0).String() }
func (t PFalse) String() string { return new(text).pred(t, 0).String() }
func (t PTest) String() string  { return new(text).pred(t, 0).String() }
func (t PState) String() string { return new(text).pred(t, 0).String() }
func (n PNot) String() string   { return new(text).pred(n, 0).String() }
func (a PAnd) String() string   { return new(text).pred(a, 0).String() }
func (o POr) String() string    { return new(text).pred(o, 0).String() }

// text renders tests and commands in one pass over the tree into one
// buffer. The rendering is a cache key for whole programs (ctrl), and
// its shape mode the compiler's segment key (Shape); building it by
// concatenating the operands' renderings copies every leaf once per
// enclosing operator.
type text struct {
	strings.Builder
	shape bool        // render each state test as shapeHole and record it in tests
	tests []GuardTest // shape mode: the state tests replaced, in rendering order
}

// shapeHole is the placeholder Shape writes for a state test. The lexer
// rejects NUL, so no program text contains it.
const shapeHole = "\x00"

// Shape renders c with every state test replaced by shapeHole and
// returns the tests it replaced in rendering order, duplicates kept.
// Projection changes nothing but the state tests, each to true or false
// by whether it holds, so two commands of equal shape whose tests have
// equal truth values, position by position, project to the same policy
// and raise the same test conjunctions (Figure 6): the shape and the
// truth vector over its tests are the compiler's segment key, shared by
// every counter branch that differs only in the value it compares
// against. The shape alone does not identify the command; with its tests
// it does.
func Shape(c Cmd) (string, []GuardTest) {
	t := text{shape: true}
	t.cmd(c, 0)
	return t.String(), t.tests
}

// s appends the parts. Grow doubles a buffer that runs short; append
// alone grows a long text a quarter at a time and copies it five times.
func (t *text) s(parts ...string) *text {
	t.Grow(64)
	for _, p := range parts {
		t.WriteString(p)
	}
	return t
}

func (t *text) i(v int) *text {
	var buf [20]byte
	t.Write(strconv.AppendInt(buf[:0], int64(v), 10))
	return t
}

// level is an operator's binding strength; an operand that binds looser
// than the operator around it is parenthesized.
func level(node any) int {
	switch node.(type) {
	case POr, CUnion:
		return 1
	case PAnd, CSeq:
		return 2
	case PNot:
		return 3
	default:
		return 4
	}
}

// pred renders p as an operand of an operator binding at lv.
func (t *text) pred(p Pred, lv int) *text {
	if level(p) < lv {
		return t.s("(").pred(p, 0).s(")")
	}
	switch q := p.(type) {
	case PTrue:
		return t.s("true")
	case PFalse:
		return t.s("false")
	case PTest:
		return t.s(q.Field, "=").i(q.Value)
	case PState:
		if t.shape {
			t.tests = append(t.tests, GuardTest{Index: q.Index, Value: q.Value})
			return t.s(shapeHole)
		}
		return t.s("state(").i(q.Index).s(")=").i(q.Value)
	case PNot:
		return t.s("!").pred(q.P, 3)
	case PAnd:
		return t.pred(q.L, 2).s(" & ").pred(q.R, 2)
	case POr:
		return t.pred(q.L, 1).s(" | ").pred(q.R, 1)
	default:
		panic(fmt.Sprintf("stateful: unknown predicate %T", p))
	}
}

// StateSet is a vector assignment carried by a link: state(Index) <- Value
// for each entry, applied simultaneously.
type StateSet struct {
	Index int
	Value int
}

// Cmd is a Stateful NetKAT command.
type Cmd interface {
	isCmd()
	String() string
}

// CPred lifts a test to a command.
type CPred struct{ P Pred }

// CAssign is the field assignment x <- n.
type CAssign struct {
	Field string
	Value int
}

// CUnion is p + q.
type CUnion struct{ L, R Cmd }

// CSeq is p ; q.
type CSeq struct{ L, R Cmd }

// CStar is p*.
type CStar struct{ P Cmd }

// CLink is the plain link definition (n1:m1) -> (n2:m2).
type CLink struct{ Src, Dst netkat.Location }

// CLinkState is the event-generating link definition
// (n1:m1) -> (n2:m2) <state(m) <- n, ...>: crossing it updates the global
// state, and the arrival of the packet at Dst is the triggering event.
type CLinkState struct {
	Src, Dst netkat.Location
	Sets     []StateSet
}

func (CPred) isCmd()      {}
func (CAssign) isCmd()    {}
func (CUnion) isCmd()     {}
func (CSeq) isCmd()       {}
func (CStar) isCmd()      {}
func (CLink) isCmd()      {}
func (CLinkState) isCmd() {}

func (c CPred) String() string      { return new(text).cmd(c, 0).String() }
func (c CAssign) String() string    { return new(text).cmd(c, 0).String() }
func (c CUnion) String() string     { return new(text).cmd(c, 0).String() }
func (c CSeq) String() string       { return new(text).cmd(c, 0).String() }
func (c CStar) String() string      { return new(text).cmd(c, 0).String() }
func (c CLink) String() string      { return new(text).cmd(c, 0).String() }
func (c CLinkState) String() string { return new(text).cmd(c, 0).String() }

// starSafe reports whether a command prints as a single postfix-star
// operand without parentheses (matching the parser, where '*' binds
// tighter than '&' and '|' but looser than '!').
func starSafe(c Cmd) bool {
	switch q := c.(type) {
	case CAssign, CLink, CLinkState:
		return true
	case CPred:
		switch q.P.(type) {
		case PAnd, POr:
			return false
		default:
			return true
		}
	default:
		return false
	}
}

// cmd renders c as an operand of an operator binding at lv.
func (t *text) cmd(c Cmd, lv int) *text {
	if level(c) < lv {
		return t.s("(").cmd(c, 0).s(")")
	}
	switch q := c.(type) {
	case CPred:
		return t.pred(q.P, 0)
	case CAssign:
		return t.s(q.Field, "<-").i(q.Value)
	case CUnion:
		return t.cmd(q.L, 1).s(" + ").cmd(q.R, 1)
	case CSeq:
		return t.cmd(q.L, 2).s("; ").cmd(q.R, 2)
	case CStar:
		if starSafe(q.P) {
			return t.cmd(q.P, 0).s("*")
		}
		return t.s("(").cmd(q.P, 0).s(")*")
	case CLink:
		return t.link(q.Src, q.Dst)
	case CLinkState:
		t.link(q.Src, q.Dst).s("<")
		for i, s := range q.Sets {
			if i > 0 {
				t.s(", ")
			}
			t.s("state(").i(s.Index).s(")<-").i(s.Value)
		}
		return t.s(">")
	default:
		panic(fmt.Sprintf("stateful: unknown command %T", c))
	}
}

func (t *text) link(src, dst netkat.Location) *text {
	return t.s("(").i(src.Switch).s(":").i(src.Port).s(")=>(").i(dst.Switch).s(":").i(dst.Port).s(")")
}

// Project extracts the standard NetKAT program ⟦p⟧k for state vector k
// (Figure 5): state tests are resolved against k and link state-updates
// are erased, leaving the plain link.
func Project(c Cmd, k State) netkat.Policy {
	switch q := c.(type) {
	case CPred:
		return netkat.Filter{P: projectPred(q.P, k)}
	case CAssign:
		return netkat.Assign{Field: q.Field, Value: q.Value}
	case CUnion:
		return netkat.Union{L: Project(q.L, k), R: Project(q.R, k)}
	case CSeq:
		return netkat.Seq{L: Project(q.L, k), R: Project(q.R, k)}
	case CStar:
		return netkat.Star{P: Project(q.P, k)}
	case CLink:
		return netkat.Link{Src: q.Src, Dst: q.Dst}
	case CLinkState:
		return netkat.Link{Src: q.Src, Dst: q.Dst}
	default:
		panic(fmt.Sprintf("stateful: unknown command %T", c))
	}
}

func projectPred(p Pred, k State) netkat.Pred {
	switch q := p.(type) {
	case PTrue:
		return netkat.True{}
	case PFalse:
		return netkat.False{}
	case PTest:
		return netkat.Test{Field: q.Field, Value: q.Value}
	case PState:
		if k.Get(q.Index) == q.Value {
			return netkat.True{}
		}
		return netkat.False{}
	case PNot:
		return netkat.Not{P: projectPred(q.P, k)}
	case PAnd:
		return netkat.And{L: projectPred(q.L, k), R: projectPred(q.R, k)}
	case POr:
		return netkat.Or{L: projectPred(q.L, k), R: projectPred(q.R, k)}
	default:
		panic(fmt.Sprintf("stateful: unknown predicate %T", p))
	}
}

// Lift is the structural inverse of Project: the state-free command whose
// projection at every state is p itself (Project(Lift(p), k) == p for any
// k). A plain NetKAT policy is thus the one-state case of a program.
func Lift(p netkat.Policy) Cmd {
	switch q := p.(type) {
	case netkat.Filter:
		return CPred{P: liftPred(q.P)}
	case netkat.Assign:
		return CAssign{Field: q.Field, Value: q.Value}
	case netkat.Union:
		return CUnion{L: Lift(q.L), R: Lift(q.R)}
	case netkat.Seq:
		return CSeq{L: Lift(q.L), R: Lift(q.R)}
	case netkat.Star:
		return CStar{P: Lift(q.P)}
	case netkat.Link:
		return CLink{Src: q.Src, Dst: q.Dst}
	default:
		panic(fmt.Sprintf("stateful: unknown policy %T", p))
	}
}

func liftPred(p netkat.Pred) Pred {
	switch q := p.(type) {
	case netkat.True:
		return PTrue{}
	case netkat.False:
		return PFalse{}
	case netkat.Test:
		return PTest{Field: q.Field, Value: q.Value}
	case netkat.Not:
		return PNot{P: liftPred(q.P)}
	case netkat.And:
		return PAnd{L: liftPred(q.L), R: liftPred(q.R)}
	case netkat.Or:
		return POr{L: liftPred(q.L), R: liftPred(q.R)}
	default:
		panic(fmt.Sprintf("stateful: unknown predicate %T", p))
	}
}

// Edge is one event-edge extracted from a program: in state From, the
// arrival at Loc of a packet satisfying Guard moves the system to state To
// (the tuple (~k, (ϕ, s2, p2), ~k[m ↦ n]) of Figure 6).
type Edge struct {
	From       State
	Guard      *netkat.Conj
	Loc        netkat.Location
	To         State
	label, key string // event and edge identity, cached at construction (Edge is immutable after)
	to         int    // To.Key() is key[to:]
}

// Key returns a canonical identity for deduplication, "from|ϕ@loc|to";
// Label the identity of the edge's event, "ϕ@loc" — what the ETS counts
// occurrences of and a program swap matches events by, one string per
// template; and ToKey To.Key(), the tail of Key. All are fixed by
// EdgeTemplate.At, which builds every Edge there is.
func (e Edge) Key() string   { return e.key }
func (e Edge) Label() string { return e.label }
func (e Edge) ToKey() string { return e.key[e.to:] }

// String renders the edge.
func (e Edge) String() string {
	return fmt.Sprintf("%v --(%v @ %v)--> %v", e.From, e.Guard, e.Loc, e.To)
}

// EdgeTemplate is an event-edge with its source state left open: the
// event (ϕ, s2, p2) and the state assignments of the link that raises it.
// Which templates a command yields depends on the state only through the
// truth values of the command's state tests, so one template serves every
// state that agrees on those tests; At fixes the state.
type EdgeTemplate struct {
	Guard *netkat.Conj
	Loc   netkat.Location
	Sets  []StateSet
	label string // "ϕ@loc": Edge.Label, the state-independent middle of Edge.Key
}

// NewEdgeTemplate builds the template of a state-updating link reached
// under guard, rendering its label once. The guard is retained, not
// copied.
func NewEdgeTemplate(guard *netkat.Conj, loc netkat.Location, sets []StateSet) EdgeTemplate {
	b := append(guard.AppendKey(make([]byte, 0, 64), ""), '@')
	b = strconv.AppendInt(append(strconv.AppendInt(b, int64(loc.Switch), 10), ':'), int64(loc.Port), 10)
	return EdgeTemplate{Guard: guard, Loc: loc, Sets: sets, label: string(b)}
}

// At instantiates the template at source state k: the edge to
// k[m ↦ n, ...], with its canonical key written once. From is k itself:
// no code writes a State after building it.
func (t EdgeTemplate) At(k State) Edge {
	to := k.Clone()
	for _, s := range t.Sets {
		for len(to) <= s.Index {
			to = append(to, 0)
		}
		to[s.Index] = s.Value
	}
	var b strings.Builder
	b.Grow(6 + 4*(len(k)+len(to)) + len(t.label))
	k.writeKey(&b)
	b.WriteByte('|')
	b.WriteString(t.label)
	b.WriteByte('|')
	at := b.Len()
	to.writeKey(&b)
	return Edge{From: k, Guard: t.Guard, Loc: t.Loc, To: to, label: t.label, key: b.String(), to: at}
}

// result is the (D, P) pair threaded through the Figure 6 recursion:
// event-edges plus the set of updated test conjunctions.
type result struct {
	edges []Edge
	phis  []*netkat.Conj
}

func (r result) union(o result) result {
	if len(o.edges) == 0 && len(o.phis) == 0 {
		return r
	}
	if len(r.edges) == 0 && len(r.phis) == 0 {
		return o
	}
	seenE := make(map[string]bool, len(r.edges)+len(o.edges))
	edges := make([]Edge, 0, len(r.edges)+len(o.edges))
	for _, es := range [2][]Edge{r.edges, o.edges} {
		for _, e := range es {
			k := e.Key()
			if !seenE[k] {
				seenE[k] = true
				edges = append(edges, e)
			}
		}
	}
	seenP := make(map[string]bool, len(r.phis)+len(o.phis))
	phis := make([]*netkat.Conj, 0, len(r.phis)+len(o.phis))
	for _, cs := range [2][]*netkat.Conj{r.phis, o.phis} {
		for _, c := range cs {
			k := c.Key()
			if !seenP[k] {
				seenP[k] = true
				phis = append(phis, c)
			}
		}
	}
	return result{edges: edges, phis: phis}
}

// starEventBound caps the F^j fixpoint of Figure 6 for p*.
const starEventBound = 100

// Events computes ⟪p⟫k true: the event-edges leaving state k, together
// with the final test conjunctions (Figure 6).
func Events(c Cmd, k State) ([]Edge, error) {
	r, err := events(c, k, netkat.NewConj())
	if err != nil {
		return nil, err
	}
	slices.SortFunc(r.edges, func(a, b Edge) int { return strings.Compare(a.key, b.key) })
	return r.edges, nil
}

// Tests computes the P half of ⟪c⟫k for a link-free command c, from each
// of the conjunctions phis: the distinct test conjunctions a packet that
// satisfied one of them can satisfy after c. It is the step the
// compiler's per-strand event extraction (nkc.ProgramCompiler.Explore)
// composes between links; Events remains the whole-program oracle.
func Tests(c Cmd, k State, phis []*netkat.Conj) ([]*netkat.Conj, error) {
	var out result
	for _, phi := range phis {
		r, err := events(c, k, phi)
		if err != nil {
			return nil, err
		}
		out = out.union(result{phis: r.phis})
	}
	return out.phis, nil
}

// events is ⟪c⟫k ϕ. It propagates the conjunction of tests seen so far and
// records an event-edge at each state-updating link.
func events(c Cmd, k State, phi *netkat.Conj) (result, error) {
	switch q := c.(type) {
	case CPred:
		return eventsPred(q.P, k, phi, false)
	case CAssign:
		// ⟪f <- n⟫k ϕ = ({}, {(∃f : ϕ) ∧ f=n}). Event guards range over
		// header fields only (an event is matched by sw/pt separately), so
		// port assignments leave ϕ unchanged.
		if q.Field == netkat.FieldPt || q.Field == netkat.FieldSw {
			return result{phis: []*netkat.Conj{phi.Clone()}}, nil
		}
		c2 := phi.Clone()
		c2.Exists(q.Field)
		if !c2.AddEq(q.Field, q.Value) {
			return result{}, nil
		}
		return result{phis: []*netkat.Conj{c2}}, nil
	case CUnion:
		l, err := events(q.L, k, phi)
		if err != nil {
			return result{}, err
		}
		r, err := events(q.R, k, phi)
		if err != nil {
			return result{}, err
		}
		return l.union(r), nil
	case CSeq:
		// Kleisli composition: run q.L, then q.R from each resulting ϕ.
		l, err := events(q.L, k, phi)
		if err != nil {
			return result{}, err
		}
		out := result{edges: l.edges}
		for _, p2 := range l.phis {
			r, err := events(q.R, k, p2)
			if err != nil {
				return result{}, err
			}
			out = out.union(r)
		}
		return out, nil
	case CStar:
		// ⊔j F^j_p(ϕ, k), iterated to a fixpoint.
		acc := result{phis: []*netkat.Conj{phi.Clone()}}
		frontier := acc.phis
		for i := 0; i < starEventBound; i++ {
			var next result
			for _, p2 := range frontier {
				r, err := events(q.P, k, p2)
				if err != nil {
					return result{}, err
				}
				next = next.union(r)
			}
			before := len(acc.edges) + len(acc.phis)
			merged := acc.union(next)
			if len(merged.edges)+len(merged.phis) == before {
				return acc, nil
			}
			// New frontier: phis not previously seen.
			seen := map[string]bool{}
			for _, c := range acc.phis {
				seen[c.Key()] = true
			}
			frontier = nil
			for _, c := range merged.phis {
				if !seen[c.Key()] {
					frontier = append(frontier, c)
				}
			}
			acc = merged
		}
		return result{}, fmt.Errorf("stateful: star event extraction did not stabilize within %d iterations", starEventBound)
	case CLink:
		return result{phis: []*netkat.Conj{phi.Clone()}}, nil
	case CLinkState:
		e := NewEdgeTemplate(phi.Clone(), q.Dst, q.Sets).At(k)
		return result{edges: []Edge{e}, phis: []*netkat.Conj{phi.Clone()}}, nil
	default:
		return result{}, fmt.Errorf("stateful: unknown command %T", c)
	}
}

// eventsPred handles tests, following Figure 6: field tests extend ϕ,
// sw/pt tests leave it unchanged, state tests are resolved against k, and
// negation is pushed inward.
func eventsPred(p Pred, k State, phi *netkat.Conj, neg bool) (result, error) {
	switch q := p.(type) {
	case PTrue:
		if neg {
			return result{}, nil
		}
		return result{phis: []*netkat.Conj{phi.Clone()}}, nil
	case PFalse:
		if neg {
			return result{phis: []*netkat.Conj{phi.Clone()}}, nil
		}
		return result{}, nil
	case PTest:
		// ⟪sw = n⟫ and ⟪pt = n⟫ do not constrain the event guard
		// (Figure 6 maps them to ⟪true⟫): the event's location is fixed by
		// the link, not by where the test happened.
		if q.Field == netkat.FieldSw || q.Field == netkat.FieldPt {
			return result{phis: []*netkat.Conj{phi.Clone()}}, nil
		}
		c2 := phi.Clone()
		ok := false
		if neg {
			ok = c2.AddNeq(q.Field, q.Value)
		} else {
			ok = c2.AddEq(q.Field, q.Value)
		}
		if !ok {
			return result{}, nil
		}
		return result{phis: []*netkat.Conj{c2}}, nil
	case PState:
		holds := k.Get(q.Index) == q.Value
		if neg {
			holds = !holds
		}
		if holds {
			return result{phis: []*netkat.Conj{phi.Clone()}}, nil
		}
		return result{}, nil
	case PNot:
		return eventsPred(q.P, k, phi, !neg)
	case PAnd:
		if neg {
			// ¬(a ∧ b) = ¬a ∨ ¬b
			return eventsPred(POr{PNot{q.L}, PNot{q.R}}, k, phi, false)
		}
		// a ∧ b = a ; b
		l, err := eventsPred(q.L, k, phi, false)
		if err != nil {
			return result{}, err
		}
		out := result{edges: l.edges}
		for _, p2 := range l.phis {
			r, err := eventsPred(q.R, k, p2, false)
			if err != nil {
				return result{}, err
			}
			out = out.union(r)
		}
		return out, nil
	case POr:
		if neg {
			// ¬(a ∨ b) = ¬a ∧ ¬b
			return eventsPred(PAnd{PNot{q.L}, PNot{q.R}}, k, phi, false)
		}
		l, err := eventsPred(q.L, k, phi, false)
		if err != nil {
			return result{}, err
		}
		r, err := eventsPred(q.R, k, phi, false)
		if err != nil {
			return result{}, err
		}
		return l.union(r), nil
	default:
		return result{}, fmt.Errorf("stateful: unknown predicate %T", p)
	}
}

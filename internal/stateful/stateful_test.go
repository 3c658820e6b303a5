package stateful

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eventnet/internal/netkat"
)

func loc(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }

// With returns a copy with index m set to n, growing the vector if needed.
func (s State) With(m, n int) State {
	t := s.Clone()
	for len(t) <= m {
		t = append(t, 0)
	}
	t[m] = n
	return t
}

func TestStateOps(t *testing.T) {
	s := State{0, 1}
	if s.Get(0) != 0 || s.Get(1) != 1 || s.Get(5) != 0 {
		t.Error("Get broken")
	}
	u := s.With(2, 7)
	if u.Get(2) != 7 || s.Get(2) != 0 {
		t.Error("With must not mutate")
	}
	if !s.Equal(State{0, 1, 0}) {
		t.Error("Equal must zero-pad")
	}
	if s.Key() != "[0,1]" {
		t.Errorf("Key: %q", s.Key())
	}
}

// TestProjectFigure5 checks the projection rules: state tests resolve
// against k, and state-updating links erase to plain links.
func TestProjectFigure5(t *testing.T) {
	c := SeqC(
		CPred{P: PState{Index: 0, Value: 1}},
		CLinkState{Src: loc(1, 1), Dst: loc(4, 1), Sets: []StateSet{{Index: 0, Value: 2}}},
	)
	p0 := Project(c, State{0})
	p1 := Project(c, State{1})
	lp := netkat.LocatedPacket{Pkt: netkat.Packet{}, Loc: loc(1, 1)}
	if got := netkat.Eval(p0, lp); len(got) != 0 {
		t.Errorf("state [0]: test should project to false, got %v", got)
	}
	if got := netkat.Eval(p1, lp); len(got) != 1 || got[0].Loc != loc(4, 1) {
		t.Errorf("state [1]: link should fire, got %v", got)
	}
}

// TestProjectNegatedState: state(0)!=0 is true exactly when k(0) != 0.
func TestProjectNegatedState(t *testing.T) {
	c := CPred{P: PNot{P: PState{Index: 0, Value: 0}}}
	lp := netkat.LocatedPacket{Pkt: netkat.Packet{}, Loc: loc(1, 1)}
	if got := netkat.Eval(Project(c, State{0}), lp); len(got) != 0 {
		t.Error("negated state test true in state [0]")
	}
	if got := netkat.Eval(Project(c, State{3}), lp); len(got) != 1 {
		t.Error("negated state test false in state [3]")
	}
}

// TestEventsFigure6 checks event extraction on the firewall shape: the
// guard collects field tests, ignores sw/pt, and respects state guards.
func TestEventsFigure6(t *testing.T) {
	c := SeqC(
		CPred{P: PAnd{L: PTest{Field: netkat.FieldPt, Value: 2}, R: PTest{Field: "dst", Value: 104}}},
		CAssign{Field: netkat.FieldPt, Value: 1},
		UnionC(
			SeqC(CPred{P: PState{Index: 0, Value: 0}}, CLinkState{Src: loc(1, 1), Dst: loc(4, 1), Sets: []StateSet{{Index: 0, Value: 1}}}),
			SeqC(CPred{P: PNot{P: PState{Index: 0, Value: 0}}}, CLink{Src: loc(1, 1), Dst: loc(4, 1)}),
		),
		CAssign{Field: netkat.FieldPt, Value: 2},
	)
	edges, err := Events(c, State{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("edges in state [0]: %v", edges)
	}
	e := edges[0]
	if e.Loc != loc(4, 1) {
		t.Errorf("event location: %v", e.Loc)
	}
	if v, ok := e.Guard.Eq("dst"); !ok || v != 104 {
		t.Errorf("guard: %v", e.Guard)
	}
	if _, ok := e.Guard.Eq(netkat.FieldPt); ok {
		t.Errorf("guard must not constrain pt: %v", e.Guard)
	}
	if !e.To.Equal(State{1}) {
		t.Errorf("target state: %v", e.To)
	}
	// In state [1] the state guard kills the event branch.
	edges, err = Events(c, State{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Fatalf("edges in state [1]: %v", edges)
	}
}

// TestEventsAssignmentStripsField: an assignment existentially quantifies
// the field in the accumulated guard (the (∃f : ϕ) ∧ f=n rule).
func TestEventsAssignmentStripsField(t *testing.T) {
	c := SeqC(
		CPred{P: PTest{Field: "a", Value: 1}},
		CAssign{Field: "a", Value: 2},
		CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 0, Value: 1}}},
	)
	edges, err := Events(c, State{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("edges: %v", edges)
	}
	if v, ok := edges[0].Guard.Eq("a"); !ok || v != 2 {
		t.Errorf("guard after assignment: %v", edges[0].Guard)
	}
}

// TestEventsContradictionKillsBranch: a=1; a=2 contributes nothing.
func TestEventsContradictionKillsBranch(t *testing.T) {
	c := SeqC(
		CPred{P: PTest{Field: "a", Value: 1}},
		CPred{P: PTest{Field: "a", Value: 2}},
		CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 0, Value: 1}}},
	)
	edges, err := Events(c, State{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 {
		t.Fatalf("contradictory branch produced edges: %v", edges)
	}
}

// TestEventsDisjunctionSplits: (a=1 | a=2) produces two event edges with
// distinct guards.
func TestEventsDisjunctionSplits(t *testing.T) {
	c := SeqC(
		CPred{P: POr{L: PTest{Field: "a", Value: 1}, R: PTest{Field: "a", Value: 2}}},
		CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 0, Value: 1}}},
	)
	edges, err := Events(c, State{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("edges: %v", edges)
	}
}

// TestEventsStar: event extraction under iteration reaches a fixpoint and
// finds the edge.
func TestEventsStar(t *testing.T) {
	body := UnionC(
		CAssign{Field: "a", Value: 1},
		SeqC(CPred{P: PTest{Field: "a", Value: 1}}, CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 0, Value: 1}}}),
	)
	edges, err := Events(CStar{P: body}, State{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		// One edge with guard a=1 (before assignment), one with guard
		// true∧a=1 after the assignment path — deduplicated by key they
		// may coincide; accept 1 or 2 but not 0.
		if len(edges) == 0 {
			t.Fatalf("no edges under star")
		}
	}
}

// TestReachableStates on a two-counter chain.
func TestReachableStates(t *testing.T) {
	c := UnionC(
		SeqC(CPred{P: PState{Index: 0, Value: 0}}, CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 0, Value: 1}}}),
		SeqC(CPred{P: PState{Index: 0, Value: 1}}, CLinkState{Src: loc(2, 1), Dst: loc(1, 1), Sets: []StateSet{{Index: 0, Value: 2}}}),
	)
	states, edges, err := Program{Cmd: c, Init: State{0}}.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 || len(edges) != 2 {
		t.Fatalf("states %v, edges %v", states, edges)
	}
}

// TestStateIndices: the state components a program's projection reads
// are those its tests name; a link's state update is not a test.
func TestStateIndices(t *testing.T) {
	c := UnionC(
		CPred{P: PState{Index: 3, Value: 0}},
		CLinkState{Src: loc(1, 1), Dst: loc(2, 1), Sets: []StateSet{{Index: 1, Value: 1}}},
	)
	if got := CollectGuards(c).Tests(); len(got) != 1 || got[0] != (GuardTest{Index: 3, Value: 0}) {
		t.Errorf("guards: %v", got)
	}
}

// TestProjectEvalAgreement: for random programs, projecting then
// evaluating is insensitive to state indices the program does not test.
func TestProjectEvalAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		c := randLinkFreeCmd(r, 3)
		lp := netkat.LocatedPacket{
			Pkt: netkat.Packet{"a": r.Intn(3), "b": r.Intn(3)},
			Loc: loc(1+r.Intn(2), 1+r.Intn(2)),
		}
		// Indices beyond those used must not matter.
		k1 := State{0, 1}
		k2 := State{0, 1, 9, 9}
		usesBeyond := false
		for _, g := range CollectGuards(c).Tests() {
			if g.Index >= 2 {
				usesBeyond = true
			}
		}
		if usesBeyond {
			continue
		}
		if !netkat.EquivOn(Project(c, k1), Project(c, k2), []netkat.LocatedPacket{lp}) {
			t.Fatalf("projection depends on unused state: %v", c)
		}
	}
}

func randLinkFreeCmd(r *rand.Rand, depth int) Cmd {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return CPred{P: PTest{Field: []string{"a", "b"}[r.Intn(2)], Value: r.Intn(3)}}
		case 1:
			return CPred{P: PState{Index: r.Intn(2), Value: r.Intn(2)}}
		default:
			return CAssign{Field: []string{"a", "b"}[r.Intn(2)], Value: r.Intn(3)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return CUnion{L: randLinkFreeCmd(r, depth-1), R: randLinkFreeCmd(r, depth-1)}
	case 1:
		return CSeq{L: randLinkFreeCmd(r, depth-1), R: randLinkFreeCmd(r, depth-1)}
	default:
		return CPred{P: PNot{P: PState{Index: r.Intn(2), Value: r.Intn(2)}}}
	}
}

// TestEdgeTemplateAt: instantiating a template at a state yields the
// edge, key included, that Events extracts from the link in that state,
// and the key ends in the target state's key.
func TestEdgeTemplateAt(t *testing.T) {
	l := CLinkState{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1},
		Sets: []StateSet{{Index: 2, Value: 7}}}
	c := SeqC(CPred{P: PTest{Field: "dst", Value: 104}}, l)
	for _, k := range []State{{0}, {5, 5, 5}, nil} {
		es, err := Events(c, k)
		if err != nil || len(es) != 1 {
			t.Fatalf("state %v: %v, %v", k, es, err)
		}
		phi := netkat.NewConj()
		phi.AddEq("dst", 104)
		got := NewEdgeTemplate(phi, l.Dst, l.Sets).At(k)
		if got.Key() != es[0].Key() || got.ToKey() != got.To.Key() || !got.To.Equal(k.With(2, 7)) || !got.From.Equal(k) {
			t.Fatalf("state %v: template edge %v (key %q), Events edge %v (key %q)", k, got, got.Key(), es[0], es[0].Key())
		}
	}
}

// TestTestsIsEventsWithoutLinks: Tests threads each conjunction through a
// link-free command as Events' recursion does, deduplicating the results.
func TestTestsIsEventsWithoutLinks(t *testing.T) {
	c := UnionC(
		CPred{P: PAnd{L: PState{Index: 0, Value: 1}, R: PTest{Field: "x", Value: 1}}},
		CPred{P: PTest{Field: "x", Value: 1}},
		CAssign{Field: "y", Value: 2},
	)
	in := []*netkat.Conj{netkat.NewConj(), netkat.NewConj()}
	in[1].AddNeq("x", 1)
	for _, tc := range []struct {
		k    State
		want []string
	}{
		{State{1}, []string{"x=1;", "y=2;", "y=2;x!=1;"}},
		{State{0}, []string{"x=1;", "y=2;", "y=2;x!=1;"}},
	} {
		phis, err := Tests(c, tc.k, in)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range phis {
			got = append(got, p.Key())
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("state %v: %v, want %v", tc.k, got, tc.want)
		}
	}
	if phis, _ := Tests(CPred{P: PState{Index: 0, Value: 1}}, State{0}, in); len(phis) != 0 {
		t.Fatalf("false guard let %d conjunctions through", len(phis))
	}
}

// TestProjectLiftIsIdentity: Lift is the structural inverse of Project —
// for random policies with links, stars and every predicate form,
// projecting the lifted command at any state gives the policy back.
func TestProjectLiftIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var pred func(depth int) netkat.Pred
	pred = func(depth int) netkat.Pred {
		if depth <= 0 {
			return []netkat.Pred{netkat.True{}, netkat.False{},
				netkat.Test{Field: []string{"a", netkat.FieldSw, netkat.FieldPt}[r.Intn(3)], Value: r.Intn(3)}}[r.Intn(3)]
		}
		switch r.Intn(3) {
		case 0:
			return netkat.Not{P: pred(depth - 1)}
		case 1:
			return netkat.And{L: pred(depth - 1), R: pred(depth - 1)}
		default:
			return netkat.Or{L: pred(depth - 1), R: pred(depth - 1)}
		}
	}
	var pol func(depth int) netkat.Policy
	pol = func(depth int) netkat.Policy {
		if depth <= 0 {
			switch r.Intn(3) {
			case 0:
				return netkat.Filter{P: pred(2)}
			case 1:
				return netkat.Assign{Field: []string{"a", netkat.FieldPt}[r.Intn(2)], Value: r.Intn(3)}
			default:
				return netkat.Link{Src: loc(1+r.Intn(3), 1+r.Intn(3)), Dst: loc(1+r.Intn(3), 1+r.Intn(3))}
			}
		}
		switch r.Intn(3) {
		case 0:
			return netkat.Union{L: pol(depth - 1), R: pol(depth - 1)}
		case 1:
			return netkat.Seq{L: pol(depth - 1), R: pol(depth - 1)}
		default:
			return netkat.Star{P: pol(depth - 1)}
		}
	}
	withLinks := 0
	for i := 0; i < 500; i++ {
		p := pol(r.Intn(5))
		if hasLinks(p) {
			withLinks++
		}
		c := Lift(p)
		if g := CollectGuards(c); g.Len() != 0 {
			t.Fatalf("Lift(%v) tests state components %v", p, g.Tests())
		}
		for _, k := range []State{nil, {0}, {3, 1, 4}} {
			if got := Project(c, k); !reflect.DeepEqual(got, p) {
				t.Fatalf("Project(Lift(p), %v) = %v, want p = %v", k, got, p)
			}
		}
	}
	if withLinks < 100 {
		t.Fatalf("only %d of 500 random policies contain a link", withLinks)
	}
}

// hasLinks reports whether any Link node occurs in the policy.
func hasLinks(p netkat.Policy) bool {
	switch q := p.(type) {
	case netkat.Union:
		return hasLinks(q.L) || hasLinks(q.R)
	case netkat.Seq:
		return hasLinks(q.L) || hasLinks(q.R)
	case netkat.Star:
		return hasLinks(q.P)
	case netkat.Link:
		return true
	default:
		return false
	}
}

package netkat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lp(sw, pt int, fields map[string]int) LocatedPacket {
	p := Packet{}
	for k, v := range fields {
		p[k] = v
	}
	return LocatedPacket{Pkt: p, Loc: Location{Switch: sw, Port: pt}}
}

func TestPredEval(t *testing.T) {
	x := lp(1, 2, map[string]int{"dst": 4, "src": 1})
	cases := []struct {
		p    Pred
		want bool
	}{
		{True{}, true},
		{False{}, false},
		{Test{"dst", 4}, true},
		{Test{"dst", 5}, false},
		{Test{"missing", 0}, false},
		{Test{FieldSw, 1}, true},
		{Test{FieldSw, 2}, false},
		{Test{FieldPt, 2}, true},
		{Not{Test{"dst", 4}}, false},
		{And{Test{"dst", 4}, Test{"src", 1}}, true},
		{And{Test{"dst", 4}, Test{"src", 2}}, false},
		{Or{Test{"dst", 9}, Test{"src", 1}}, true},
		{Or{Test{"dst", 9}, Test{"src", 9}}, false},
	}
	for _, c := range cases {
		if got := c.p.Eval(x); got != c.want {
			t.Errorf("%v.Eval = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestEvalFilterAssign(t *testing.T) {
	x := lp(1, 2, map[string]int{"dst": 4})
	got := Eval(Seq{Filter{Test{"dst", 4}}, Assign{"dst", 7}}, x)
	if len(got) != 1 || got[0].Pkt["dst"] != 7 {
		t.Fatalf("got %v", got)
	}
	if x.Pkt["dst"] != 4 {
		t.Fatalf("input mutated: %v", x)
	}
	if got := Eval(Seq{Filter{Test{"dst", 5}}, Assign{"dst", 7}}, x); len(got) != 0 {
		t.Fatalf("filter failed to drop: %v", got)
	}
}

func TestEvalAssignPt(t *testing.T) {
	x := lp(1, 2, nil)
	got := Eval(Assign{FieldPt, 9}, x)
	if len(got) != 1 || got[0].Loc != (Location{1, 9}) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalLink(t *testing.T) {
	l := Link{Src: Location{1, 1}, Dst: Location{4, 1}}
	if got := Eval(l, lp(1, 1, nil)); len(got) != 1 || got[0].Loc != (Location{4, 1}) {
		t.Fatalf("got %v", got)
	}
	if got := Eval(l, lp(1, 2, nil)); len(got) != 0 {
		t.Fatalf("link fired at wrong location: %v", got)
	}
}

func TestEvalUnionDedup(t *testing.T) {
	x := lp(1, 2, map[string]int{"dst": 4})
	got := Eval(Union{ID(), ID()}, x)
	if len(got) != 1 {
		t.Fatalf("union did not dedup: %v", got)
	}
}

func TestEvalStar(t *testing.T) {
	// (dst=0; dst<-1 + dst=1; dst<-2)* from dst=0 yields {0,1,2}.
	p := Star{Union{
		Seq{Filter{Test{"dst", 0}}, Assign{"dst", 1}},
		Seq{Filter{Test{"dst", 1}}, Assign{"dst", 2}},
	}}
	got := Eval(p, lp(1, 1, map[string]int{"dst": 0}))
	if len(got) != 3 {
		t.Fatalf("star: got %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Assign{FieldSw, 3}); err == nil {
		t.Error("assignment to sw accepted")
	}
	if err := Validate(Assign{"dst", -1}); err == nil {
		t.Error("negative assignment accepted")
	}
	if err := Validate(Filter{Test{"dst", -2}}); err == nil {
		t.Error("negative test accepted")
	}
	if err := Validate(Seq{Filter{True{}}, Assign{"dst", 3}}); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

// randPred generates a random predicate over a small field/value universe.
func randPred(r *rand.Rand, depth int) Pred {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return True{}
		case 1:
			return False{}
		default:
			return Test{Field: []string{"a", "b", FieldPt}[r.Intn(3)], Value: r.Intn(3)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not{randPred(r, depth-1)}
	case 1:
		return And{randPred(r, depth-1), randPred(r, depth-1)}
	default:
		return Or{randPred(r, depth-1), randPred(r, depth-1)}
	}
}

func randLP(r *rand.Rand) LocatedPacket {
	return lp(r.Intn(3), r.Intn(3), map[string]int{"a": r.Intn(3), "b": r.Intn(3)})
}

func TestPredBooleanLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(name string, f func(p, q Pred, x LocatedPacket) bool) {
		for i := 0; i < 500; i++ {
			p, q, x := randPred(r, 3), randPred(r, 3), randLP(r)
			if !f(p, q, x) {
				t.Fatalf("%s violated for p=%v q=%v x=%v", name, p, q, x)
			}
		}
	}
	check("double negation", func(p, _ Pred, x LocatedPacket) bool {
		return Not{Not{p}}.Eval(x) == p.Eval(x)
	})
	check("de morgan", func(p, q Pred, x LocatedPacket) bool {
		return Not{And{p, q}}.Eval(x) == Or{Not{p}, Not{q}}.Eval(x)
	})
	check("excluded middle", func(p, _ Pred, x LocatedPacket) bool {
		return Or{p, Not{p}}.Eval(x)
	})
}

// randPolicy generates a random link-free policy.
func randPolicy(r *rand.Rand, depth int) Policy {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Filter{randPred(r, 1)}
		case 1:
			return Assign{Field: []string{"a", "b", FieldPt}[r.Intn(3)], Value: r.Intn(3)}
		default:
			return ID()
		}
	}
	switch r.Intn(4) {
	case 0:
		return Union{randPolicy(r, depth-1), randPolicy(r, depth-1)}
	case 1:
		return Seq{randPolicy(r, depth-1), randPolicy(r, depth-1)}
	case 2:
		return Star{randPolicy(r, depth-2)}
	default:
		return Filter{randPred(r, depth-1)}
	}
}

func evalEqual(p, q Policy, x LocatedPacket) bool {
	a, b := Eval(p, x), Eval(q, x)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestKATLaws checks a selection of KAT axioms on random policies/packets.
func TestKATLaws(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p := randPolicy(r, 3)
		q := randPolicy(r, 3)
		s := randPolicy(r, 3)
		x := randLP(r)
		if !evalEqual(Union{p, q}, Union{q, p}, x) {
			t.Fatalf("union commutativity: p=%v q=%v", p, q)
		}
		if !evalEqual(Union{p, p}, p, x) {
			t.Fatalf("union idempotence: p=%v", p)
		}
		if !evalEqual(Seq{p, Union{q, s}}, Union{Seq{p, q}, Seq{p, s}}, x) {
			t.Fatalf("left distributivity: p=%v q=%v s=%v", p, q, s)
		}
		if !evalEqual(Seq{Union{p, q}, s}, Union{Seq{p, s}, Seq{q, s}}, x) {
			t.Fatalf("right distributivity: p=%v q=%v s=%v", p, q, s)
		}
		if !evalEqual(Seq{ID(), p}, p, x) || !evalEqual(Seq{p, ID()}, p, x) {
			t.Fatalf("identity: p=%v", p)
		}
		if !evalEqual(Seq{Filter{False{}}, p}, Filter{False{}}, x) {
			t.Fatalf("annihilation: p=%v", p)
		}
	}
}

// TestStarUnrolling checks p* = 1 + p;p* pointwise.
func TestStarUnrolling(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		p := randPolicy(r, 2)
		x := randLP(r)
		if !evalEqual(Star{p}, Union{ID(), Seq{p, Star{p}}}, x) {
			t.Fatalf("star unrolling: p=%v x=%v", p, x)
		}
	}
}

func TestConjOps(t *testing.T) {
	c := NewConj()
	if !c.AddEq("a", 1) || !c.AddNeq("b", 2) {
		t.Fatal("adds failed")
	}
	if c.AddEq("a", 2) {
		t.Error("contradictory eq accepted")
	}
	c = NewConj()
	c.AddNeq("a", 1)
	if c.AddEq("a", 1) {
		t.Error("eq against neq accepted")
	}
	c = NewConj()
	c.AddEq("a", 1)
	if !c.AddNeq("a", 2) {
		t.Error("compatible neq rejected")
	}
	c = NewConj()
	c.AddEq("a", 1)
	c.AddNeq("b", 2)
	c.Exists("a")
	if _, ok := c.Eq("a"); ok {
		t.Error("Exists did not strip eq")
	}
	if len(c.Neq("b")) != 1 {
		t.Error("Exists stripped wrong field")
	}
}

func TestConjEvalMatchesPred(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		c := NewConj()
		var pred Pred = True{}
		for i := 0; i < 4; i++ {
			field := []string{"a", "b", FieldPt}[r.Intn(3)]
			v := r.Intn(3)
			if r.Intn(2) == 0 {
				if !c.AddEq(field, v) {
					continue
				}
				pred = And{pred, Test{field, v}}
			} else {
				if !c.AddNeq(field, v) {
					continue
				}
				pred = And{pred, Not{Test{field, v}}}
			}
		}
		x := randLP(r)
		return c.Eval(x) == pred.Eval(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConjKeyCanonical(t *testing.T) {
	a := NewConj()
	a.AddEq("x", 1)
	a.AddNeq("y", 2)
	b := NewConj()
	b.AddNeq("y", 2)
	b.AddEq("x", 1)
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestPolicyStringRoundtripParens(t *testing.T) {
	p := Union{Seq{Filter{Test{"dst", 4}}, Assign{FieldPt, 1}}, Filter{And{Test{"a", 1}, Or{Test{"b", 2}, Test{"b", 3}}}}}
	s := p.String()
	if s == "" {
		t.Fatal("empty string")
	}
	want := "dst=4; pt<-1 + a=1 & (b=2 | b=3)"
	if s != want {
		t.Errorf("got %q, want %q", s, want)
	}
}

func TestDPacket(t *testing.T) {
	in := DPacket{Pkt: Packet{"dst": 104}, Loc: Location{Switch: 4, Port: 1}}
	out := DPacket{Pkt: Packet{"dst": 104}, Loc: Location{Switch: 4, Port: 1}, Out: true}
	if in.Key() == out.Key() {
		t.Error("direction not part of the key")
	}
	if in.Equal(out) {
		t.Error("direction ignored by Equal")
	}
	if !in.Equal(DPacket{Pkt: Packet{"dst": 104}, Loc: Location{Switch: 4, Port: 1}}) {
		t.Error("Equal broken")
	}
	if in.LP().Loc != in.Loc || !in.LP().Pkt.Equal(in.Pkt) {
		t.Error("LP projection broken")
	}
}

func TestLocationOrder(t *testing.T) {
	a := Location{Switch: 1, Port: 2}
	if a.String() != "1:2" {
		t.Errorf("String: %q", a.String())
	}
}

func TestPacketKeyCanonical(t *testing.T) {
	p := Packet{"b": 2, "a": 1}
	q := Packet{"a": 1, "b": 2}
	if p.Key() != q.Key() {
		t.Error("Key not canonical")
	}
	if p.String() != "{a=1, b=2}" {
		t.Errorf("String: %q", p.String())
	}
}

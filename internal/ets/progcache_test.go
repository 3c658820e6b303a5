package ets_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// assertSameETS compares two builds structurally: states, tables, edges,
// and the events with their guards, locations, occurrences and labels.
func assertSameETS(t *testing.T, a, b *ets.ETS, ctx string) {
	t.Helper()
	if len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) || len(a.Events) != len(b.Events) {
		t.Fatalf("%s: shape differs: %d/%d/%d vs %d/%d/%d", ctx,
			len(a.Vertices), len(a.Edges), len(a.Events), len(b.Vertices), len(b.Edges), len(b.Events))
	}
	for i, ev := range a.Events {
		o := b.Events[i]
		if ev.ID != o.ID || ev.Guard.Key() != o.Guard.Key() || ev.Loc != o.Loc || ev.Occurrence != o.Occurrence || ev.Label != o.Label {
			t.Fatalf("%s: event %d differs: %+v (%s) vs %+v (%s)", ctx, i, ev, ev.Guard.Key(), o, o.Guard.Key())
		}
		if want := ev.Guard.Key() + "@" + ev.Loc.String(); ev.Label != want {
			t.Fatalf("%s: event %d carries label %q, its guard and location render %q", ctx, i, ev.Label, want)
		}
	}
	for i := range a.Vertices {
		if a.Vertices[i].State.Key() != b.Vertices[i].State.Key() {
			t.Fatalf("%s: vertex %d state %v vs %v", ctx, i, a.Vertices[i].State, b.Vertices[i].State)
		}
		if a.Vertices[i].Tables.String() != b.Vertices[i].Tables.String() {
			t.Fatalf("%s: vertex %d tables differ", ctx, i)
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", ctx, i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestBuildWithProgramCache: the cross-generation compiler cache behind
// live swaps. A cached build is byte-identical to an uncached one; a
// rebuild of the same program compiles nothing; and a *revision* (cap 40
// -> cap 41) compiles as a delta — it re-enters ToFDD for strictly fewer
// segments than a cold build, because the structural segment memo is
// shared across programs.
func TestBuildWithProgramCache(t *testing.T) {
	cache := nkc.NewProgramCache()
	a := apps.BandwidthCap(40)

	cached, s1, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	assertSameETS(t, plain, cached, "cached vs uncached")
	if s1.Cache.TableMisses == 0 {
		t.Fatalf("first cached build did no work: %+v", s1.Cache)
	}

	// Same program again: the swap-back path. Nothing recompiles.
	again, s2, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	assertSameETS(t, plain, again, "rebuild")
	if s2.Cache.TableMisses != 0 || s2.Cache.SegmentMisses != 0 {
		t.Fatalf("rebuild recompiled: %+v", s2.Cache)
	}

	// A revision: cap 41 shares every counter segment up to 40 with the
	// cached program, so warm segment misses are strictly fewer than cold.
	b := apps.BandwidthCap(41)
	if warm, s3, err := ets.BuildWithOptions(b.Prog, b.Topo, ets.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	} else {
		cold := nkc.NewProgramCache()
		alone, s4, err := ets.BuildWithOptions(b.Prog, b.Topo, ets.Options{Cache: cold})
		if err != nil {
			t.Fatal(err)
		}
		if s3.Cache.SegmentMisses >= s4.Cache.SegmentMisses {
			t.Fatalf("revision did not compile as a delta: warm %d misses, cold %d", s3.Cache.SegmentMisses, s4.Cache.SegmentMisses)
		}
		// The revision holds the very tables the cached program compiled
		// for the switches they agree on; what it holds must still be what
		// it compiles to alone.
		assertSameETS(t, alone, warm, "revision after its predecessor vs alone")
		held := map[*flowtable.Table]bool{}
		for _, v := range cached.Vertices {
			for _, tbl := range v.Tables {
				held[tbl] = true
			}
		}
		shared := 0
		for _, v := range warm.Vertices {
			for _, tbl := range v.Tables {
				if held[tbl] {
					shared++
				}
			}
		}
		if shared == 0 {
			t.Fatal("the revision shares no table with its predecessor; the comparison above is vacuous")
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d programs, want 2", cache.Len())
	}
}

// TestTemplateMemoBound is the count behind the walk memo: Figure 6 is
// walked once per distinct (prefix shape, truth vector) pair of a cache
// generation, not once per visited strand. bandwidth-cap-200 looks its
// walks up 602 times — every counting strand for the reference state,
// two per later state — and its 201 counter branches share one prefix
// shape, so it walks twice (the test holds, or not); a revision compiled
// after it on the same cache has the same shapes and walks at most as
// often. Without the memo each lookup was a walk (605 for cap-201).
func TestTemplateMemoBound(t *testing.T) {
	cache := nkc.NewProgramCache()
	a, b := apps.BandwidthCap(200), apps.BandwidthCap(201)
	_, cold, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := ets.BuildWithOptions(b.Prog, b.Topo, ets.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cap-200 cold: %d template lookups, %d walks; cap-201 after it: %d lookups, %d walks",
		cold.Cache.TemplateHits+cold.Cache.TemplateMisses, cold.Cache.TemplateMisses,
		warm.Cache.TemplateHits+warm.Cache.TemplateMisses, warm.Cache.TemplateMisses)
	if n := cold.Cache.TemplateHits + cold.Cache.TemplateMisses; n != 602 {
		t.Fatalf("cap-200 looked templates up %d times, want 602", n)
	}
	if cold.Cache.TemplateMisses > 2 {
		t.Fatalf("cap-200 cold walked Figure 6 %d times, want <= 2", cold.Cache.TemplateMisses)
	}
	if n := warm.Cache.TemplateHits + warm.Cache.TemplateMisses; n != 605 {
		t.Fatalf("cap-201 looked templates up %d times, want 605", n)
	}
	if warm.Cache.TemplateMisses > 4 {
		t.Fatalf("cap-201 after cap-200 walked Figure 6 %d times, want <= 4: the memo is not shared across programs", warm.Cache.TemplateMisses)
	}
}

// TestColdCompileWorkIndependentOfCap is the count behind shape keys: a
// cold build of bandwidth-cap-N translates the same segments and walks
// Figure 6 the same number of times whatever N is — five segment
// diagrams and two walks — because its N+1 counter branches differ only
// in the value their state test compares against, and so share one
// shape, one diagram per truth value and one walk per truth value. Keyed
// by rendering, cap-2000 translated 4 007 segments and cap-200 walked
// 402 times.
func TestColdCompileWorkIndependentOfCap(t *testing.T) {
	for _, n := range []int{10, 200, 2000} {
		a := apps.BandwidthCap(n)
		_, st, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s cold: %d segment misses, %d Figure 6 walks", a.Name, st.Cache.SegmentMisses, st.Cache.TemplateMisses)
		if st.Cache.SegmentMisses != 5 || st.Cache.TemplateMisses != 2 {
			t.Errorf("%s cold: %d segment misses and %d Figure 6 walks, want 5 and 2 at every cap", a.Name, st.Cache.SegmentMisses, st.Cache.TemplateMisses)
		}
	}
}

// aliasProgram is a one-strand program whose only state-dependent parts
// are an optional state test before the state-updating link and the
// link itself: every segment of it has the same shape whatever dst and
// sets are, and whatever value the test compares against.
func aliasProgram(test stateful.Pred, dst netkat.Location, index, value int) stateful.Program {
	return stateful.Program{Init: stateful.State{0, 0}, Cmd: stateful.SeqC(
		stateful.CPred{P: stateful.PAnd{L: stateful.PTest{Field: netkat.FieldPt, Value: 2}, R: stateful.PTest{Field: apps.FieldDst, Value: apps.H(4)}}},
		stateful.CPred{P: test},
		stateful.CAssign{Field: netkat.FieldPt, Value: 1},
		stateful.CLinkState{Src: netkat.Location{Switch: 1, Port: 1}, Dst: dst, Sets: []stateful.StateSet{{Index: index, Value: value}}},
		stateful.CAssign{Field: netkat.FieldPt, Value: 2},
	)}
}

// TestTemplateMemoKeyCoversTheLink: the walk memo's key is made of
// segment shapes, and no segment covers the link that raises the event,
// nor the value a state test compares against — so programs that differ
// only in what that link assigns, where it lands, or which state it
// requires must not read each other's events or compilers. The program
// cache's key carries links and tests, and the walk memo holds only the
// conjunctions reaching a link; from the initial state [0,0] the
// programs testing state(0)=1, state(1)=1 or !state(0)=0 raise nothing,
// their twins testing 0 raise one event. Each is compiled after each
// other one through one cache, and must come out as it does alone.
func TestTemplateMemoKeyCoversTheLink(t *testing.T) {
	tp := topo.Firewall()
	at41 := netkat.Location{Switch: 4, Port: 1}
	st := func(i, v int) stateful.Pred { return stateful.PState{Index: i, Value: v} }
	progs := map[string]stateful.Program{
		"state(0)<-1":                    aliasProgram(stateful.PTrue{}, at41, 0, 1),
		"state(0)<-2":                    aliasProgram(stateful.PTrue{}, at41, 0, 2),
		"state(1)<-1":                    aliasProgram(stateful.PTrue{}, at41, 1, 1),
		"state(0)<-1 at 4:2":             aliasProgram(stateful.PTrue{}, netkat.Location{Switch: 4, Port: 2}, 0, 1),
		"state(0)<-1 at sw 1":            aliasProgram(stateful.PTrue{}, netkat.Location{Switch: 1, Port: 2}, 0, 1),
		"state(0)=0; state(0)<-1":        aliasProgram(st(0, 0), at41, 0, 1),
		"state(0)=1; state(0)<-1":        aliasProgram(st(0, 1), at41, 0, 1),
		"state(1)=0; state(0)<-1":        aliasProgram(st(1, 0), at41, 0, 1),
		"state(1)=1; state(0)<-1":        aliasProgram(st(1, 1), at41, 0, 1),
		"!state(0)=0; state(0)<-1":       aliasProgram(stateful.PNot{P: st(0, 0)}, at41, 0, 1),
		"!state(0)=1; state(0)<-1":       aliasProgram(stateful.PNot{P: st(0, 1)}, at41, 0, 1),
		"state(0)=0; state(0)<-1 at 4:2": aliasProgram(st(0, 0), netkat.Location{Switch: 4, Port: 2}, 0, 1),
	}
	events := map[string]int{
		"state(0)=1; state(0)<-1":  0,
		"state(1)=1; state(0)<-1":  0,
		"!state(0)=0; state(0)<-1": 0,
	}
	alone := map[string]*ets.ETS{}
	for name, p := range progs {
		e, err := ets.Build(p, tp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, ok := events[name]
		if !ok {
			want = 1
		}
		if len(e.Events) != want || len(e.Vertices) != want+1 {
			t.Fatalf("%s: %d states and %d events, want %d and %d", name, len(e.Vertices), len(e.Events), want+1, want)
		}
		alone[name] = e
	}
	for first := range progs {
		for second := range progs {
			cache := nkc.NewProgramCache()
			for _, name := range []string{first, second} {
				e, _, err := ets.BuildWithOptions(progs[name], tp, ets.Options{Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				assertSameETS(t, alone[name], e, fmt.Sprintf("%q compiled in the order %q, %q", name, first, second))
			}
		}
	}
}

// randProgram is a random union of strands over three switches, drawn
// from a vocabulary small enough that successive programs share most of
// their segments and many of their strands: header and state tests,
// port rewrites, and one to three links, each plain or state-updating
// (usually guarded so that the state graph stays acyclic).
func randProgram(r *rand.Rand) stateful.Program {
	loc := func() netkat.Location { return netkat.Location{Switch: 1 + r.Intn(3), Port: 1 + r.Intn(2)} }
	test := func(p stateful.Pred) stateful.Cmd { return stateful.CPred{P: p} }
	field := func() stateful.Pred {
		return stateful.PTest{Field: []string{"a", "b"}[r.Intn(2)], Value: r.Intn(2)}
	}
	var strands []stateful.Cmd
	for n := 1 + r.Intn(4); n > 0; n-- {
		seq := []stateful.Cmd{test(stateful.PAnd{L: stateful.PTest{Field: netkat.FieldPt, Value: 1 + r.Intn(2)}, R: field()})}
		for links := 1 + r.Intn(3); links > 0; links-- {
			seq = append(seq, stateful.CAssign{Field: netkat.FieldPt, Value: 1 + r.Intn(2)})
			i, v := r.Intn(2), 1+r.Intn(2)
			switch r.Intn(4) {
			case 0:
				seq = append(seq, stateful.CLink{Src: loc(), Dst: loc()})
			case 1:
				seq = append(seq, stateful.CLinkState{Src: loc(), Dst: loc(), Sets: []stateful.StateSet{{Index: i, Value: v}}})
			default:
				seq = append(seq, test(stateful.PState{Index: i, Value: v - 1}),
					stateful.CLinkState{Src: loc(), Dst: loc(), Sets: []stateful.StateSet{{Index: i, Value: v}}})
			}
			switch r.Intn(3) {
			case 0:
				seq = append(seq, test(field()))
			case 1:
				seq = append(seq, test(stateful.PNot{P: stateful.PState{Index: r.Intn(2), Value: r.Intn(3)}}))
			}
		}
		strands = append(strands, stateful.SeqC(seq...))
	}
	return stateful.Program{Cmd: stateful.UnionC(strands...), Init: stateful.State{0, 0}}
}

// TestAnyProgramAfterAnyOtherMatchesAlone: a program compiled through a
// cache that other programs have warmed — segments, hops, tables and
// event-edge templates all shared — is the ETS it is compiled alone,
// events included; stateful.Events stays the oracle for the edges
// themselves (nkc.TestSparseMatchesFull). The sequence is the bench's
// compile set, three failover horizons, a revision of the cap, then 200
// random programs (the cache resets wholesale several times on the way).
func TestAnyProgramAfterAnyOtherMatchesAlone(t *testing.T) {
	seq := []apps.App{
		apps.Firewall(), apps.LearningSwitch(), apps.Authentication(), apps.BandwidthCap(10), apps.IDS(),
		apps.BandwidthCap(200), apps.IDSFatTree(4), apps.IDSFatTree(10), apps.FailoverWAN(4).App, apps.BandwidthCap(2000),
		apps.FailoverWAN(2).App, apps.FailoverWAN(6).App, apps.FailoverWAN(4).App, apps.BandwidthCap(201),
	}
	if testing.Short() {
		seq = append(seq[:7], seq[8], seq[10], seq[13])
	}
	three := topo.New()
	for sw := 1; sw <= 3; sw++ {
		three.AddSwitch(sw)
	}
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		seq = append(seq, apps.App{Name: fmt.Sprintf("random-%d", i), Prog: randProgram(r), Topo: three})
	}
	type outcome struct {
		e   *ets.ETS
		err error
	}
	alone := make([]outcome, len(seq))
	built := 0
	for i, a := range seq {
		alone[i].e, alone[i].err = ets.Build(a.Prog, a.Topo)
		if alone[i].err == nil {
			built++
		}
	}
	if built < len(seq)/2 {
		t.Fatalf("only %d of %d programs compile; the random ones are mostly invalid", built, len(seq))
	}
	cache := nkc.NewProgramCache()
	var hits int64
	for i, a := range seq {
		e, st, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
		if (err == nil) != (alone[i].err == nil) || (err != nil && err.Error() != alone[i].err.Error()) {
			t.Fatalf("%s: error %v after its predecessors, %v alone", a.Name, err, alone[i].err)
		}
		if err == nil {
			assertSameETS(t, alone[i].e, e, a.Name+" after its predecessors vs alone")
			hits += st.Cache.TemplateHits
		}
	}
	if hits == 0 || cache.Resets() == 0 {
		t.Fatalf("%d template hits, %d cache resets; the sequence exercises neither", hits, cache.Resets())
	}
}

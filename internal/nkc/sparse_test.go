package nkc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/stateful/statefultest"
	"eventnet/internal/topo"
)

// sparseApps is the correctness set for sparse projection: the paper's
// five, the ring, the fat-tree IDS, the failover families, the two extra
// stateful applications, and a cap large enough to have an interior.
func sparseApps() []apps.App {
	out := apps.All()
	return append(out, apps.Ring(3), apps.WalledGarden(), apps.DistributedFirewall(), apps.IDSFatTree(4),
		apps.FailoverDiamond(2).App, apps.FailoverWAN(2).App, apps.BandwidthCap(40), twoComponentApp())
}

// twoComponentApp is a hand-written program over the firewall topology
// that puts state tests everywhere sparse projection has to look: a
// two-component state, a test under negation, a test inside a starred
// segment, a strand guarded by atoms of two different components, a
// prefix atom shared by two strands, an initial vector shorter than the
// highest tested index, and a strand that opens with a link (the one
// shape that needs an identity segment before a link).
func twoComponentApp() apps.App {
	st := func(i, v int) stateful.Pred { return stateful.PState{Index: i, Value: v} }
	test := func(p stateful.Pred) stateful.Cmd { return stateful.CPred{P: p} }
	pt := func(v int) stateful.Pred { return stateful.PTest{Field: netkat.FieldPt, Value: v} }
	dst := func(h int) stateful.Pred { return stateful.PTest{Field: apps.FieldDst, Value: apps.H(h)} }
	ptTo := func(v int) stateful.Cmd { return stateful.CAssign{Field: netkat.FieldPt, Value: v} }
	loc := func(sw, p int) netkat.Location { return netkat.Location{Switch: sw, Port: p} }
	up := func(i, v int) stateful.Cmd {
		return stateful.CLinkState{Src: loc(4, 1), Dst: loc(1, 1), Sets: []stateful.StateSet{{Index: i, Value: v}}}
	}
	out := stateful.SeqC(
		test(stateful.PAnd{L: pt(2), R: dst(4)}), ptTo(1),
		stateful.UnionC(
			stateful.SeqC(test(st(0, 0)), stateful.CLinkState{Src: loc(1, 1), Dst: loc(4, 1), Sets: []stateful.StateSet{{Index: 0, Value: 1}}}),
			stateful.SeqC(test(stateful.PNot{P: st(0, 0)}), stateful.CLink{Src: loc(1, 1), Dst: loc(4, 1)}),
		),
		ptTo(2),
	)
	both := stateful.SeqC(
		test(stateful.PAnd{L: pt(2), R: dst(1)}), test(stateful.PAnd{L: st(0, 1), R: st(1, 0)}),
		ptTo(1), up(1, 1), ptTo(2),
	)
	starred := stateful.SeqC(
		test(stateful.PAnd{L: pt(2), R: dst(1)}),
		stateful.CStar{P: stateful.SeqC(test(st(1, 1)), stateful.CAssign{Field: apps.FieldSig, Value: 1})},
		ptTo(1), up(0, 2), ptTo(2),
	)
	linkLed := stateful.SeqC(stateful.CLink{Src: loc(1, 1), Dst: loc(4, 1)}, test(st(1, 1)), ptTo(2))
	return apps.App{
		Name: "two-component",
		Topo: topo.Firewall(),
		Prog: stateful.Program{Cmd: stateful.UnionC(out, both, starred, linkLed), Init: stateful.State{0}},
	}
}

// stateOracle is what a full walk says about one state: the tables of a
// fresh one-state compiler and the edges of stateful.Events.
type stateOracle struct {
	tables string
	edges  []string
}

func oracleFor(t *testing.T, a apps.App, k stateful.State) stateOracle {
	t.Helper()
	scratch, err := Compile(stateful.Project(a.Prog.Cmd, k), a.Topo)
	if err != nil {
		t.Fatalf("state %v: scratch compile: %v", k, err)
	}
	es, err := stateful.Events(a.Prog.Cmd, k)
	if err != nil {
		t.Fatalf("state %v: events: %v", k, err)
	}
	o := stateOracle{tables: scratch.String()}
	for _, e := range es {
		o.edges = append(o.edges, e.Key())
	}
	return o
}

// TestSparseMatchesFull: whichever state a compiler meets first (and so
// walks in full), every state's tables are byte-equal to a fresh full
// walk of its projection (sparse walk against full walk of one skeleton;
// the independent oracle is TestCompileFDDMatchesDNFOnApps) and its edges
// key-equal, in order, to stateful.Events. The reachable states are compiled in BFS order,
// reversed, and shuffled; the small hand-written program additionally
// takes every state as the reference. Each order is walked twice, the
// second time with the template memo warm.
func TestSparseMatchesFull(t *testing.T) {
	for _, a := range sparseApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[string]stateOracle{}
			for _, k := range states {
				oracle[k.Key()] = oracleFor(t, a, k)
			}
			reversed := slices.Clone(states)
			slices.Reverse(reversed)
			shuffled := slices.Clone(states)
			rand.New(rand.NewSource(14)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			orders := [][]stateful.State{states, reversed, shuffled}
			if len(states) <= 8 {
				for i := range states {
					orders = append(orders, append(slices.Clone(states[i:]), states[:i]...))
				}
			}
			for oi, order := range orders {
				pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Twice over: the second pass finds every strand's templates in
				// the memo the first one filled, and must read the same edges.
				for pass := 0; pass < 2; pass++ {
					misses := pc.Stats().TemplateMisses
					for _, k := range order {
						tables, edges, err := pc.Explore(k)
						if err != nil {
							t.Fatalf("order %d state %v: %v", oi, k, err)
						}
						want := oracle[k.Key()]
						if got := tables.String(); got != want.tables {
							t.Fatalf("order %d (reference %v) state %v: sparse tables differ from a fresh full walk\nsparse:\n%s\nscratch:\n%s",
								oi, order[0], k, got, want.tables)
						}
						var got []string
						for _, e := range edges {
							got = append(got, e.Key())
						}
						if !slices.Equal(got, want.edges) {
							t.Fatalf("order %d (reference %v) pass %d state %v: edges\n%v\nwant stateful.Events\n%v", oi, order[0], pass, k, got, want.edges)
						}
					}
					if st := pc.Stats(); pass == 1 && st.TemplateMisses != misses {
						t.Fatalf("order %d: the second pass walked Figure 6 %d times; every (strand, truth vector) pair was already seen", oi, st.TemplateMisses-misses)
					}
				}
			}
		})
	}
}

// TestTwoComponentAppShape pins what the hand-written program is for: it
// has tests of two components, and reaches states both shorter and as
// long as its highest tested index.
func TestTwoComponentAppShape(t *testing.T) {
	a := twoComponentApp()
	g := stateful.CollectGuards(a.Prog.Cmd)
	gt := func(i, v int) stateful.GuardTest { return stateful.GuardTest{Index: i, Value: v} }
	if want := []stateful.GuardTest{gt(0, 0), gt(0, 1), gt(1, 0), gt(1, 1)}; !slices.Equal(g.Tests(), want) {
		t.Fatalf("guards %v, want %v", g.Tests(), want)
	}
	states, _, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, k := range states {
		keys = append(keys, k.Key())
	}
	slices.Sort(keys)
	if want := []string{"[0]", "[1,1]", "[1]", "[2,1]", "[2]"}; !slices.Equal(keys, want) {
		t.Fatalf("reachable states %v, want %v", keys, want)
	}
}

// TestSparseLookupBound is the count behind the speed-up, not a timing:
// compiling every state of cap-400 performs O(states + strands) segment
// lookups — one full walk for the reference state, then a handful of
// strands per state — where walking the skeleton per state performs
// states x segments (323 k here).
func TestSparseLookupBound(t *testing.T) {
	a := apps.BandwidthCap(400)
	states, _, err := a.Prog.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CompileAll(states, 1); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	lookups := st.SegmentHits + st.SegmentMisses
	if bound := int64(8 * (len(states) + len(pc.strands))); lookups > bound {
		t.Fatalf("%d segment lookups for %d states and %d strands; sparse projection allows at most %d",
			lookups, len(states), len(pc.strands), bound)
	}
}

// TestSegmentKeyIsShape: a segment's memo key is its shape id and the
// truth vector over the shape's placeholders. First, the shape joined
// from per-atom text is stateful.Shape of the segment command — it is
// the cross-program segMemo key, so a drift would silently split the
// memo between programs — and filling its placeholders with its tests,
// in order, gives back the reference rendering: shape and tests together
// identify the command, which is what programKey relies on. Second, over
// the shipped apps at their reachable states and 200 random programs at
// every vector in {0..3}², compiled on one interner set as the programs
// of a ProgramCache are, segments with equal keys project to identical
// policies: segments whose projections differ never share a key. The key
// must also merge: some key is shared by segments that test different
// values (the counter branches of bandwidth-cap-40).
func TestSegmentKeyIsShape(t *testing.T) {
	type prog struct {
		name   string
		cmd    stateful.Cmd
		topo   *topo.Topology
		states []stateful.State
	}
	var progs []prog
	for _, a := range sparseApps() {
		states, _, err := a.Prog.ReachableStates()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		progs = append(progs, prog{a.Name, a.Prog.Cmd, a.Topo, states})
	}
	var grid []stateful.State
	for v0 := 0; v0 < 4; v0++ {
		for v1 := 0; v1 < 4; v1++ {
			grid = append(grid, stateful.State{v0, v1})
		}
	}
	three := topo.New()
	for sw := 1; sw <= 3; sw++ {
		three.AddSwitch(sw)
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; len(progs) < len(sparseApps())+200; i++ {
		if i == 2000 {
			t.Fatalf("only %d of 2000 random commands compile", len(progs)-len(sparseApps()))
		}
		c := statefultest.RandCmd(r, 1+i%4)
		if _, err := NewProgramCompiler(c, three, nil); err == nil {
			progs = append(progs, prog{fmt.Sprintf("random-%d", i), c, three, grid})
		}
	}

	ctx, in := NewFDDCtx(), newCompilerInterns()
	projection := map[segMemoKey]string{} // key -> the policy it was first seen to project to
	first := map[segMemoKey]string{}      // key -> the first segment rendering seen under it
	merged := 0
	for _, p := range progs {
		pc, err := newProgramCompiler(p.cmd, p.topo, ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for si, s := range pc.strands {
			for _, seg := range s.segs {
				shape, tests := stateful.Shape(seg.cmd)
				if seg.key != shape || !slices.Equal(seg.tests, tests) {
					t.Fatalf("%s strand %d segment %d: key %q %v, stateful.Shape %q %v", p.name, si, seg.id, seg.key, seg.tests, shape, tests)
				}
				filled := shape
				for _, g := range tests {
					filled = strings.Replace(filled, "\x00", fmt.Sprintf("state(%d)=%d", g.Index, g.Value), 1)
				}
				text := statefultest.StringRef(seg.cmd)
				if filled != text {
					t.Fatalf("%s strand %d segment %d: shape %q filled with %v is %q, rendering %q", p.name, si, seg.id, shape, tests, filled, text)
				}
				for _, k := range p.states {
					key := segMemoKey{key: pc.segKeyIDs[seg.id], sig: pc.packSig(pc.segTestPos[seg.id], pc.guards.AppendSig(nil, k))}
					proj := stateful.Project(seg.cmd, k).String()
					if prev, ok := projection[key]; !ok {
						projection[key], first[key] = proj, text
					} else if prev != proj {
						t.Fatalf("%s segment %q at %v projects to %q; %q shares its key and projects to %q", p.name, text, k, proj, first[key], prev)
					} else if first[key] != text {
						merged++
					}
				}
			}
		}
	}
	if merged == 0 {
		t.Fatal("no key is shared by segments that test different values; the property above is vacuous")
	}
}

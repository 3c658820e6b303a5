package stateful

import (
	"reflect"
	"testing"
)

func guardProg() Cmd {
	return UnionC(
		SeqC(CPred{P: PState{Index: 0, Value: 0}}, CAssign{Field: "x", Value: 1}),
		SeqC(CPred{P: PNot{P: PState{Index: 1, Value: 2}}}, CAssign{Field: "x", Value: 2}),
		CStar{P: CPred{P: PAnd{L: PState{Index: 0, Value: 3}, R: PTest{Field: "y", Value: 1}}}},
	)
}

func TestCollectGuards(t *testing.T) {
	g := CollectGuards(guardProg())
	want := []GuardTest{{0, 0}, {0, 3}, {1, 2}}
	if !reflect.DeepEqual(g.Tests(), want) {
		t.Fatalf("tests: %v", g.Tests())
	}
	if g.Len() != 3 {
		t.Fatalf("len: %d", g.Len())
	}
	if CollectGuards(CAssign{Field: "x", Value: 1}).Len() != 0 {
		t.Fatal("state-free command has guards")
	}
}

// TestSigProjectionInvariant: equal signatures imply structurally equal
// projections — the soundness condition for every signature-keyed cache.
func TestSigProjectionInvariant(t *testing.T) {
	c := guardProg()
	g := CollectGuards(c)
	states := []State{{0, 0}, {0, 2}, {3, 1}, {1, 2}, {0, 5}, {9, 9}, {3, 2}}
	for _, a := range states {
		for _, b := range states {
			sameSig := g.Sig(a) == g.Sig(b)
			sameProj := reflect.DeepEqual(Project(c, a), Project(c, b))
			if sameSig != sameProj {
				t.Fatalf("states %v/%v: sameSig=%v sameProj=%v", a, b, sameSig, sameProj)
			}
			if sameSig != (len(g.Diff(a, b)) == 0) {
				t.Fatalf("states %v/%v: Diff disagrees with Sig", a, b)
			}
		}
	}
}

func TestGuardDiff(t *testing.T) {
	g := CollectGuards(guardProg())
	// [0,x] -> [3,x]: state(0)=0 flips off, state(0)=3 flips on.
	d := g.Diff(State{0, 7}, State{3, 7})
	if !reflect.DeepEqual(d, []GuardTest{{0, 0}, {0, 3}}) {
		t.Fatalf("diff: %v", d)
	}
	if g.Diff(State{0, 1}, State{0, 1}) != nil {
		t.Fatal("self diff nonempty")
	}
	// Flipping index 1 to the tested value 2 changes only that test.
	d = g.Diff(State{0, 1}, State{0, 2})
	if !reflect.DeepEqual(d, []GuardTest{{1, 2}}) {
		t.Fatalf("diff: %v", d)
	}
}

func TestSigPacking(t *testing.T) {
	// More than 8 tests exercises multi-byte packing.
	var cs []Cmd
	for i := 0; i < 12; i++ {
		cs = append(cs, CPred{P: PState{Index: i, Value: 1}})
	}
	g := CollectGuards(UnionC(cs...))
	if g.Len() != 12 {
		t.Fatalf("len: %d", g.Len())
	}
	all := make(State, 12)
	for i := range all {
		all[i] = 1
	}
	if g.Sig(all) == g.Sig(State{}) {
		t.Fatal("distinct truth vectors share a signature")
	}
	if len(g.Sig(all)) != 2 {
		t.Fatalf("12 tests should pack into 2 bytes, got %d", len(g.Sig(all)))
	}
}

// TestDiffMatchesDenseScan: Diff looks up only the atoms of the components
// where two vectors differ; it must agree with evaluating every test
// under both states, for vectors shorter than, as long as, and longer
// than the highest tested index, and Pos must invert Tests.
func TestDiffMatchesDenseScan(t *testing.T) {
	g := CollectGuards(guardProg())
	for i, gt := range g.Tests() {
		if p, ok := g.Pos(gt); !ok || p != i {
			t.Fatalf("Pos(%v) = %d, %v; want %d", gt, p, ok, i)
		}
	}
	if _, ok := g.Pos(GuardTest{Index: 0, Value: 1}); ok {
		t.Fatal("Pos found a test the command does not make")
	}
	states := []State{nil, {0}, {3}, {0, 2}, {3, 2}, {1, 2, 9}, {0, 0, 0, 0}, {3, 1}, {9}}
	for _, a := range states {
		for _, b := range states {
			var want []GuardTest
			for _, gt := range g.Tests() {
				if (a.Get(gt.Index) == gt.Value) != (b.Get(gt.Index) == gt.Value) {
					want = append(want, gt)
				}
			}
			if got := g.Diff(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("Diff(%v, %v) = %v, dense scan says %v", a, b, got, want)
			}
		}
	}
}

// Sig returns the truth vector of the indexed tests under state k, packed
// 8 tests per byte. States with equal signatures have structurally
// identical projections, so Sig is a sound (and, over reachable states,
// cheap) cache key for every projection-derived artifact.
func (g *GuardIndex) Sig(k State) string {
	if len(g.tests) == 0 {
		return ""
	}
	return string(g.AppendSig(nil, k))
}

// Diff returns the tests whose truth value differs between states a and
// b, in canonical order — the guard delta behind every signature change
// when moving along an ETS edge (AppendDiff, as tests rather than
// positions).
func (g *GuardIndex) Diff(a, b State) []GuardTest {
	var out []GuardTest
	for _, p := range g.AppendDiff(nil, a, b) {
		out = append(out, g.tests[p])
	}
	return out
}

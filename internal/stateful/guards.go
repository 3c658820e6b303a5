package stateful

import (
	"cmp"
	"slices"
	"sort"
)

// GuardTest is one state test state(Index) = Value occurring in a program.
type GuardTest struct {
	Index, Value int
}

// GuardIndex is the set of distinct state tests occurring in a command,
// in canonical order. Projection ⟦p⟧k resolves exactly these tests against
// the state vector (and changes nothing else), so two states with equal
// truth vectors over the index project to structurally identical NetKAT
// policies — the key fact behind cross-state configuration reuse: the
// compiler caches per-state artifacts by Sig instead of by state vector,
// and a state re-enters compilation only for the sub-policies whose
// guards actually flipped (AppendDiff) relative to an already-compiled
// state.
type GuardIndex struct {
	tests []GuardTest
}

// CollectGuards builds the guard index of a command: every distinct
// state(Index) = Value test in its predicates (including under negation).
// The compiler lists the same tests in its one pass over the command
// (nkc); this walk is the reference its tests hold that pass against.
func CollectGuards(c Cmd) *GuardIndex {
	var tests []GuardTest
	var walkPred func(Pred)
	walkPred = func(p Pred) {
		switch q := p.(type) {
		case PState:
			tests = append(tests, GuardTest{Index: q.Index, Value: q.Value})
		case PNot:
			walkPred(q.P)
		case PAnd:
			walkPred(q.L)
			walkPred(q.R)
		case POr:
			walkPred(q.L)
			walkPred(q.R)
		}
	}
	var walk func(Cmd)
	walk = func(c Cmd) {
		switch q := c.(type) {
		case CPred:
			walkPred(q.P)
		case CUnion:
			walk(q.L)
			walk(q.R)
		case CSeq:
			walk(q.L)
			walk(q.R)
		case CStar:
			walk(q.P)
		}
	}
	walk(c)
	return NewGuardIndex(tests)
}

// NewGuardIndex returns the guard index of the given state tests, in any
// order and repeated at will: each test once, in canonical order. The
// slice is not modified.
func NewGuardIndex(tests []GuardTest) *GuardIndex {
	g := &GuardIndex{tests: slices.Clone(tests)}
	slices.SortFunc(g.tests, func(a, b GuardTest) int {
		return cmp.Or(cmp.Compare(a.Index, b.Index), cmp.Compare(a.Value, b.Value))
	})
	g.tests = slices.Compact(g.tests)
	return g
}

// Len returns the number of distinct state tests.
func (g *GuardIndex) Len() int { return len(g.tests) }

// Tests returns the tests in canonical order.
func (g *GuardIndex) Tests() []GuardTest { return append([]GuardTest{}, g.tests...) }

// AppendSig appends the packed truth vector (the Sig encoding) to dst
// and returns the extended slice. Callers on the compilation hot path
// reuse one scratch buffer across states instead of allocating a string
// per lookup; the interner turns the bytes into a dense id without
// copying on hits.
func (g *GuardIndex) AppendSig(dst []byte, k State) []byte {
	if len(g.tests) == 0 {
		return dst
	}
	off := len(dst)
	for n := (len(g.tests) + 7) / 8; n > 0; n-- {
		dst = append(dst, 0)
	}
	for i, t := range g.tests {
		if k.Get(t.Index) == t.Value {
			dst[off+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

// Pos returns the position of test t in canonical order (the bit Sig
// gives it), and whether the command tests it at all.
func (g *GuardIndex) Pos(t GuardTest) (int, bool) {
	i := sort.Search(len(g.tests), func(i int) bool {
		u := g.tests[i]
		return u.Index > t.Index || (u.Index == t.Index && u.Value >= t.Value)
	})
	return i, i < len(g.tests) && g.tests[i] == t
}

// AppendDiff appends to dst the positions, ascending, of the tests whose
// truth value differs between states a and b. State tests are positive
// atoms state(i)=v, so only the atoms (i, a[i]) and (i, b[i]) of the
// components where the vectors differ can flip: the cost is
// O(|a|+|b|) lookups, not a pass over the index. This is the unit of work
// of the compiler's sparse projection (nkc.ProgramCompiler): a state
// re-enters compilation only for the strands that test a position
// returned here against its reference state.
func (g *GuardIndex) AppendDiff(dst []int32, a, b State) []int32 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		va, vb := a.Get(i), b.Get(i)
		if va == vb {
			continue
		}
		if va > vb {
			va, vb = vb, va
		}
		for _, v := range [2]int{va, vb} {
			if p, ok := g.Pos(GuardTest{Index: i, Value: v}); ok {
				dst = append(dst, int32(p))
			}
		}
	}
	return dst
}

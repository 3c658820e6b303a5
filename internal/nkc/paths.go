package nkc

import (
	"fmt"
	"sort"
	"strings"

	"eventnet/internal/netkat"
)

// Path is one summand of a link-free policy in path normal form: if Cond
// holds of the incoming packet, emit the packet with Acts applied. Acts is
// the final-value map of the assignments (assignments of constants
// commute into a single simultaneous substitution).
type Path struct {
	Cond *netkat.Conj
	Acts map[string]int
}

// Key returns a canonical identity for the path.
func (p Path) Key() string {
	fs := make([]string, 0, len(p.Acts))
	for f := range p.Acts {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	var b strings.Builder
	b.WriteString(p.Cond.Key())
	b.WriteString("=>")
	for _, f := range fs {
		fmt.Fprintf(&b, "%s<-%d;", f, p.Acts[f])
	}
	return b.String()
}

// PathSet is a link-free policy in path normal form (a set of Paths whose
// union is the policy's semantics).
type PathSet struct {
	Paths []Path
}

// starBound caps Star fixpoint iteration in path normal form.
const starBound = 1000

// Identity returns the path set of the identity policy.
func Identity() PathSet {
	return PathSet{Paths: []Path{{Cond: netkat.NewConj(), Acts: map[string]int{}}}}
}

// FromPred converts a predicate to path normal form.
func FromPred(p netkat.Pred) PathSet {
	var ps []Path
	for _, c := range DNF(p) {
		ps = append(ps, Path{Cond: c, Acts: map[string]int{}})
	}
	return PathSet{Paths: ps}
}

// FromPolicy converts a link-free policy to path normal form. It returns
// an error if the policy contains a Link or a non-stabilizing Star.
func FromPolicy(p netkat.Policy) (PathSet, error) {
	switch q := p.(type) {
	case netkat.Filter:
		return FromPred(q.P), nil
	case netkat.Assign:
		return PathSet{Paths: []Path{{
			Cond: netkat.NewConj(),
			Acts: map[string]int{q.Field: q.Value},
		}}}, nil
	case netkat.Union:
		l, err := FromPolicy(q.L)
		if err != nil {
			return PathSet{}, err
		}
		r, err := FromPolicy(q.R)
		if err != nil {
			return PathSet{}, err
		}
		return UnionPS(l, r), nil
	case netkat.Seq:
		l, err := FromPolicy(q.L)
		if err != nil {
			return PathSet{}, err
		}
		r, err := FromPolicy(q.R)
		if err != nil {
			return PathSet{}, err
		}
		return SeqPS(l, r), nil
	case netkat.Star:
		inner, err := FromPolicy(q.P)
		if err != nil {
			return PathSet{}, err
		}
		return StarPS(inner)
	case netkat.Link:
		return PathSet{}, fmt.Errorf("nkc: link %v inside a link-free context", q)
	default:
		return PathSet{}, fmt.Errorf("nkc: unknown policy node %T", p)
	}
}

// UnionPS unions two path sets, deduplicating identical paths.
func UnionPS(a, b PathSet) PathSet {
	seen := map[string]bool{}
	var out []Path
	for _, p := range append(append([]Path{}, a.Paths...), b.Paths...) {
		k := p.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return PathSet{Paths: out}
}

// composePaths sequences two paths: the second path's condition is
// evaluated on the output of the first, so its literals are checked
// against the first path's assignments where those apply. Reports
// ok=false if the composition is infeasible.
func composePaths(p, q Path) (Path, bool) {
	cond := p.Cond.Clone()
	// Literals of q.Cond refer to post-p values.
	for _, l := range q.Cond.Lits() {
		if w, ok := p.Acts[l.F]; ok {
			if (w == l.V) != l.Eq {
				return Path{}, false
			}
			continue
		}
		if !cond.Add(l) {
			return Path{}, false
		}
	}
	acts := make(map[string]int, len(p.Acts)+len(q.Acts))
	for f, v := range p.Acts {
		acts[f] = v
	}
	for f, v := range q.Acts {
		acts[f] = v
	}
	return Path{Cond: cond, Acts: acts}, true
}

// SeqPS sequences two path sets (Kleisli composition of the relations).
func SeqPS(a, b PathSet) PathSet {
	seen := map[string]bool{}
	var out []Path
	for _, p := range a.Paths {
		for _, q := range b.Paths {
			r, ok := composePaths(p, q)
			if !ok {
				continue
			}
			k := r.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	return PathSet{Paths: out}
}

// StarPS computes the reflexive-transitive closure of a path set by
// fixpoint iteration; the literal/assignment universe is finite so the
// iteration terminates for every policy in the supported fragment.
func StarPS(p PathSet) (PathSet, error) {
	acc := Identity()
	for i := 0; i < starBound; i++ {
		next := UnionPS(acc, SeqPS(acc, p))
		if len(next.Paths) == len(acc.Paths) {
			return acc, nil
		}
		acc = next
	}
	return PathSet{}, fmt.Errorf("nkc: star did not stabilize within %d iterations", starBound)
}

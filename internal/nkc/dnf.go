// Package nkc is the NetKAT compiler: it translates the Stateful NetKAT
// programs of this repository, one projected configuration ⟦p⟧k at a
// time, into per-switch prioritized flow tables. It substitutes for the
// Frenetic compiler used by the paper.
//
// There is one compiler and one oracle (docs/ARCHITECTURE.md has the
// comparison and says what the tests between them prove).
//
// The compiler is ProgramCompiler (incremental.go, sparse.go, fdd.go,
// fdd_table.go): the program is split once into strands, only where
// links force it; link-free segments are normalized into hash-consed,
// memoized forwarding decision diagrams; and per-switch tables are
// extracted from one diagram per switch, whose root-leaf paths partition
// the packet space — so multicast merging and overlap resolution are
// structural rather than iterative. A plain policy is the one-state case
// (Compile).
//
// The oracle is CompileDNF, the original pipeline, which only tests call:
//
//  1. predicates -> disjunctive normal form over equality/inequality
//     literals (dnf.go);
//  2. link-free policies -> path normal form: a sum of (conjunction;
//     assignment) paths (paths.go);
//  3. full policies -> strands: alternating link-free segments and links,
//     obtained by distributing union over sequence (strand.go);
//  4. strands -> per-switch hop rules by symbolic execution, followed by
//     multicast merging and overlap resolution (compile.go).
//
// Correctness is established by property tests comparing the compiler
// against the oracle and both against the reference evaluator in
// internal/netkat (fdd_test.go, nkc_test.go).
package nkc

import "eventnet/internal/netkat"

// DNF converts a predicate into disjunctive normal form: a slice of
// satisfiable conjunctions whose disjunction is equivalent to p. The empty
// slice denotes false; a single empty conjunction denotes true.
func DNF(p netkat.Pred) []*netkat.Conj {
	return dnf(p, false)
}

// dnf converts p (negated if neg) into DNF.
func dnf(p netkat.Pred, neg bool) []*netkat.Conj {
	switch q := p.(type) {
	case netkat.True:
		if neg {
			return nil
		}
		return []*netkat.Conj{netkat.NewConj()}
	case netkat.False:
		if neg {
			return []*netkat.Conj{netkat.NewConj()}
		}
		return nil
	case netkat.Test:
		c := netkat.NewConj()
		if neg {
			c.AddNeq(q.Field, q.Value)
		} else {
			c.AddEq(q.Field, q.Value)
		}
		return []*netkat.Conj{c}
	case netkat.Not:
		return dnf(q.P, !neg)
	case netkat.And:
		if neg {
			// ¬(a ∧ b) = ¬a ∨ ¬b
			return orDNF(dnf(q.L, true), dnf(q.R, true))
		}
		return andDNF(dnf(q.L, false), dnf(q.R, false))
	case netkat.Or:
		if neg {
			// ¬(a ∨ b) = ¬a ∧ ¬b
			return andDNF(dnf(q.L, true), dnf(q.R, true))
		}
		return orDNF(dnf(q.L, false), dnf(q.R, false))
	default:
		panic("nkc: unknown predicate node")
	}
}

// orDNF unions two DNFs, deduplicating by canonical key.
func orDNF(a, b []*netkat.Conj) []*netkat.Conj {
	seen := map[string]bool{}
	var out []*netkat.Conj
	for _, c := range append(append([]*netkat.Conj{}, a...), b...) {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// andDNF distributes conjunction over two DNFs, dropping contradictions.
func andDNF(a, b []*netkat.Conj) []*netkat.Conj {
	seen := map[string]bool{}
	var out []*netkat.Conj
	for _, x := range a {
		for _, y := range b {
			m := x.Clone()
			if !m.MergeWith(y) {
				continue
			}
			k := m.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, m)
			}
		}
	}
	return out
}

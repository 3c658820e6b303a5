// Package optimize implements the rule-sharing optimization of
// Section 5.3 of the paper: configurations are assigned numeric IDs and
// arranged at the leaves of a complete binary trie; a rule shared by all
// configurations under a trie node is installed once, guarded by the
// node's wildcarded configuration-ID mask, instead of once per
// configuration.
//
// The package provides the paper's polynomial greedy heuristic (pair
// nodes level by level, maximizing the total size of the paired
// intersections) and an exhaustive optimal assignment for small numbers
// of configurations, used to evaluate the heuristic's quality.
package optimize

import (
	"fmt"
	"math/bits"
	"sort"

	"eventnet/internal/flowtable"
)

// RuleSet is a set of rule IDs (indices into a rule universe).
type RuleSet map[int]bool

// Clone returns an independent copy.
func (s RuleSet) Clone() RuleSet {
	t := make(RuleSet, len(s))
	for id := range s {
		t[id] = true
	}
	return t
}

// Intersect returns s ∩ t.
func (s RuleSet) Intersect(t RuleSet) RuleSet {
	out := RuleSet{}
	for id := range s {
		if t[id] {
			out[id] = true
		}
	}
	return out
}

// Minus returns s \ t.
func (s RuleSet) Minus(t RuleSet) RuleSet {
	out := RuleSet{}
	for id := range s {
		if !t[id] {
			out[id] = true
		}
	}
	return out
}

// Node is a trie node: a wildcarded guard covering its leaves, and the
// intersection of the rule sets of its children.
type Node struct {
	Guard    flowtable.VersionGuard
	Rules    RuleSet // intersection of children (full set at leaves)
	Children [2]*Node
	Config   int  // leaf: index into the input configuration slice; -1 otherwise
	HasReal  bool // some leaf below is a real (non-padding) configuration
}

// Trie is the result of an assignment of configurations to leaves.
type Trie struct {
	Root   *Node
	Bits   int   // tree depth (configuration-ID width)
	Leaves []int // leaf order: Leaves[id] = input config index placed at ID id
}

// TotalRules counts the rules needed with sharing: each node installs the
// rules in its set that its parent does not already provide. Subtrees
// containing only padding configurations install nothing (no packet is
// ever tagged with their IDs).
func (t *Trie) TotalRules() int {
	var walk func(n *Node, parent RuleSet) int
	walk = func(n *Node, parent RuleSet) int {
		if n == nil || !n.HasReal {
			return 0
		}
		own := len(n.Rules.Minus(parent))
		return own + walk(n.Children[0], n.Rules) + walk(n.Children[1], n.Rules)
	}
	return walk(t.Root, RuleSet{})
}

// pad rounds the configuration count up to a power of two by adding dummy
// configurations containing every rule in the universe (as prescribed in
// Section 5.3), so they share maximally and cost nothing extra at interior
// nodes.
func pad(configs []RuleSet) ([]RuleSet, []int) {
	n := len(configs)
	size := 1
	for size < n {
		size *= 2
	}
	universe := RuleSet{}
	for _, c := range configs {
		for id := range c {
			universe[id] = true
		}
	}
	out := make([]RuleSet, size)
	orig := make([]int, size)
	for i := 0; i < size; i++ {
		if i < n {
			out[i] = configs[i].Clone()
			orig[i] = i
		} else {
			out[i] = universe.Clone()
			orig[i] = -1
		}
	}
	return out, orig
}

// buildFromOrder constructs the trie for a fixed leaf order.
func buildFromOrder(leaves []RuleSet, orig []int) *Trie {
	n := len(leaves)
	bitsN := bits.Len(uint(n - 1))
	if n == 1 {
		bitsN = 1
	}
	nodes := make([]*Node, n)
	for i := range leaves {
		cfg := -1
		if i < len(orig) {
			cfg = orig[i]
		}
		nodes[i] = &Node{
			Guard:   flowtable.ExactGuard(uint32(i), bitsN),
			Rules:   leaves[i].Clone(),
			Config:  cfg,
			HasReal: cfg >= 0,
		}
	}
	level := nodes
	prefix := bitsN
	for len(level) > 1 {
		prefix--
		next := make([]*Node, 0, len(level)/2)
		for i := 0; i+1 < len(level); i += 2 {
			mask := uint32(0)
			if prefix > 0 {
				mask = ((uint32(1) << uint(prefix)) - 1) << uint(bitsN-prefix)
			}
			parent := &Node{
				Guard:    flowtable.VersionGuard{Value: uint32(i/2) << uint(bitsN-prefix), Mask: mask},
				Rules:    level[i].Rules.Intersect(level[i+1].Rules),
				Children: [2]*Node{level[i], level[i+1]},
				Config:   -1,
				HasReal:  level[i].HasReal || level[i+1].HasReal,
			}
			next = append(next, parent)
		}
		level = next
	}
	leafOrder := make([]int, n)
	copy(leafOrder, orig)
	return &Trie{Root: level[0], Bits: bitsN, Leaves: leafOrder}
}

// Greedy runs the paper's heuristic: build the trie bottom-up, at each
// level pairing nodes to maximize the sum of the cardinalities of the
// paired intersections (largest-intersection-first greedy matching).
func Greedy(configs []RuleSet) (*Trie, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("optimize: no configurations")
	}
	padded, orig := pad(configs)

	type item struct {
		rules RuleSet
		order []RuleSet // leaf rule-sets in left-to-right order
		origs []int
	}
	level := make([]item, len(padded))
	for i, c := range padded {
		level[i] = item{rules: c, order: []RuleSet{padded[i]}, origs: []int{orig[i]}}
	}
	for len(level) > 1 {
		type pair struct {
			i, j, score int
		}
		var pairs []pair
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				pairs = append(pairs, pair{i, j, len(level[i].rules.Intersect(level[j].rules))})
			}
		}
		sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].score > pairs[b].score })
		used := make([]bool, len(level))
		var next []item
		for _, p := range pairs {
			if used[p.i] || used[p.j] {
				continue
			}
			used[p.i], used[p.j] = true, true
			next = append(next, item{
				rules: level[p.i].rules.Intersect(level[p.j].rules),
				order: append(append([]RuleSet{}, level[p.i].order...), level[p.j].order...),
				origs: append(append([]int{}, level[p.i].origs...), level[p.j].origs...),
			})
		}
		level = next
	}
	return buildFromOrder(level[0].order, level[0].origs), nil
}

// optimalLimit is the largest configuration count for which Optimal
// enumerates all leaf orders.
const optimalLimit = 8

// Optimal exhaustively searches leaf orders (for at most 8 configurations)
// and returns a trie minimizing the total rule count. Used to measure how
// close the greedy heuristic gets.
func Optimal(configs []RuleSet) (*Trie, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("optimize: no configurations")
	}
	if len(configs) > optimalLimit {
		return nil, fmt.Errorf("optimize: %d configurations exceed the exhaustive limit %d", len(configs), optimalLimit)
	}
	padded, orig := pad(configs)
	n := len(padded)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var best *Trie
	bestCount := 1 << 30
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			leaves := make([]RuleSet, n)
			origs := make([]int, n)
			for i, id := range idx {
				leaves[i] = padded[id]
				origs[i] = orig[id]
			}
			t := buildFromOrder(leaves, origs)
			if c := t.TotalRules(); c < bestCount {
				bestCount = c
				best = t
			}
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			permute(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	permute(0)
	return best, nil
}

// Naive returns the rule count without sharing: every configuration
// installs all of its rules under an exact guard (the baseline the paper's
// savings percentages are relative to).
func Naive(configs []RuleSet) int {
	total := 0
	for _, c := range configs {
		total += len(c)
	}
	return total
}

// FromTables converts per-configuration flow tables into the rule-set
// representation: rules are identified by (switch, rule-key), so identical
// rules on the same switch in different configurations share an ID.
func FromTables(configs []flowtable.Tables) ([]RuleSet, int) {
	ids := map[string]int{}
	out := make([]RuleSet, len(configs))
	for i, ts := range configs {
		out[i] = RuleSet{}
		for _, sw := range ts.Switches() {
			for _, r := range ts[sw].Rules {
				key := fmt.Sprintf("%d|%s", sw, r.Key())
				id, ok := ids[key]
				if !ok {
					id = len(ids)
					ids[key] = id
				}
				out[i][id] = true
			}
		}
	}
	return out, len(ids)
}

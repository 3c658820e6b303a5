package ets

import (
	"fmt"

	"eventnet/internal/nes"
	"eventnet/internal/nkc"
)

// maxPaths bounds path enumeration during family construction.
const maxPaths = 200000

// Family computes F(T): the set of event-sets collected along every path
// from the initial vertex (Section 3.1), each mapped to the vertex where
// its paths end. It enforces the two ETS-to-NES conditions:
//
//  1. every event-set corresponds to exactly one configuration, and
//  2. the family is finite-complete (pairwise least upper bounds exist
//     whenever an upper bound does).
func (e *ETS) Family() (map[nes.Set]int, error) {
	adj := map[int][]Edge{}
	for _, ed := range e.Edges {
		adj[ed.From] = append(adj[ed.From], ed)
	}
	family := map[nes.Set]int{}
	paths := 0
	var dfs func(v int, s nes.Set) error
	dfs = func(v int, s nes.Set) error {
		paths++
		if paths > maxPaths {
			return fmt.Errorf("ets: more than %d paths during family construction", maxPaths)
		}
		if prev, ok := family[s]; ok && prev != v {
			// Condition 1: all paths with the same event-set must end at
			// states labeled with the same configuration.
			if e.Vertices[prev].Tables.String() != e.Vertices[v].Tables.String() {
				return fmt.Errorf("ets: event-set %v reaches two different configurations (states %v and %v)",
					s, e.Vertices[prev].State, e.Vertices[v].State)
			}
		} else {
			family[s] = v
		}
		for _, ed := range adj[v] {
			if s.Has(ed.Event) {
				// Re-occurrence along a path would need renaming beyond
				// what occurrence counting produced; cannot happen in an
				// acyclic ETS with consistent counts.
				return fmt.Errorf("ets: event %d repeats along a path", ed.Event)
			}
			if err := dfs(ed.To, s.With(ed.Event)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(e.Init, nes.Empty); err != nil {
		return nil, err
	}
	if err := checkFiniteComplete(family); err != nil {
		return nil, err
	}
	return family, nil
}

// checkFiniteComplete verifies condition 2 of Section 3.1: for any two
// family members with an upper bound in the family, their union is also a
// member. (Pairwise closure implies the condition for arbitrary finite
// collections by induction, the family being finite.)
func checkFiniteComplete(family map[nes.Set]int) error {
	sets := make([]nes.Set, 0, len(family))
	for s := range family {
		sets = append(sets, s)
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if sets[i].SubsetOf(sets[j]) || sets[j].SubsetOf(sets[i]) {
				// The union of comparable members is the larger one, which
				// is in the family: nothing to check, nothing to build.
				continue
			}
			u := sets[i].Union(sets[j])
			hasUpper := false
			for _, b := range sets {
				if u.SubsetOf(b) {
					hasUpper = true
					break
				}
			}
			if !hasUpper {
				continue
			}
			if _, ok := family[u]; !ok {
				return fmt.Errorf("ets: family is not finite-complete: %v and %v have an upper bound but %v is missing (the Figure 3(c) violation)",
					sets[i], sets[j], u)
			}
		}
	}
	return nil
}

// ToNES converts the ETS to a network event structure (Section 3.1): the
// family becomes the consistency predicate and enabling relation via
// Winskel's Theorem 1.1.12, and g maps each event-set to the configuration
// of the vertex its paths reach.
func (e *ETS) ToNES() (*nes.NES, error) {
	family, err := e.Family()
	if err != nil {
		return nil, err
	}
	configs := make([]nes.Config, len(e.Vertices))
	for i, v := range e.Vertices {
		configs[i] = nes.Config{
			ID:     i,
			Label:  v.State.Key(),
			Tables: v.Tables,
			Rel:    &nkc.CompiledConfig{Tables: v.Tables, Topo: e.Topo},
		}
	}
	return nes.New(e.Events, family, configs)
}

// String summarizes the ETS.
func (e *ETS) String() string {
	s := fmt.Sprintf("ETS: %d states, %d transitions, %d events (initial %v)\n",
		len(e.Vertices), len(e.Edges), len(e.Events), e.Vertices[e.Init].State)
	for _, ed := range e.Edges {
		s += fmt.Sprintf("  %v --%v--> %v\n", e.Vertices[ed.From].State, e.Events[ed.Event], e.Vertices[ed.To].State)
	}
	return s
}

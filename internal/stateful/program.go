package stateful

import (
	"fmt"
	"sort"
)

// Program is a Stateful NetKAT program together with its initial state
// vector ~k0.
type Program struct {
	Cmd  Cmd
	Init State
}

// MaxStates bounds reachable-state enumeration, here and in internal/ets.
const MaxStates = 4096

// ReachableStates explores the state space from the initial vector via the
// program's event-edges, returning the reachable states in BFS order and
// every edge between reachable states.
func (p Program) ReachableStates() ([]State, []Edge, error) {
	seen := map[string]bool{p.Init.Key(): true}
	order := []State{p.Init.Clone()}
	var edges []Edge
	queue := []State{p.Init.Clone()}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		es, err := Events(p.Cmd, k)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range es {
			if e.To.Equal(e.From) {
				// A self-loop updates the state to itself; it is not a
				// transition in the ETS sense.
				continue
			}
			edges = append(edges, e)
			if !seen[e.To.Key()] {
				seen[e.To.Key()] = true
				order = append(order, e.To.Clone())
				queue = append(queue, e.To.Clone())
				if len(order) > MaxStates {
					return nil, nil, fmt.Errorf("stateful: more than %d reachable states", MaxStates)
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Key() < edges[j].Key() })
	return order, edges, nil
}

// VecPred builds the vector-equality test state = [v0, v1, ...] as a
// conjunction of indexed state tests (the state=[n] sugar of Figure 9).
func VecPred(vals ...int) Pred {
	var out Pred = PTrue{}
	for i, v := range vals {
		t := PState{Index: i, Value: v}
		if i == 0 {
			out = t
		} else {
			out = PAnd{out, t}
		}
	}
	return out
}

// VecSets builds the vector assignment state <- [v0, v1, ...] as a list of
// per-index updates for a CLinkState.
func VecSets(vals ...int) []StateSet {
	out := make([]StateSet, len(vals))
	for i, v := range vals {
		out[i] = StateSet{Index: i, Value: v}
	}
	return out
}

// SeqC folds commands with CSeq; the empty list is the test true.
func SeqC(cs ...Cmd) Cmd {
	if len(cs) == 0 {
		return CPred{PTrue{}}
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = CSeq{out, c}
	}
	return out
}

// UnionC folds commands with CUnion; the empty list is the test false.
func UnionC(cs ...Cmd) Cmd {
	if len(cs) == 0 {
		return CPred{PFalse{}}
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = CUnion{out, c}
	}
	return out
}

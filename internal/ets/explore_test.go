package ets

import "testing"

// TestBuildMatchesReachableStates pins the builder's one source of edges
// (nkc.ProgramCompiler.Explore, per-strand extraction against a reference
// state chosen by scheduling) to the whole-program oracle: at one worker
// and at four, the ETS has exactly the states stateful.ReachableStates
// finds, in the same BFS order, and every vertex's outgoing transitions
// are the oracle's edges from that state.
func TestBuildMatchesReachableStates(t *testing.T) {
	for _, a := range incrementalApps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			states, edges, err := a.Prog.ReachableStates()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{} // "from>to@guard@loc" -> multiplicity
			for _, e := range edges {
				want[e.From.Key()+">"+e.To.Key()+"@"+e.Guard.Key()+"@"+e.Loc.String()]++
			}
			for _, workers := range []int{1, 4} {
				e, _, err := BuildWithOptions(a.Prog, a.Topo, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(e.Vertices) != len(states) {
					t.Fatalf("workers=%d: %d vertices, oracle reaches %d states", workers, len(e.Vertices), len(states))
				}
				for i, v := range e.Vertices {
					if !v.State.Equal(states[i]) {
						t.Fatalf("workers=%d: vertex %d is %v, oracle BFS has %v", workers, i, v.State, states[i])
					}
				}
				got := map[string]int{}
				for _, ed := range e.Edges {
					ev := e.Events[ed.Event]
					got[e.Vertices[ed.From].State.Key()+">"+e.Vertices[ed.To].State.Key()+"@"+ev.Guard.Key()+"@"+ev.Loc.String()]++
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d distinct transitions, oracle has %d", workers, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("workers=%d: transition %s occurs %d times, oracle %d", workers, k, got[k], n)
					}
				}
			}
		})
	}
}

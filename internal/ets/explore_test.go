package ets

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nkc"
)

// TestBuildMatchesReachableStates pins the builder's one source of edges
// (nkc.ProgramCompiler.Explore, per-strand extraction against the
// reference state) to the whole-program oracle: the ETS has exactly the
// states stateful.ReachableStates finds, in the same BFS order, and every
// vertex's outgoing transitions are the oracle's edges from that state.
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
			e, err := Build(a.Prog, a.Topo)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Vertices) != len(states) {
				t.Fatalf("%d vertices, oracle reaches %d states", len(e.Vertices), len(states))
			}
			for i, v := range e.Vertices {
				if !v.State.Equal(states[i]) {
					t.Fatalf("vertex %d is %v, oracle BFS has %v", i, v.State, states[i])
				}
			}
			got := map[string]int{}
			for _, ed := range e.Edges {
				ev := e.Events[ed.Event]
				got[e.Vertices[ed.From].State.Key()+">"+e.Vertices[ed.To].State.Key()+"@"+ev.Guard.Key()+"@"+ev.Loc.String()]++
			}
			if len(got) != len(want) {
				t.Fatalf("%d distinct transitions, oracle has %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("transition %s occurs %d times, oracle %d", k, got[k], n)
				}
			}
		})
	}
}

// TestBuildExploresEachStateOnce is the count gate on the walk: one
// compiler call per distinct state, whether a vertex is a state
// (bandwidth-cap-200: 202 states) or a (state, round) pair (the toggle
// unrolled five rounds: six vertices over two states).
func TestBuildExploresEachStateOnce(t *testing.T) {
	a := apps.BandwidthCap(200)
	_, stats, err := BuildWithOptions(a.Prog, a.Topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.Cache.TableHits + stats.Cache.TableMisses; stats.States != 202 || n != 202 {
		t.Fatalf("%d table lookups for %d states, want 202 for 202", n, stats.States)
	}

	prog, tp := toggleProgram()
	pc, err := nkc.NewProgramCompiler(prog.Cmd, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := walk(pc, prog.Init, tp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); len(e.Vertices) != 6 || st.TableHits+st.TableMisses != 2 {
		t.Fatalf("%d table lookups for %d unrolled vertices, want 2 for 6", st.TableHits+st.TableMisses, len(e.Vertices))
	}
}

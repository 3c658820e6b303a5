package ets

import (
	"errors"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// toggleProgram builds a cyclic two-state program over the firewall
// topology: arrivals of a=1 packets at 4:1 toggle the state back and
// forth. Both events occur at the same switch, so the SCC satisfies the
// locality restriction.
func toggleProgram() (stateful.Program, *topo.Topology) {
	tp := topo.Firewall()
	lnk := func(v int) stateful.Cmd {
		return stateful.CLinkState{
			Src:  netkat.Location{Switch: 1, Port: 1},
			Dst:  netkat.Location{Switch: 4, Port: 1},
			Sets: []stateful.StateSet{{Index: 0, Value: v}},
		}
	}
	prog := stateful.UnionC(
		stateful.SeqC(
			stateful.CPred{P: stateful.PAnd{L: stateful.PTest{Field: netkat.FieldPt, Value: 2}, R: stateful.PTest{Field: "a", Value: 1}}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 1},
			stateful.UnionC(
				stateful.SeqC(stateful.CPred{P: stateful.PState{Index: 0, Value: 0}}, lnk(1)),
				stateful.SeqC(stateful.CPred{P: stateful.PState{Index: 0, Value: 1}}, lnk(0)),
			),
			stateful.CAssign{Field: netkat.FieldPt, Value: 2},
		),
	)
	return stateful.Program{Cmd: prog, Init: stateful.State{0}}, tp
}

// crossSwitchToggle: the same loop but with the two events at different
// switches — violating per-SCC locality.
func crossSwitchToggle() (stateful.Program, *topo.Topology) {
	tp := topo.Firewall()
	prog := stateful.UnionC(
		stateful.SeqC(
			stateful.CPred{P: stateful.PAnd{L: stateful.PState{Index: 0, Value: 0}, R: stateful.PTest{Field: "a", Value: 1}}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 1},
			stateful.CLinkState{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}, Sets: []stateful.StateSet{{Index: 0, Value: 1}}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 2},
		),
		stateful.SeqC(
			stateful.CPred{P: stateful.PAnd{L: stateful.PState{Index: 0, Value: 1}, R: stateful.PTest{Field: "a", Value: 2}}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 1},
			stateful.CLinkState{Src: netkat.Location{Switch: 4, Port: 1}, Dst: netkat.Location{Switch: 1, Port: 1}, Sets: []stateful.StateSet{{Index: 0, Value: 0}}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 2},
		),
	)
	return stateful.Program{Cmd: prog, Init: stateful.State{0}}, tp
}

func TestBuildRejectsLoops(t *testing.T) {
	prog, tp := toggleProgram()
	if _, err := Build(prog, tp); !errors.Is(err, ErrLoop) {
		t.Fatalf("cyclic ETS: Build returned %v, want an error wrapping ErrLoop", err)
	}
}

func TestAnalyzeLoops(t *testing.T) {
	prog, _ := toggleProgram()
	rep, err := AnalyzeLoops(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasLoops {
		t.Fatal("toggle loop not detected")
	}
	if !rep.LocalityOK {
		t.Fatal("same-switch loop flagged non-local")
	}
	found := false
	for _, s := range rep.SCCs {
		if len(s.States) == 2 {
			found = true
			if len(s.EventSwitches) != 1 || s.EventSwitches[0] != 4 {
				t.Errorf("SCC event switches: %v", s.EventSwitches)
			}
		}
	}
	if !found {
		t.Fatalf("two-state SCC missing: %+v", rep.SCCs)
	}

	cross, _ := crossSwitchToggle()
	rep, err = AnalyzeLoops(cross)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalityOK {
		t.Fatal("cross-switch loop passed the locality check")
	}

	// Loop-free programs report no loops.
	a := apps.Firewall()
	rep, err = AnalyzeLoops(a.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasLoops {
		t.Fatal("firewall reported loops")
	}
}

// TestBuildUnrolled: unrolling the toggle to 3 rounds produces a chain
// 0 -> 1 -> 0' -> 1' with renamed occurrences, which converts to a valid
// NES.
func TestBuildUnrolled(t *testing.T) {
	prog, tp := toggleProgram()
	e, err := BuildUnrolled(prog, tp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Vertices) != 4 || len(e.Edges) != 3 || len(e.Events) != 3 {
		t.Fatalf("shape: %d vertices, %d edges, %d events\n%v", len(e.Vertices), len(e.Edges), len(e.Events), e)
	}
	// Occurrences 1 and 2 of the 0->1 guard, occurrence 1 of the other.
	occ := map[string]int{}
	for _, ev := range e.Events {
		key := ev.Guard.Key()
		if ev.Occurrence > occ[key] {
			occ[key] = ev.Occurrence
		}
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Family()) != 4 {
		t.Fatalf("family: %v", n.Family())
	}
	ld, err := n.LocallyDetermined()
	if err != nil {
		t.Fatal(err)
	}
	if !ld {
		t.Fatal("unrolled toggle not locally determined")
	}
}

// TestBuildUnrolledMatchesBuild: on a loop-free program with enough
// rounds, unrolling yields the same shape as the direct builder.
func TestBuildUnrolledMatchesBuild(t *testing.T) {
	a := apps.Authentication()
	direct, err := Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := BuildUnrolled(a.Prog, a.Topo, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Vertices) != len(unrolled.Vertices) ||
		len(direct.Edges) != len(unrolled.Edges) ||
		len(direct.Events) != len(unrolled.Events) {
		t.Fatalf("shapes differ: direct %d/%d/%d vs unrolled %d/%d/%d",
			len(direct.Vertices), len(direct.Edges), len(direct.Events),
			len(unrolled.Vertices), len(unrolled.Edges), len(unrolled.Events))
	}
}

// TestUnrolledToggleRuns: the unrolled toggle executes on the Figure 7
// machine; each a=1 packet flips the configuration until the unroll bound
// is exhausted.
func TestUnrolledToggleRuns(t *testing.T) {
	prog, tp := toggleProgram()
	e, err := BuildUnrolled(prog, tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	// The initial and second configurations have distinct labels but the
	// same state content alternates.
	if e.Vertices[0].State.Key() != "[0]" || e.Vertices[1].State.Key() != "[1]" {
		t.Fatalf("vertex states: %v %v", e.Vertices[0].State, e.Vertices[1].State)
	}
	if c, ok := n.ConfigAt(nes.Empty); !ok || n.Configs[c].Label != "[0]" {
		t.Fatal("initial config wrong")
	}
}

package ets

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/stateful/statefultest"
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

// cyclicReport returns the report of the LoopError Build returns.
func cyclicReport(t *testing.T, prog stateful.Program, tp *topo.Topology) *LoopReport {
	t.Helper()
	_, err := Build(prog, tp)
	var loop *LoopError
	if !errors.As(err, &loop) {
		t.Fatalf("cyclic ETS: Build returned %v, want a *LoopError", err)
	}
	return loop.Report
}

func TestBuildRejectsLoops(t *testing.T) {
	prog, tp := toggleProgram()
	cyclicReport(t, prog, tp)
}

func TestAnalyzeLoops(t *testing.T) {
	prog, tp := toggleProgram()
	rep := cyclicReport(t, prog, tp)
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

	cross, tp := crossSwitchToggle()
	if rep := cyclicReport(t, cross, tp); rep.LocalityOK {
		t.Fatal("cross-switch loop passed the locality check")
	}

	// Loop-free programs build.
	a := apps.Firewall()
	if _, err := Build(a.Prog, a.Topo); err != nil {
		t.Fatal(err)
	}
}

// analyzeLoops is the loop report computed apart from Build: the
// program's states and edges from the Figure 6 BFS
// (stateful.ReachableStates), and as components the classes of mutual
// reachability.
func analyzeLoops(p stateful.Program) (*LoopReport, error) {
	states, edges, err := p.ReachableStates()
	if err != nil {
		return nil, err
	}
	idx := map[string]int{}
	for i, s := range states {
		idx[s.Key()] = i
	}
	adj := make([][]int, len(states))
	for _, e := range edges {
		adj[idx[e.From.Key()]] = append(adj[idx[e.From.Key()]], idx[e.To.Key()])
	}
	reach := make([][]bool, len(states))
	for v := range states {
		reach[v] = make([]bool, len(states))
		reach[v][v] = true
		for stack := []int{v}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[u] {
				if !reach[v][w] {
					reach[v][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	comp := make([]int, len(states)) // the least vertex of v's class
	for v := range states {
		for comp[v] = 0; !reach[v][comp[v]] || !reach[comp[v]][v]; comp[v]++ {
		}
	}

	report := &LoopReport{LocalityOK: true}
	for c := range states {
		if comp[c] != c {
			continue
		}
		scc := SCC{Singleton: true}
		for v := range states {
			if comp[v] == c {
				scc.States = append(scc.States, states[v].Key())
			}
		}
		sort.Strings(scc.States)
		swSet := map[int]bool{}
		for _, e := range edges {
			if comp[idx[e.From.Key()]] == c && comp[idx[e.To.Key()]] == c {
				swSet[e.Loc.Switch] = true
				scc.Singleton = false
			}
		}
		for sw := range swSet {
			scc.EventSwitches = append(scc.EventSwitches, sw)
		}
		sort.Ints(scc.EventSwitches)
		if !scc.Singleton {
			report.HasLoops = true
			if len(scc.EventSwitches) > 1 {
				report.LocalityOK = false
			}
		}
		report.SCCs = append(report.SCCs, scc)
	}
	sort.Slice(report.SCCs, func(i, j int) bool { return report.SCCs[i].States[0] < report.SCCs[j].States[0] })
	return report, nil
}

// TestLoopReportMatchesOracle holds the report a cyclic Build returns
// to analyzeLoops, and a Build that succeeds to a report without loops,
// on every program both accept: the two toggles, every apps.All()
// program, and 40 000 random commands of depth 4 over three switches.
// Of these 40 007 programs both sides accept 7 539, and 122 of those
// (the two toggles among them) are cyclic.
func TestLoopReportMatchesOracle(t *testing.T) {
	type program struct {
		name string
		prog stateful.Program
		tp   *topo.Topology
	}
	toggle, tp := toggleProgram()
	cross, _ := crossSwitchToggle()
	progs := []program{{"toggle", toggle, tp}, {"cross-switch-toggle", cross, tp}}
	for _, a := range apps.All() {
		progs = append(progs, program{a.Name, a.Prog, a.Topo})
	}
	three := topo.New()
	for sw := 1; sw <= 3; sw++ {
		three.AddSwitch(sw)
	}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 40000; i++ {
		progs = append(progs, program{fmt.Sprintf("random-%d", i), stateful.Program{Cmd: statefultest.RandCmd(r, 4), Init: stateful.State{0, 0}}, three})
	}

	accepted, cyclic := 0, 0
	for _, p := range progs {
		_, err := Build(p.prog, p.tp)
		var loop *LoopError
		if err != nil && !errors.As(err, &loop) {
			continue
		}
		want, oerr := analyzeLoops(p.prog)
		if oerr != nil {
			continue
		}
		accepted++
		switch {
		case loop == nil && want.HasLoops:
			t.Fatalf("%s: Build accepted a program whose oracle report has loops: %+v", p.name, want)
		case loop != nil:
			cyclic++
			if !reflect.DeepEqual(loop.Report, want) {
				t.Fatalf("%s: report %+v, oracle %+v", p.name, loop.Report, want)
			}
		}
	}
	t.Logf("%d programs accepted by both, %d cyclic", accepted, cyclic)
	if cyclic < 100 {
		t.Fatalf("only %d cyclic programs compared; the comparison is close to vacuous", cyclic)
	}
}

// TestBuildUnrolled: unrolling the toggle to 3 rounds produces a chain
// 0 -> 1 -> 0' -> 1' with renamed occurrences, which converts to a valid,
// locally determined NES.
func TestBuildUnrolled(t *testing.T) {
	prog, tp := toggleProgram()
	e, n, _, err := Compile(prog, tp, nil, 3)
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
	if len(n.Family()) != 4 {
		t.Fatalf("family: %v", n.Family())
	}
	if _, _, _, err := Compile(prog, tp, nil, -1); err == nil {
		t.Fatal("Compile accepted -1 rounds")
	}
}

// TestBuildUnrolledOnProgramCache: snkc's sequence on a cyclic program,
// a Compile that fails with a LoopError and then one that unrolls, through
// one nkc.ProgramCache. The unrolled ETS is the one an uncached build makes,
// and the unrolling translates no segment the failed build did not: the
// unrolled states are copies of the states that build already compiled.
func TestBuildUnrolledOnProgramCache(t *testing.T) {
	toggle, tp := toggleProgram()
	cross, _ := crossSwitchToggle()
	for _, prog := range []stateful.Program{toggle, cross} {
		for rounds := 1; rounds <= 4; rounds++ {
			cache := nkc.NewProgramCache()
			var loop *LoopError
			if _, _, _, err := Compile(prog, tp, cache, 0); !errors.As(err, &loop) {
				t.Fatalf("Compile returned %v, want a *LoopError", err)
			}
			cached, _, st, err := Compile(prog, tp, cache, rounds)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, _, err := Compile(prog, tp, nil, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if etsDigest(cached) != etsDigest(fresh) {
				t.Errorf("%d rounds: the unrolled ETS on the cache differs from the uncached one:\n%v\nvs\n%v", rounds, cached, fresh)
			}
			if c := st.Cache; c.SegmentMisses != 0 || c.SegmentHits == 0 {
				t.Errorf("%d rounds: the unrolling on the cache the failed build used: %s, want every segment a hit", rounds, c)
			}
		}
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
	unrolled, _, _, err := Compile(a.Prog, a.Topo, nil, 10)
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
	e, n, _, err := Compile(prog, tp, nil, 2)
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

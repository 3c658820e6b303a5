package eventnet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/sim"
	"eventnet/internal/stateful"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
)

// ExampleCompile is the README quickstart: compile the paper's stateful
// firewall to an event-driven transition system and its NES.
func ExampleCompile() {
	app := Firewall()
	sys, err := Compile(app.Prog, app.Topo)
	if err != nil {
		panic(err)
	}
	fmt.Printf("states: %d\n", len(sys.ETS.Vertices))
	fmt.Printf("events: %d\n", len(sys.NES.Events))
	fmt.Printf("has rules: %v\n", sys.TotalRules() > 0)
	// Output:
	// states: 2
	// events: 1
	// has rules: true
}

// ExampleMachine_Inject drives the compiled firewall on the Figure 7
// abstract machine and checks the recorded trace against the paper's
// event-driven consistency oracle (Definition 6).
func ExampleMachine_Inject() {
	app := Firewall()
	sys, err := Compile(app.Prog, app.Topo)
	if err != nil {
		panic(err)
	}
	m := sys.NewMachine(1, false)
	if err := m.Inject("H1", netkat.Packet{apps.FieldDst: apps.H(4)}); err != nil {
		panic(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		panic(err)
	}
	fmt.Println("trace consistent:", sys.CheckTrace(m.NetTrace()) == nil)
	// Output:
	// trace consistent: true
}

// TestCompileAllApps: the public pipeline compiles every paper
// application and reports sensible totals.
func TestCompileAllApps(t *testing.T) {
	for _, a := range apps.All() {
		sys, err := Compile(a.Prog, a.Topo)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if sys.TotalRules() == 0 {
			t.Errorf("%s: no rules", a.Name)
		}
		if len(sys.NES.Events) != len(sys.ETS.Events) {
			t.Errorf("%s: event mismatch", a.Name)
		}
	}
}

// TestFacadeEndToEnd drives the README quickstart through the facade.
func TestFacadeEndToEnd(t *testing.T) {
	app := Firewall()
	sys, err := Compile(app.Prog, app.Topo)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.NewMachine(1, false)
	if err := m.Inject("H1", netkat.Packet{apps.FieldDst: apps.H(4)}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckTrace(m.NetTrace()); err != nil {
		t.Fatalf("oracle: %v", err)
	}

	s := sys.NewSim(sim.PlaneKindTagged, sim.DefaultParams(), 1)
	sim.EnableEcho(s, "H4")
	st := sim.StartPings(s, "H1", "H4", 0, 0.1, 3, 0)
	s.Run(2)
	if st.Succeeded() != 3 {
		t.Fatalf("sim pings: %d/3", st.Succeeded())
	}
}

// TestCompileRejectsBadPrograms: the facade surfaces pipeline errors.
func TestCompileRejectsBadPrograms(t *testing.T) {
	tp := topo.Firewall()
	// A cyclic program is rejected by the loop-free builder.
	toggle := stateful.UnionC(
		stateful.SeqC(
			stateful.CPred{P: stateful.PState{Index: 0, Value: 0}},
			stateful.CLinkState{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}, Sets: []stateful.StateSet{{Index: 0, Value: 1}}},
		),
		stateful.SeqC(
			stateful.CPred{P: stateful.PState{Index: 0, Value: 1}},
			stateful.CLinkState{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}, Sets: []stateful.StateSet{{Index: 0, Value: 0}}},
		),
	)
	if _, err := Compile(Program{Cmd: toggle, Init: stateful.State{0}}, tp); err == nil {
		t.Error("cyclic program accepted")
	}
	// Star over links is outside the compiled fragment.
	loopy := stateful.CStar{P: stateful.CLink{Src: netkat.Location{Switch: 1, Port: 1}, Dst: netkat.Location{Switch: 4, Port: 1}}}
	if _, err := Compile(Program{Cmd: loopy, Init: stateful.State{0}}, tp); err == nil {
		t.Error("star over links accepted")
	}
}

// TestCompileRefusesNonLocal: the negative corpus in testdata/nonlocal
// (firewall topology, initial state [0]) compiles to NESs outside Theorem
// 1's premise, and Compile refuses each with the evidence: a
// minimally-inconsistent set whose events are at switches 1 and 4. race
// is Lemma 1's structure, two events at two switches each enabled
// alone and in conflict; race-after-event is the same race after a first
// event both need. The same conflict at one switch compiles.
func TestCompileRefusesNonLocal(t *testing.T) {
	want := map[string]string{
		"race": "nes: not locally determined: the minimally-inconsistent event-set {0,1} spans switches; " +
			"e0 (dst=101, 1:1) at switch 1 port 1; e1 (dst=104, 4:1) at switch 4 port 1",
		"race-after-event": "nes: not locally determined: the minimally-inconsistent event-set {1,2} spans switches; " +
			"e1 (dst=101, 1:1) at switch 1 port 1; e2 (dst=104, 4:1)_2 at switch 4 port 1",
	}
	files, err := filepath.Glob("testdata/nonlocal/*.snk")
	if err != nil || len(files) != len(want) {
		t.Fatalf("corpus %v (%v), want %d programs", files, err, len(want))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := syntax.ParseProgram(string(src), []int{0})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		_, err = Compile(p, topo.Firewall())
		var nl *nes.NotLocalError
		if !errors.As(err, &nl) || err.Error() != want[strings.TrimSuffix(filepath.Base(f), ".snk")] {
			t.Errorf("%s: Compile returned %v, want a *nes.NotLocalError", f, err)
		}
	}
	oneSwitch := "pt=2 & dst=H4; pt<-1; (state=[0] & src=H1; (1:1)=>(4:1)<state<-[1]> + state=[0] & src=H2; (1:1)=>(4:1)<state<-[2]> + state!=[0]; (1:1)=>(4:1)); pt<-2"
	p, err := syntax.ParseProgram(oneSwitch, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Compile(p, topo.Firewall())
	if err != nil {
		t.Fatalf("a conflict at one switch refused: %v", err)
	}
	if mis, err := sys.NES.MinimallyInconsistent(); err != nil || len(mis) != 1 {
		t.Fatalf("one-switch race: minimally-inconsistent sets %v, %v; want the one conflicting pair", mis, err)
	}
}

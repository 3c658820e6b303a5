package nkc

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// BenchmarkCompileFirewallConfig measures one static-configuration
// compile (policy -> per-switch tables).
func BenchmarkCompileFirewallConfig(b *testing.B) {
	a := apps.Firewall()
	pol := stateful.Project(a.Prog.Cmd, stateful.State{1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(pol, a.Topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileRingConfig measures a longer-path compile (8 hops).
func BenchmarkCompileRingConfig(b *testing.B) {
	a := apps.Ring(8)
	pol := stateful.Project(a.Prog.Cmd, stateful.State{0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(pol, a.Topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileStates compiles the per-state configurations of each
// application through one ProgramCompiler, as ets.Build does.
func BenchmarkCompileStates(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			states, _, err := a.Prog.ReachableStates()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pc, err := NewProgramCompiler(a.Prog.Cmd, a.Topo, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pc.CompileAll(states, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableLookup measures one flow-table lookup on the compiled
// firewall.
func BenchmarkTableLookup(b *testing.B) {
	a := apps.Firewall()
	pol := stateful.Project(a.Prog.Cmd, stateful.State{1})
	tables, err := Compile(pol, a.Topo)
	if err != nil {
		b.Fatal(err)
	}
	tbl := tables.Get(4)
	pkt := netkat.Packet{"dst": 101}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.AppendProcess(nil, pkt, 2, 0)
	}
}

// BenchmarkDNF measures predicate normalization on a nested formula.
func BenchmarkDNF(b *testing.B) {
	p := netkat.Not{P: netkat.And{
		L: netkat.Or{L: netkat.Test{Field: "a", Value: 1}, R: netkat.Test{Field: "b", Value: 2}},
		R: netkat.Not{P: netkat.Or{L: netkat.Test{Field: "c", Value: 3}, R: netkat.Test{Field: "a", Value: 2}}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DNF(p)
	}
}

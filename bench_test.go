// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), one per experiment, plus ablations for the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package eventnet

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/exp"
	"eventnet/internal/netkat"
	"eventnet/internal/optimize"
	"eventnet/internal/sim"
	"eventnet/internal/trace"
)

// compileApps is the app set for the full-pipeline compile benchmarks:
// the five paper applications (the in-text 0.013-0.023 s column) plus
// bandwidth-cap-80, the stateful-scale workload the incremental pipeline
// is measured on (docs/BENCHMARKS.md records the trajectory).
func compileApps() []apps.App {
	return append(apps.All(), apps.BandwidthCap(80))
}

// BenchmarkTableCompileApps times the full compilation pipeline (the
// incremental compiler through the sharded ETS engine).
func BenchmarkTableCompileApps(b *testing.B) {
	for _, a := range compileApps() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(a.Prog, a.Topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableCompileScale times the full pipeline on the large sweeps
// the incremental engine opened (bandwidth-cap-200 needs 201 events —
// past the old 64-event tag word — and ids-fattree-4 compiles multi-hop
// routes over a 20-switch data-center fabric).
func BenchmarkTableCompileScale(b *testing.B) {
	for _, a := range apps.Scale() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(a.Prog, a.Topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableOptimizeApps times the Section 5.3 trie heuristic on the
// applications' configuration sets.
func BenchmarkTableOptimizeApps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = exp.TableOptimize()
	}
}

// BenchmarkFig10FirewallDelaySweep runs a reduced Figure 10 sweep
// (0-1000 ms in 500 ms steps, 2 runs per point, both planes).
func BenchmarkFig10FirewallDelaySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig10(1000, 500, 2)
	}
}

// BenchmarkFig11Firewall regenerates the firewall timelines.
func BenchmarkFig11Firewall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig11()
	}
}

// BenchmarkFig12LearningSwitch regenerates the flood-count comparison.
func BenchmarkFig12LearningSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig12()
	}
}

// BenchmarkFig13Authentication regenerates the authentication timelines.
func BenchmarkFig13Authentication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig13()
	}
}

// BenchmarkFig14BandwidthCap regenerates the cap comparison (n=10).
func BenchmarkFig14BandwidthCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig14()
	}
}

// BenchmarkFig15IDS regenerates the IDS timelines.
func BenchmarkFig15IDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig15()
	}
}

// BenchmarkFig16aRingBandwidth regenerates the bandwidth-vs-diameter
// series for diameters 2-4.
func BenchmarkFig16aRingBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig16a([]int{2, 3, 4})
	}
}

// BenchmarkFig16bRingConvergence regenerates the discovery-time series.
func BenchmarkFig16bRingConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig16b([]int{3, 4, 5})
	}
}

// BenchmarkFig17HeuristicRandom regenerates the random-configuration
// optimizer measurement (5 trials of 64 configs).
func BenchmarkFig17HeuristicRandom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = exp.Fig17(5, int64(i))
	}
}

// BenchmarkAblationOracleCost measures the Definition 6 oracle on
// runtime-generated traces of growing length (DESIGN.md: oracle-first
// testing).
func BenchmarkAblationOracleCost(b *testing.B) {
	a := apps.Firewall()
	sys, err := Compile(a.Prog, a.Topo)
	if err != nil {
		b.Fatal(err)
	}
	hosts := a.Topo.HostLocs()
	for _, pings := range []int{2, 8, 32} {
		m := sys.NewMachine(1, false)
		for i := 0; i < pings; i++ {
			m.Inject("H1", netkat.Packet{apps.FieldDst: apps.H(4)})
			m.Inject("H4", netkat.Packet{apps.FieldDst: apps.H(1)})
			if err := m.RunToQuiescence(); err != nil {
				b.Fatal(err)
			}
		}
		nt := m.NetTrace()
		b.Run(benchName("pings", pings), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := trace.CheckNES(nt, sys.NES, hosts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGreedyVsOptimal compares the trie heuristic against
// brute force on 4-config instances (DESIGN.md ablation).
func BenchmarkAblationGreedyVsOptimal(b *testing.B) {
	mk := func(seed int) []optimize.RuleSet {
		configs := make([]optimize.RuleSet, 4)
		for i := range configs {
			configs[i] = optimize.RuleSet{}
			for id := 0; id < 10; id++ {
				if (seed+i*7+id*3)%3 == 0 {
					configs[i][id] = true
				}
			}
		}
		return configs
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimize.Greedy(mk(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimize.Optimal(mk(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRuntimeStep measures the Figure 7 machine's per-step cost on a
// busy firewall run.
func BenchmarkRuntimeStep(b *testing.B) {
	a := apps.Firewall()
	sys, err := Compile(a.Prog, a.Topo)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := sys.NewMachine(int64(i), false)
		for j := 0; j < 8; j++ {
			m.Inject("H1", netkat.Packet{apps.FieldDst: apps.H(4)})
		}
		b.StartTimer()
		if err := m.RunToQuiescence(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures the simulator's event-processing rate
// on a saturated ring.
func BenchmarkSimThroughput(b *testing.B) {
	a := apps.Ring(4)
	sys, err := Compile(a.Prog, a.Topo)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sys.NewSim(sim.PlaneKindTagged, sim.DefaultParams(), int64(i))
		rate := s.Params.LinkBandwidth / float64(s.Params.PayloadBytes)
		sim.StartBulk(s, "H1", "H2", 0, 0.5, rate, 0)
		s.Run(1)
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "-0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%10]}, buf...)
		n /= 10
	}
	return prefix + "-" + string(buf)
}

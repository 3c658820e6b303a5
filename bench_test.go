// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), one per experiment. They exist so that CI's
// -benchtime=1x smoke runs every figure; the numbers anyone compares
// come from bench/ (docs/BENCHMARKS.md). Run with:
//
//	go test -bench=. -benchmem
package eventnet

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/exp"
)

// BenchmarkTableCompileApps runs the full compilation pipeline on the
// five paper applications (the in-text 0.013-0.023 s column) plus
// bandwidth-cap-80.
func BenchmarkTableCompileApps(b *testing.B) {
	for _, a := range append(apps.All(), apps.BandwidthCap(80)) {
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

package dataplane

import (
	"runtime"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/syntax"
)

// TestColdCompileAllocs pins what one cold source-to-plan build of the
// firewall allocates: parse, an ETS on a compiler of its own, ToNES,
// LocallyDetermined and PlanFor. The node arena reserves chunks as the
// diagram grows, so a program of few FDD nodes does not pay for a
// 4 096-node slab (327 KB on its own).
func TestColdCompileAllocs(t *testing.T) {
	a := apps.Firewall()
	src := a.Prog.Cmd.String()
	build := func() {
		prog, err := syntax.ParseProgram(src, a.Prog.Init)
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := ets.BuildWithOptions(prog, a.Topo, ets.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.ToNES()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.LocallyDetermined(); err != nil {
			t.Fatal(err)
		}
		PlanFor(n)
	}
	build() // once-per-process allocations stay out of the figure
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; per > 100e3 {
		t.Fatalf("a cold firewall build allocates %.0f KB, want <= 100 KB", per/1e3)
	} else {
		t.Logf("a cold firewall build allocates %.1f KB", per/1e3)
	}
}

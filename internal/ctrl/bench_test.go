package ctrl_test

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
)

// BenchmarkSwap measures no-load swap latency end to end: delta compile
// through the cross-generation cache, staged install, flip, drain (empty)
// and retire, alternating between two revisions of the bandwidth cap.
// The under-traffic numbers are bench's swap-under-load workload
// (swap_novel_p50_ms, swap_memo_p50_ms, ctrl.transition_ratio).
func BenchmarkSwap(b *testing.B) {
	a := apps.BandwidthCap(40)
	rev := apps.BandwidthCap(41)
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := rev
		if i%2 == 1 {
			target = a
		}
		if _, err := c.Swap(target.Name, target.Prog); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkWarmRevisionCompile measures Compile of a never-seen revision
// on a controller serving bandwidth-cap-200: cap-201, cap-202, … through
// the cross-generation cache, as bench's compile-cold-warm warm phase
// does. After 128 revisions a new controller starts (untimed).
func BenchmarkWarmRevisionCompile(b *testing.B) {
	const pool = 128
	revs := make([]apps.App, pool)
	for i := range revs {
		revs[i] = apps.BandwidthCap(201 + i)
	}
	var c *ctrl.Controller
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%pool == 0 {
			b.StopTimer()
			if c != nil {
				c.Close()
			}
			base := apps.BandwidthCap(200)
			c = ctrl.New(base.Topo, ctrl.Options{})
			if err := c.Load(base.Name, base.Prog); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		r := revs[i%pool]
		if _, err := c.Compile(r.Name, r.Prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
}

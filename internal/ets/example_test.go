package ets_test

import (
	"fmt"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
)

// ExampleBuild compiles the bandwidth-cap application with cap 20 (22
// reachable states) and reports the incremental compiler's cache
// statistics. The first state walks all 23 strands (46
// segment lookups); adjacent states differ only in which counter guard
// holds, so each later state looks up only the segments of the few
// strands testing a flipped guard, and every strand segment it does look
// up is reused by its structural (segment rendering, guard signature)
// key — including across strand positions that contain the same
// link-free command. The whole run performs just four distinct symbolic
// strand executions.
func ExampleBuild() {
	a := apps.BandwidthCap(20)
	e, stats, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("states=%d events=%d\n", len(e.Vertices), len(e.Events))
	fmt.Printf("segment cache: %d hits / %d misses\n", stats.Cache.SegmentHits, stats.Cache.SegmentMisses)
	fmt.Printf("distinct strand executions: %d\n", stats.Cache.Strands)
	// Output:
	// states=22 events=21
	// segment cache: 85 hits / 47 misses
	// distinct strand executions: 4
}

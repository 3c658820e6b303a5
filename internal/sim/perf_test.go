package sim

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
)

// firewallPings runs the Figure 11 ping script on the firewall with
// InstallDelay 2 and recording on.
func firewallPings(n *nes.NES, kind PlaneKind) *Sim {
	p := DefaultParams()
	p.InstallDelay = 2.0
	s := New(apps.Firewall().Topo, NewPlane(kind, n), p, 1)
	s.Record = true
	EnableEcho(s, "H1")
	EnableEcho(s, "H4")
	StartPings(s, "H4", "H1", 0.5, 0.25, 4, 1000)
	StartPings(s, "H1", "H4", 2.0, 0.25, 4, 2000)
	StartPings(s, "H4", "H1", 3.5, 0.25, 4, 3000)
	s.Run(8)
	return s
}

// ringBulk runs the Figure 16a bulk transfer on ring(3) for secs simulated
// seconds: 120 us switches, a sender at 1.05/SwitchProcTime, recording on.
func ringBulk(n *nes.NES, kind PlaneKind, secs float64) *Sim {
	s := newRingBulk(n, kind, secs)
	s.Record = true
	s.Run(0.2 + secs)
	return s
}

// newRingBulk sets ringBulk's transfer up without running it.
func newRingBulk(n *nes.NES, kind PlaneKind, secs float64) *Sim {
	p := DefaultParams()
	p.InstallDelay = 2.0
	p.SwitchProcTime = 120e-6
	s := New(apps.Ring(3).Topo, NewPlane(kind, n), p, 1)
	StartBulk(s, "H1", "H2", 0.1, secs, 1.05/p.SwitchProcTime, 0)
	return s
}

// maxAllocsPerDelivery bounds a tagged ring(3) bulk run's allocations per
// delivered packet. All but a handful are the workload's own: the header
// map of each send (two allocations). A hop allocates nothing, where it
// used to allocate a closure per scheduled arrival and processing and a
// fresh Process result (about 16 per delivered packet in all).
const maxAllocsPerDelivery = 2.25

// maxQueueDepth bounds the hops queued on all lanes at once on a ring(3)
// bulk run: packets queued at the bottleneck switch and on the wire,
// whatever the number of sends.
const maxQueueDepth = 256

// TestSimHopAllocs: the event loop allocates nothing per hop of its own,
// and the queue holds in-flight work, not the sends still to come.
func TestSimHopAllocs(t *testing.T) {
	n := buildNES(t, apps.Ring(3))
	delivered := 0
	allocs := testing.AllocsPerRun(3, func() {
		s := newRingBulk(n, PlaneKindTagged, 0.2)
		s.Run(0.4)
		delivered = len(s.Delivered)
	})
	if delivered == 0 {
		t.Fatal("no deliveries")
	}
	if per := allocs / float64(delivered); per > maxAllocsPerDelivery {
		t.Errorf("%.0f allocations for %d deliveries (%.2f each), want <= %.2f each", allocs, delivered, per, maxAllocsPerDelivery)
	}

	// Stepping the run by hand, after every step: the heap holds one entry
	// per busy lane and one per pending callback, and the hops on all
	// lanes together stay under the bound.
	for _, secs := range []float64{0.2, 2} {
		s := newRingBulk(n, PlaneKindTagged, secs)
		sends := int64(secs * (1.05 / s.Params.SwitchProcTime)) // StartBulk's count
		if len(s.queue) != 1 || s.queue[0].seq != 1 || s.seq != sends {
			t.Errorf("%.1f s bulk: before the run %d events queued (first seq %d) and seq at %d, want the first send only on seq 1 of a reserved block of %d", secs, len(s.queue), s.queue[0].seq, s.seq, sends)
		}
		peak, peakHeap := 0, 0
		for horizon := secs + 0.2; len(s.queue) > 0 && s.queue[0].at <= horizon; {
			s.step()
			busy, hops := 0, 0
			for _, l := range s.lanes {
				if l.n > 0 {
					busy++
				}
				hops += l.n
			}
			if pending := len(s.fns) - len(s.free); len(s.queue) != busy+pending {
				t.Fatalf("%.1f s bulk at %v: %d heap entries for %d busy lanes (of %d) and %d pending callbacks", secs, s.now, len(s.queue), busy, len(s.lanes), pending)
			}
			peak, peakHeap = max(peak, hops), max(peakHeap, len(s.queue))
		}
		t.Logf("%.1f s bulk: %d delivered, %d lanes, at most %d hops queued and %d heap entries", secs, len(s.Delivered), len(s.lanes), peak, peakHeap)
		if peak > maxQueueDepth {
			t.Errorf("%.1f s bulk: lanes held %d hops at once, want <= %d", secs, peak, maxQueueDepth)
		}
	}
}

// BenchmarkSimBulk is the ring(3) 0.2 s bulk transfer of the benchmark's
// simulator pass, under each plane, recording off.
func BenchmarkSimBulk(b *testing.B) {
	n := buildNES(b, apps.Ring(3))
	for _, c := range []struct {
		name string
		kind PlaneKind
	}{{"tagged", PlaneKindTagged}, {"uncoord", PlaneKindUncoord}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			delivered := 0
			for i := 0; i < b.N; i++ {
				s := newRingBulk(n, c.kind, 0.2)
				s.Run(0.4)
				delivered += len(s.Delivered)
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
		})
	}
}

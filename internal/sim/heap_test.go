package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"eventnet/internal/apps"
)

// refHeap is container/heap over the same ordering: the reference the
// typed heap replaced.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TestEventHeapOrder: 10 000 pushes with many equal times, interleaved
// with pops, come out in the order container/heap gives.
func TestEventHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q eventHeap
	var ref refHeap
	check := func() {
		got, want := q[0], heap.Pop(&ref).(event)
		q.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop = (%v, %d), reference (%v, %d)", got.at, got.seq, want.at, want.seq)
		}
	}
	for seq := int64(1); seq <= 10000; seq++ {
		ev := event{at: float64(r.Intn(50)), seq: seq, slot: int32(seq)}
		q.push(ev)
		heap.Push(&ref, ev)
		for len(q) > 0 && r.Intn(3) == 0 {
			check()
		}
		if len(q) != len(ref) {
			t.Fatalf("len = %d, reference %d", len(q), len(ref))
		}
	}
	for len(q) > 0 {
		check()
	}
	if len(ref) != 0 {
		t.Fatalf("reference still holds %d events", len(ref))
	}
}

// TestDrainedQueueReleasesClosures: once a run has drained the queue, no
// slot of the callback slab and no slot of any lane's ring, vacant
// capacity included, keeps a closure, a packet map or a digest reachable.
// A ring slot has no host field: a link's far host is the lane's own.
func TestDrainedQueueReleasesClosures(t *testing.T) {
	fw := firewallPings(buildNES(t, apps.Firewall()), PlaneKindTagged)
	for i := 0; i < 100; i++ {
		fw.At(fw.Now()+float64(i%7), func() {})
	}
	fw.Run(fw.Now() + 10)
	bulk := ringBulk(buildNES(t, apps.Ring(3)), PlaneKindTagged, 0.2)
	for _, s := range []*Sim{fw, bulk} {
		if len(s.queue) != 0 {
			t.Fatalf("queue holds %d events after the run", len(s.queue))
		}
		if len(s.free) != len(s.fns) {
			t.Fatalf("%d of %d slab slots still in use", len(s.fns)-len(s.free), len(s.fns))
		}
		for i, fn := range s.fns[:cap(s.fns)] {
			if fn != nil {
				t.Fatalf("vacated slot %d still holds a callback", i)
			}
		}
		if len(s.lanes) == 0 {
			t.Fatal("no lane was used")
		}
		for i, l := range s.lanes {
			if l.n != 0 {
				t.Fatalf("lane %d still holds %d hops", i, l.n)
			}
			for j, h := range l.ring[:cap(l.ring)] {
				if h.fields != nil || h.meta != (Meta{}) {
					t.Fatalf("lane %d: vacated ring slot %d still holds work: %+v", i, j, h)
				}
			}
		}
	}
}

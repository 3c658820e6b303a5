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
		got, want := q.pop(), heap.Pop(&ref).(event)
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
// slot of the action slab, vacant capacity included, keeps a closure, a
// packet map or a digest reachable.
func TestDrainedQueueReleasesClosures(t *testing.T) {
	s := firewallPings(buildNES(t, apps.Firewall()), PlaneKindTagged)
	for i := 0; i < 100; i++ {
		s.At(s.Now()+float64(i%7), func() {})
	}
	s.Run(s.Now() + 10)
	if len(s.queue) != 0 {
		t.Fatalf("queue holds %d events after the run", len(s.queue))
	}
	if len(s.free) != len(s.acts) {
		t.Fatalf("%d of %d slab slots still in use", len(s.acts)-len(s.free), len(s.acts))
	}
	for i, a := range s.acts[:cap(s.acts)] {
		if a.fn != nil || a.fields != nil || a.host != nil || a.meta != (Meta{}) {
			t.Fatalf("vacated slot %d still holds work: %+v", i, a)
		}
	}
}

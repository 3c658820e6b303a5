package sim

import (
	"container/heap"
	"math/rand"
	"testing"
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
		ev := event{at: float64(r.Intn(50)), seq: seq, fn: func() {}}
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

// TestDrainedQueueReleasesClosures: a popped event's closure (and the
// packet maps it captured) must not stay reachable from the queue's
// backing array.
func TestDrainedQueueReleasesClosures(t *testing.T) {
	s := New(nil, nil, DefaultParams(), 1)
	for i := 0; i < 100; i++ {
		s.At(float64(i%7), func() {})
	}
	s.Run(10)
	if len(s.queue) != 0 {
		t.Fatalf("queue holds %d events after the run", len(s.queue))
	}
	for i, ev := range s.queue[:cap(s.queue)] {
		if ev.fn != nil {
			t.Fatalf("vacated slot %d still holds a closure", i)
		}
	}
}

package dataplane_test

import (
	"errors"
	"runtime"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// TestInboxBounded: while something holds the supervisor (here a Do that
// waits on a channel) a serving engine queues what clients post, and
// must stop doing so at maxInboxPackets: the batch that would cross the
// bound is refused whole, its packets reported and counted as shed, and
// everything queued before it is admitted once the supervisor is free.
// The second cycle runs on warm rings and must leave the heap where the
// first left it.
func TestInboxBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("queues and admits 2^20 packets twice")
	}
	a := apps.Firewall()
	o := metricsOnly()
	e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 1, DeliveryLog: 1 << 10, Obs: o})
	e.Start()
	defer e.Stop()
	batch := make([]dataplane.Injection, 64)
	for i := range batch {
		batch[i] = dataplane.Injection{Host: "H1", Fields: netkat.Packet{"dst": 7, "src": apps.H(1), "id": i}} // no rule matches: one hop each
	}
	var sent, admitted, shed int64
	cycle := func() {
		release, held, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			e.Do(func() { close(held); <-release })
			close(done)
		}()
		<-held
		for queued := 0; ; queued += len(batch) {
			if queued > dataplane.MaxInboxPackets {
				close(release)
				t.Fatalf("%d packets queued, past the bound of %d", queued, dataplane.MaxInboxPackets)
			}
			errs := e.InjectAsyncBatch(batch)
			sent += int64(len(batch))
			if errs == nil {
				admitted += int64(len(batch))
				continue
			}
			for i, err := range errs {
				if !errors.Is(err, dataplane.ErrInboxFull) {
					t.Fatalf("refused batch: errs[%d] = %v, want ErrInboxFull for every packet", i, err)
				}
			}
			shed += int64(len(batch))
			if !e.Serving() {
				t.Fatal("the engine stopped serving while its inbox was full")
			}
			break
		}
		close(release)
		<-done
		e.Quiesce()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second collection empties the batch pool
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	cycle()
	if admitted != dataplane.MaxInboxPackets || shed != int64(len(batch)) {
		t.Fatalf("first refusal after %d packets queued (%d shed), want it at %d", admitted, shed, dataplane.MaxInboxPackets)
	}
	before := heap()
	cycle()
	after := heap()
	if sent != admitted+shed || admitted != 2*dataplane.MaxInboxPackets {
		t.Fatalf("sent %d, admitted %d, shed %d", sent, admitted, shed)
	}
	if got := o.Metrics.Counter(obs.CtrInjections); got != admitted {
		t.Fatalf("%d injections counted, %d admitted", got, admitted)
	}
	if got := o.Metrics.Counter(obs.CtrIngressShed); got != shed {
		t.Fatalf("%d packets counted shed, %d refused", got, shed)
	}
	if hops := e.Snapshot().Processed; hops != admitted {
		t.Fatalf("%d hops for %d admitted one-hop packets", hops, admitted)
	}
	// One pooled batch of 64 three-field packets is under 4 KiB; a leak of
	// what a cycle queues would be 16 384 of them.
	if after > before+4<<20 {
		t.Fatalf("heap grew from %d to %d bytes over a cycle on warm rings", before, after)
	}
}

package dataplane

import (
	"testing"

	"eventnet/internal/netkat"
)

// TestEngineBatchedIngressSteadyAlloc pins the allocation budget of the
// steady-state batched ingress + hop loop: once the engine's rings,
// free lists and emission index are warm, an InjectBatch of unroutable
// packets (dropped at their first hop, so nothing accretes in the
// delivery log) followed by a full drain allocates only the returned
// stamps slice — the hop loop itself stays allocation-free, the
// property TestEngineHopLoopZeroAlloc pins for the per-packet path.
func TestEngineBatchedIngressSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: the race detector changes what allocates")
	}
	e, _ := loopEngine(t)
	ins := make([]Injection, 64)
	for i := range ins {
		// dst != 99 matches no rule: one hop, then drained.
		ins[i] = Injection{Host: "H1", Fields: netkat.Packet{"dst": 7}}
	}
	cycle := func() {
		if _, errs := e.InjectBatch(ins); errs != nil {
			t.Fatalf("batch rejected: %v", errs)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm rings, freelists, emitBuf
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Fatalf("steady-state batched cycle allocates %.1f times per batch, want <= 1 (the stamps slice)", avg)
	}
}

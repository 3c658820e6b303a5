package runtime

import (
	"math"
	"testing"

	"eventnet/internal/apps"
)

// busyRing returns a machine over ring(diameter) with both hosts sending,
// stepped until queues all round the ring hold packets and have grown to
// their working capacity.
func busyRing(t *testing.T, diameter int) *Machine {
	t.Helper()
	a := apps.Ring(diameter)
	m := New(buildNES(t, a), a.Topo, 1, true)
	for i := 0; i < 400; i++ {
		if err := m.Inject("H1", pkt(apps.H(2))); err != nil {
			t.Fatal(err)
		}
		if err := m.Inject("H2", pkt(apps.H(1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		m.Step()
	}
	return m
}

// TestPickDoesNotAllocate: picking an action on a warm machine — counting
// the enabled rule instances and drawing one — is a walk of the busy set
// and the switches into a buffer the machine already owns.
func TestPickDoesNotAllocate(t *testing.T) {
	m := busyRing(t, 4)
	if n := m.actions(); n < 4 {
		t.Fatalf("machine is not busy: %d enabled instances", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.pick(m.rng.Intn(m.actions())) }); n != 0 {
		t.Errorf("picking an action: %v allocs, want 0", n)
	}
}

// TestStepAllocsIndependentOfNetworkSize: a step allocates what its rule
// does, not what the network holds — ring(4) and ring(16) stay within one
// allocation of each other. Trace points keep the header map they record
// and ring forwarding sets no field, so a warm step allocates only when a
// trace or queue slice grows: under one allocation per step on average
// (copying the header map at each recorded point makes it 2).
func TestStepAllocsIndependentOfNetworkSize(t *testing.T) {
	perStep := func(diameter int) float64 {
		m := busyRing(t, diameter)
		n := testing.AllocsPerRun(1000, func() {
			if !m.Step() {
				t.Fatal("machine went quiescent inside the measurement")
			}
		})
		t.Logf("ring(%d): %d switches, %.2f allocs/step", diameter, len(m.sws), n)
		return n
	}
	small, large := perStep(4), perStep(16)
	if math.Abs(small-large) > 1 {
		t.Errorf("allocs per step: ring(4) %.2f, ring(16) %.2f; want within 1 of each other", small, large)
	}
	if max(small, large) >= 1 {
		t.Errorf("allocs per step: ring(4) %.2f, ring(16) %.2f; want < 1 (a step copied a header map?)", small, large)
	}
}

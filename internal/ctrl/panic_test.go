package ctrl_test

import (
	"fmt"
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// TestCompilePanicStaysOnCaller: a program whose compile panics
// (nkc.checkAtomValue on a constant outside int32) unwinds through Swap on
// the caller's goroutine, so the deferred unlocks run — swapMu and the
// compiler cache's semaphore — and the controller goes on serving the old
// program and accepting swaps.
func TestCompilePanicStaysOnCaller(t *testing.T) {
	fw := apps.Firewall()
	c := ctrl.New(fw.Topo, ctrl.Options{})
	defer c.Close()
	if err := c.Load(fw.Name, fw.Prog); err != nil {
		t.Fatal(err)
	}
	bad := stateful.Program{
		Cmd: stateful.SeqC(
			stateful.CPred{P: stateful.PTest{Field: "dst", Value: 1 << 31}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 1},
		),
		Init: stateful.State{0},
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, err := c.Swap("bad", bad)
		t.Errorf("Swap returned (err %v); the out-of-range constant should have panicked", err)
	}()
	if msg := fmt.Sprint(recovered); !strings.Contains(msg, "outside int32 range") {
		t.Fatalf("recovered %q, want checkAtomValue's panic", msg)
	}
	if st := c.Status(); st.Program != fw.Name || st.Swapping {
		t.Fatalf("status after the panic: program %q, swapping %v; want the old program, idle", st.Program, st.Swapping)
	}
	cap8 := apps.BandwidthCap(8)
	if _, err := c.Swap(cap8.Name, cap8.Prog); err != nil {
		t.Fatalf("swap after the panic: %v", err)
	}
	if st := c.Status(); st.Program != cap8.Name {
		t.Fatalf("status after the valid swap names %q", st.Program)
	}
}

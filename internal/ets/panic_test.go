package ets

import (
	"fmt"
	"strings"
	"testing"

	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// TestCompilePanicStaysOnCaller: a constant outside int32 makes
// nkc.checkAtomValue panic inside Explore. The build is the caller's own
// goroutine, so the caller can recover it; on a pool goroutine the same
// panic killed the process (and, under netd, escaped net/http's recover).
func TestCompilePanicStaysOnCaller(t *testing.T) {
	prog := stateful.Program{
		Cmd: stateful.SeqC(
			stateful.CPred{P: stateful.PTest{Field: "dst", Value: 1 << 31}},
			stateful.CAssign{Field: netkat.FieldPt, Value: 1},
		),
		Init: stateful.State{0},
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, err := Build(prog, topo.Firewall())
		t.Errorf("Build returned (err %v); the out-of-range constant should have panicked", err)
	}()
	if msg := fmt.Sprint(recovered); !strings.Contains(msg, "outside int32 range") {
		t.Fatalf("recovered %q, want checkAtomValue's panic", msg)
	}
}

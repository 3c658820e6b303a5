package dataplane

import (
	"testing"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// TestLowerEventDetection is the table test of the shared field-literal
// lowering on the event side: guards with field equalities and
// exclusions, and "sw"/"pt" literals that are statically true and
// statically false at the event's location. Flat detection — the event is
// live, the packet arrived on the event's port, and the lowered guard
// matches the interned packet — must agree with nes.Event.Matches on
// every packet of a grid (each field absent or 0-2, an inert field or
// not, both ports). Under `go test -cover ./internal/dataplane/`
// lowerConj, flatConj.matches and lowerEvent are 100 % covered, and this
// test alone covers all three; without it lowerEvent is 55.6 % covered
// (no guard the rest of the package compiles tests "sw" or "pt"), and it
// was 43.5 % when events had a lowering of their own.
func TestLowerEventDetection(t *testing.T) {
	at := netkat.Location{Switch: 4, Port: 1}
	eq := func(f string, v int) netkat.Lit { return netkat.Lit{F: f, V: v, Eq: true} }
	neq := func(f string, v int) netkat.Lit { return netkat.Lit{F: f, V: v} }
	cases := []struct {
		name string
		lits []netkat.Lit
		live bool
	}{
		{"true", nil, true},
		{"field eq", []netkat.Lit{eq("a", 1)}, true},
		{"field neq", []netkat.Lit{neq("a", 1)}, true},
		{"field neqs and eq", []netkat.Lit{neq("a", 0), neq("a", 2), eq("b", 1)}, true},
		{"sw= here", []netkat.Lit{eq(netkat.FieldSw, 4), eq("a", 1)}, true},
		{"sw= elsewhere", []netkat.Lit{eq(netkat.FieldSw, 3), eq("a", 1)}, false},
		{"sw!= elsewhere", []netkat.Lit{neq(netkat.FieldSw, 3), neq("a", 0)}, true},
		{"sw!= here", []netkat.Lit{neq(netkat.FieldSw, 4)}, false},
		{"pt= here", []netkat.Lit{eq(netkat.FieldPt, 1), eq("b", 0)}, true},
		{"pt= elsewhere", []netkat.Lit{eq(netkat.FieldPt, 2)}, false},
		{"pt!= elsewhere", []netkat.Lit{neq(netkat.FieldPt, 2), eq("a", 2), neq("b", 2)}, true},
		{"pt!= here", []netkat.Lit{neq(netkat.FieldPt, 1), eq("a", 2)}, false},
		{"sw and pt here", []netkat.Lit{eq(netkat.FieldSw, 4), neq(netkat.FieldPt, 3), neq("b", 1)}, true},
	}
	s := NewSchema([]string{"a", "b"})
	vals := make([]int32, s.Len())
	for _, c := range cases {
		g := netkat.NewConj()
		for _, l := range c.lits {
			if !g.Add(l) {
				t.Fatalf("%s: unsatisfiable guard", c.name)
			}
		}
		ev := nes.Event{ID: 3, Guard: g, Loc: at, Occurrence: 1}
		fe, live := lowerEvent(ev, s)
		if live != c.live {
			t.Fatalf("%s: live %v, want %v", c.name, live, c.live)
		}
		for a := -1; a < 3; a++ {
			for b := -1; b < 3; b++ {
				for inert := 0; inert < 2; inert++ {
					pkt := netkat.Packet{}
					if a >= 0 {
						pkt["a"] = a
					}
					if b >= 0 {
						pkt["b"] = b
					}
					if inert == 1 {
						pkt["z"] = 1
					}
					pres, _, err := s.intern(pkt, vals)
					if err != nil {
						t.Fatal(err)
					}
					for _, port := range []int{1, 2} {
						got := live && fe.port == port && fe.matches(vals, pres)
						want := ev.Matches(netkat.LocatedPacket{Pkt: pkt, Loc: netkat.Location{Switch: at.Switch, Port: port}})
						if got != want {
							t.Fatalf("%s (%v) on %v port %d: flat %v, Event.Matches %v", c.name, g, pkt, port, got, want)
						}
					}
				}
			}
		}
	}
}

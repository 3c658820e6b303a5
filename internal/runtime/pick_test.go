package runtime

import (
	"math/rand"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// scanEnabled is the scheduler's domain as a full slot scan lists it:
// every non-empty slot in table order, then CTRLRECV, then CTRLSEND per
// switch ascending. It is the enumeration the busy set replaced, kept as
// the reference pick is held to.
func scanEnabled(m *Machine) []action {
	var acts []action
	for i := range m.slots {
		if s := &m.slots[i]; s.head < len(s.buf) {
			acts = append(acts, action{s.kind, i})
		}
	}
	if m.CtrlAssist {
		if m.Q != nes.Empty {
			acts = append(acts, action{kind: ruleCtrlRecv})
		}
		if m.R != nes.Empty {
			for i, sw := range m.sws {
				if !m.R.SubsetOf(sw.Events) {
					acts = append(acts, action{ruleCtrlSend, i})
				}
			}
		}
	}
	return acts
}

// TestBusyPickMatchesScan replays random runs, with and without
// controller assistance, on ring(4), ring(16) and the k=4 fat-tree (the
// last two have more than 64 slots, so the busy set spans words). At
// every step the machine counts as many enabled instances as the scan
// lists, and for every draw r it picks the instance the scan lists r-th;
// the step then performs the instance its own draw picks.
func TestBusyPickMatchesScan(t *testing.T) {
	for _, c := range []struct {
		app  apps.App
		wide bool // more than 64 slots
	}{{apps.Ring(4), false}, {apps.Ring(16), true}, {apps.IDSFatTree(4), true}} {
		a, n := c.app, buildNES(t, c.app)
		ctrl := 0 // draws that picked a controller instance
		for seed := int64(0); seed < 6; seed++ {
			m := New(n, a.Topo, seed, seed%2 == 0)
			if wide := len(m.slots) > 64; wide != c.wide {
				t.Fatalf("%s: %d slots", a.Name, len(m.slots))
			}
			r := rand.New(rand.NewSource(seed))
			ins := dataplane.NewLoadGen(n, a.Topo, seed).Injections(40)
			ins = append(ins, dataplane.Injection{Host: "H1", Fields: netkat.Packet{apps.FieldSig: 1}})
			steps := 0
			for len(ins) > 0 || m.actions() > 0 {
				if len(ins) > 0 && (r.Intn(3) == 0 || m.actions() == 0) {
					if err := m.Inject(ins[0].Host, ins[0].Fields); err != nil {
						t.Fatal(err)
					}
					ins = ins[1:]
					continue
				}
				want := scanEnabled(m)
				if got := m.actions(); got != len(want) {
					t.Fatalf("%s seed %d step %d: %d enabled instances counted, the scan lists %d", a.Name, seed, steps, got, len(want))
				}
				for i, w := range want {
					if got := m.pick(i); got != w {
						t.Fatalf("%s seed %d step %d: draw %d picks %+v, the scan's is %+v", a.Name, seed, steps, i, got, w)
					}
					if w.kind >= ruleCtrlRecv {
						ctrl++
					}
				}
				m.Step()
				steps++
			}
		}
		if ctrl == 0 {
			t.Errorf("%s: no controller instance was ever enabled; the assisted runs fired no event", a.Name)
		}
	}
}

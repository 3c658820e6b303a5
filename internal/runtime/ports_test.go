package runtime

import (
	"sync"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

// TestNewSeesTopologyGrowth: machines and load generators start from the
// topology's port table, which is rebuilt when the topology grows. Each
// New and NewLoadGen after a bare switch, a link and a host are added
// sees the growth, and a machine built before keeps its own queues.
func TestNewSeesTopologyGrowth(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	tp := a.Topo
	old := New(n, tp, 1, false)
	slots, sws := len(old.slots), len(old.sws)
	dataplane.NewLoadGen(n, tp, 1)

	tp.AddSwitch(99)
	if m := New(n, tp, 1, false); len(m.sws) != sws+1 || m.switchByID(99) == nil || len(m.slots) != slots {
		t.Fatalf("after AddSwitch: %d switches, %d slots; want %d, %d", len(m.sws), len(m.slots), sws+1, slots)
	}
	if !probesSwitch(n, a, 99, -1) {
		t.Error("after AddSwitch: no probe drew the new switch")
	}

	sw1 := tp.Switches[0]
	tp.AddBiLink(netkat.Location{Switch: 99, Port: 1}, netkat.Location{Switch: sw1, Port: 9})
	m := New(n, tp, 1, false)
	if len(m.slots) != slots+4 {
		t.Fatalf("after AddBiLink: %d slots, want %d", len(m.slots), slots+4)
	}
	out, in := m.slotAt(netkat.Location{Switch: 99, Port: 1}, true), m.slotAt(netkat.Location{Switch: sw1, Port: 9}, false)
	if out < 0 || in < 0 || m.slots[out].kind != ruleLink || m.slots[out].Dst != in {
		t.Fatalf("after AddBiLink: 99:1 out slot %d, %d:9 in slot %d; the first must lead to the second", out, sw1, in)
	}
	if !probesSwitch(n, a, 99, 1) {
		t.Error("after AddBiLink: no probe drew the new switch's linked port")
	}

	tp.AddHost(apps.H(9), "H9", netkat.Location{Switch: 99, Port: 2})
	m = New(n, tp, 1, false)
	if out := m.slotAt(netkat.Location{Switch: 99, Port: 2}, true); out < 0 || m.slots[out].kind != ruleOut || m.slots[out].Host.Name != "H9" {
		t.Fatalf("after AddHost: 99:2 out slot %d does not deliver to H9", out)
	}
	if err := m.Inject("H9", pkt(apps.H(1))); err != nil {
		t.Fatalf("after AddHost: %v", err)
	}
	sent := false
	for _, in := range dataplane.NewLoadGen(n, tp, 1).Injections(200) {
		sent = sent || in.Host == "H9"
	}
	if !sent {
		t.Error("after AddHost: 200 injections never sent from the new host")
	}

	if len(old.slots) != slots || len(old.sws) != sws {
		t.Errorf("the machine built first now has %d slots and %d switches, want %d, %d", len(old.slots), len(old.sws), slots, sws)
	}
	if err := old.Inject("H1", pkt(apps.H(4))); err != nil {
		t.Fatal(err)
	}
	if err := old.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// slotAt returns the slot of the ingress or egress queue at loc, -1 if
// there is none.
func (m *Machine) slotAt(loc netkat.Location, egress bool) int {
	for i, s := range m.slots {
		if s.Loc == loc && s.Egress == egress {
			return i
		}
	}
	return -1
}

// probesSwitch reports whether 400 probes of a fresh generator present a
// packet at switch sw (at port pt, if pt >= 0).
func probesSwitch(n *nes.NES, a apps.App, sw, pt int) bool {
	for _, p := range dataplane.NewLoadGen(n, a.Topo, 1).Probes(400) {
		if p.Switch == sw && (pt < 0 || p.InPort == pt) {
			return true
		}
	}
	return false
}

// TestNewConcurrent: two goroutines build machines on one fresh topology,
// the first lookups included, and run them; each trace is the one a
// machine built alone produces (run under -race).
func TestNewConcurrent(t *testing.T) {
	a := apps.IDS()
	n := buildNES(t, a)
	fresh := apps.IDS().Topo
	ins := dataplane.NewLoadGen(n, a.Topo, 3).Injections(24)
	want := scheduledRun(t, New(n, a.Topo, 3, true), ins)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(n, fresh, 3, true)
			for _, in := range ins {
				if err := m.Inject(in.Host, in.Fields); err != nil {
					t.Error(err)
					return
				}
				m.Step()
			}
			for m.Step() {
			}
			if err := sameTrace(m.NetTrace(), want); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}

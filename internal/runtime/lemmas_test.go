package runtime

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/trace"
)

// These tests demonstrate the impossibility results of Section 2
// (Lemmas 1 and 2): they construct the adversarial NESs from the proof
// sketches and exhibit the dilemma concretely — any bounded-time decision
// at the remote switch can be made wrong by some schedule, which is why
// the locally-determined restriction and the happens-before weakening are
// necessary rather than stylistic.

// lemma1NES builds the Lemma 1 structure: events e1 (at switch A=1) and
// e2 (at switch B=2) each individually enabled, con({e1,e2}) false — a
// non-locally-determined NES.
func lemma1NES(t *testing.T) *nes.NES {
	t.Helper()
	g1 := netkat.NewConj()
	g1.AddEq("a", 1)
	g2 := netkat.NewConj()
	g2.AddEq("a", 2)
	events := []nes.Event{
		{ID: 0, Guard: g1, Loc: netkat.Location{Switch: 1, Port: 1}, Occurrence: 1},
		{ID: 1, Guard: g2, Loc: netkat.Location{Switch: 2, Port: 1}, Occurrence: 1},
	}
	family := map[nes.Set]int{
		nes.Empty:         0,
		nes.Empty.With(0): 1,
		nes.Empty.With(1): 2,
	}
	configs := []nes.Config{{ID: 0, Label: "init"}, {ID: 1, Label: "e1-won"}, {ID: 2, Label: "e2-won"}}
	n, err := nes.New(events, family, configs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLemma1NonLocalNES: the NES is correctly flagged as not locally
// determined, with the conflicting pair and its two switches as evidence,
// and the B-side dilemma is real: when a packet matching e2 arrives at B,
// the local decision differs depending on remote state that B cannot have
// heard about — two executions identical at B diverge.
func TestLemma1NonLocalNES(t *testing.T) {
	n := lemma1NES(t)
	ld, err := n.LocallyDetermined()
	if err != nil {
		t.Fatal(err)
	}
	if ld {
		t.Fatal("cross-switch conflict classified as locally determined")
	}
	nl := n.NonLocal()
	if nl == nil {
		t.Fatal("NonLocal = nil")
	}
	if nl.Set != nes.Empty.With(0).With(1) || len(nl.Events) != 2 ||
		nl.Events[0].Loc != (netkat.Location{Switch: 1, Port: 1}) || nl.Events[1].Loc != (netkat.Location{Switch: 2, Port: 1}) {
		t.Fatalf("evidence: set %v, events %v", nl.Set, nl.Events)
	}

	// Case #2 of the proof sketch: e1 has not occurred; B must fire e2.
	lpB := netkat.LocatedPacket{Pkt: netkat.Packet{"a": 2}, Loc: netkat.Location{Switch: 2, Port: 1}}
	if got := n.NewlyEnabled(nes.Empty, lpB); got != nes.Empty.With(1) {
		t.Fatalf("case 2: B should fire e2, got %v", got)
	}
	// Case #1: e1 occurred at A — with that knowledge B must NOT fire.
	if got := n.NewlyEnabled(nes.Empty.With(0), lpB); got != nes.Empty {
		t.Fatalf("case 1: B must not fire e2 after e1, got %v", got)
	}
	// The two cases are indistinguishable at B without waiting for
	// knowledge of A's state: B's local view is Empty in both. Whatever
	// bounded-time rule B uses, one of the two schedules convicts it.
}

// TestLemma2StrongUpdate: a strong update (immediately after e, ALL
// packets processed in C2) is violated by the Figure 7 implementation on
// the firewall-like two-switch NES — the packet entering at the remote
// switch right after the event is still processed by C1, which
// event-driven consistency permits but strong update forbids. This shows
// strong updates require switch B to either buffer or risk wrongness.
func TestLemma2StrongUpdate(t *testing.T) {
	// Reuse the firewall app through the public pipeline: event at s4,
	// configurations differ at s4 for incoming traffic — and s1 for
	// nothing; take B = s1's view: inject at H1 right after the event.
	a := apps.Firewall()
	n := buildNES(t, a)
	m := New(n, a.Topo, 3, false)

	// Fire the event: H1 -> H4 arrives at s4.
	if err := m.Inject("H1", pkt(apps.H(4))); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if m.SwitchView(4) != nes.Empty.With(0) {
		t.Fatal("event did not fire")
	}

	// Immediately after e occurred, s1 has NOT heard (nothing has flowed
	// back through it yet): its view is still empty, so a packet entering
	// at H1 right now would be stamped with C1's predecessor — violating
	// "immediately after e, the network processes all packets in C2".
	if m.SwitchView(1) != nes.Empty {
		t.Fatalf("s1 heard about the event with no traffic back through it: %v", m.SwitchView(1))
	}
	if got := m.NES.ConfigFor(m.SwitchView(1)); got != 0 {
		t.Fatalf("s1 would stamp config %d; strong update would demand 1", got)
	}

	// Yet the run is perfectly fine under event-driven consistency, and
	// once traffic does flow back (H4 -> H1 crosses s1 carrying the
	// digest), s1 catches up — the happens-before weakening in action.
	if err := m.Inject("H4", pkt(apps.H(1))); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(m.DeliveredTo("H1")) != 1 {
		t.Fatal("post-event incoming packet dropped at the event switch")
	}
	if m.SwitchView(1) != nes.Empty.With(0) {
		t.Fatalf("s1 did not hear via the digest: %v", m.SwitchView(1))
	}
	nt := m.NetTrace()
	if err := trace.CheckNES(nt, n, a.Topo.HostLocs()); err != nil {
		t.Fatalf("event-driven consistency rejected the run: %v", err)
	}
}

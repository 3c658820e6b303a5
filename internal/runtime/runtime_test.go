package runtime

import (
	"math/rand"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/trace"
)

func buildNES(t testing.TB, a apps.App) *nes.NES {
	t.Helper()
	e, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatalf("Build(%s): %v", a.Name, err)
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatalf("ToNES(%s): %v", a.Name, err)
	}
	return n
}

func pkt(dst int) netkat.Packet { return netkat.Packet{apps.FieldDst: dst} }

func checkTrace(t *testing.T, m *Machine, n *nes.NES, a apps.App) {
	t.Helper()
	nt := m.NetTrace()
	hosts := a.Topo.HostLocs()
	if err := nt.Validate(hosts); err != nil {
		t.Fatalf("%s: invalid network trace: %v", a.Name, err)
	}
	if err := trace.CheckNES(nt, n, hosts); err != nil {
		t.Fatalf("%s: trace violates Definition 6: %v", a.Name, err)
	}
}

// TestFirewallBehavior drives the canonical firewall scenario of
// Figure 11(a): H4->H1 blocked, H1->H4 allowed (firing the event), then
// H4->H1 allowed.
func TestFirewallBehavior(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	m := New(n, a.Topo, 1, false)

	// 1. H4 pings H1: dropped.
	if err := m.Inject("H4", pkt(apps.H(1))); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if got := m.DeliveredTo("H1"); len(got) != 0 {
		t.Fatalf("H4->H1 delivered before event: %v", got)
	}

	// 2. H1 pings H4: delivered, event fires at s4.
	if err := m.Inject("H1", pkt(apps.H(4))); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if got := m.DeliveredTo("H4"); len(got) != 1 {
		t.Fatalf("H1->H4 not delivered: %v", got)
	}
	if m.SwitchView(4) != nes.Empty.With(0) {
		t.Fatalf("s4 did not record the event: %v", m.SwitchView(4))
	}

	// 3. H4 pings H1 again: now delivered.
	if err := m.Inject("H4", pkt(apps.H(1))); err != nil {
		t.Fatal(err)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if got := m.DeliveredTo("H1"); len(got) != 1 {
		t.Fatalf("H4->H1 not delivered after event: %v", got)
	}
	checkTrace(t, m, n, a)
}

// TestLearningSwitchBehavior checks Figure 12(a): H4->H1 traffic floods to
// H1 and H2 until H1's reply reaches s4, then goes only to H1.
func TestLearningSwitchBehavior(t *testing.T) {
	a := apps.LearningSwitch()
	n := buildNES(t, a)
	m := New(n, a.Topo, 2, false)

	m.Inject("H4", pkt(apps.H(1)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(m.DeliveredTo("H1")) != 1 || len(m.DeliveredTo("H2")) != 1 {
		t.Fatalf("flood: H1=%d H2=%d", len(m.DeliveredTo("H1")), len(m.DeliveredTo("H2")))
	}

	// H1 replies: the event (dst=H4 at 4:1) fires.
	m.Inject("H1", pkt(apps.H(4)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}

	// Further H4->H1 traffic goes only to H1.
	m.Inject("H4", pkt(apps.H(1)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(m.DeliveredTo("H1")) != 2 {
		t.Fatalf("H1 deliveries after learning: %d", len(m.DeliveredTo("H1")))
	}
	if len(m.DeliveredTo("H2")) != 1 {
		t.Fatalf("H2 still flooded after learning: %d", len(m.DeliveredTo("H2")))
	}
	checkTrace(t, m, n, a)
}

// TestAuthenticationBehavior checks Figure 13(a): H4 can reach H3 only
// after contacting H1 then H2 in order.
func TestAuthenticationBehavior(t *testing.T) {
	a := apps.Authentication()
	n := buildNES(t, a)
	m := New(n, a.Topo, 3, false)
	run := func(host string, dst int) {
		t.Helper()
		m.Inject(host, pkt(dst))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}

	run("H4", apps.H(3)) // blocked
	run("H4", apps.H(2)) // blocked (wrong order)
	if len(m.DeliveredTo("H3")) != 0 || len(m.DeliveredTo("H2")) != 0 {
		t.Fatalf("premature deliveries: H3=%d H2=%d", len(m.DeliveredTo("H3")), len(m.DeliveredTo("H2")))
	}
	run("H4", apps.H(1)) // allowed; event 1 fires at s1
	if len(m.DeliveredTo("H1")) != 1 {
		t.Fatalf("H1 deliveries: %d", len(m.DeliveredTo("H1")))
	}
	run("H1", apps.H(4)) // echo reply carries the digest back to s4
	run("H4", apps.H(3)) // still blocked: only H1 contacted so far
	if len(m.DeliveredTo("H3")) != 0 {
		t.Fatal("H3 reachable after only H1")
	}
	run("H4", apps.H(2)) // allowed; event 2 fires at s2
	if len(m.DeliveredTo("H2")) != 1 {
		t.Fatalf("H2 deliveries: %d", len(m.DeliveredTo("H2")))
	}
	run("H2", apps.H(4)) // echo reply propagates event 2 to s4
	run("H4", apps.H(3)) // now allowed
	if len(m.DeliveredTo("H3")) != 1 {
		t.Fatalf("H3 deliveries after auth: %d", len(m.DeliveredTo("H3")))
	}
	checkTrace(t, m, n, a)
}

// TestBandwidthCapBehavior checks Figure 14(a): with cap n, exactly n
// request/reply exchanges succeed.
func TestBandwidthCapBehavior(t *testing.T) {
	const cap = 4
	a := apps.BandwidthCap(cap)
	n := buildNES(t, a)
	m := New(n, a.Topo, 4, false)

	for i := 0; i < cap+3; i++ {
		// Request from H1, then H4's reply.
		m.Inject("H1", pkt(apps.H(4)))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
		m.Inject("H4", pkt(apps.H(1)))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.DeliveredTo("H4")); got != cap+3 {
		t.Fatalf("outgoing deliveries: %d (cap must not block outgoing)", got)
	}
	if got := len(m.DeliveredTo("H1")); got != cap {
		t.Fatalf("replies delivered: %d, want exactly %d", got, cap)
	}
	checkTrace(t, m, n, a)
}

// TestIDSBehavior checks Figure 15(a): H4 reaches everyone until it scans
// H1 then H2, after which H3 is cut off.
func TestIDSBehavior(t *testing.T) {
	a := apps.IDS()
	n := buildNES(t, a)
	m := New(n, a.Topo, 5, false)
	run := func(dst int) {
		t.Helper()
		m.Inject("H4", pkt(dst))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
	reply := func(host string) {
		t.Helper()
		m.Inject(host, pkt(apps.H(4)))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
	run(apps.H(3)) // allowed initially
	reply("H3")
	if len(m.DeliveredTo("H3")) != 1 {
		t.Fatalf("H3 blocked too early: %d", len(m.DeliveredTo("H3")))
	}
	run(apps.H(1)) // event 1 at s1
	reply("H1")    // digest reaches s4
	run(apps.H(2)) // event 2 at s2 — suspicious scan complete
	reply("H2")    // digest reaches s4
	run(apps.H(3)) // must be blocked now
	if len(m.DeliveredTo("H3")) != 1 {
		t.Fatalf("H3 deliveries after scan: %d, want 1", len(m.DeliveredTo("H3")))
	}
	checkTrace(t, m, n, a)
}

// TestRingBehavior: traffic H1->H2 flows clockwise; after the signal
// packet the configuration flips and traffic still flows (now
// counterclockwise).
func TestRingBehavior(t *testing.T) {
	a := apps.Ring(3)
	n := buildNES(t, a)
	m := New(n, a.Topo, 6, false)

	m.Inject("H1", pkt(apps.H(2)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(m.DeliveredTo("H2")) != 1 {
		t.Fatalf("clockwise delivery failed: %d", len(m.DeliveredTo("H2")))
	}
	// Signal packet fires the event at switch 2.
	m.Inject("H1", netkat.Packet{apps.FieldSig: 1})
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if m.SwitchView(2) != nes.Empty.With(0) {
		t.Fatalf("switch 2 did not record the event: %v", m.SwitchView(2))
	}
	// H1->H2 now requires switch 1 to know about the event; it learns via
	// the reply path (H2->H1 passes switches d+1..2d and 1). Drive traffic
	// until the flip propagates, then confirm delivery continues.
	for i := 0; i < 10; i++ {
		m.Inject("H2", pkt(apps.H(1)))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
	before := len(m.DeliveredTo("H2"))
	m.Inject("H1", pkt(apps.H(2)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(m.DeliveredTo("H2")) != before+1 {
		t.Fatalf("counterclockwise delivery failed: %d -> %d", before, len(m.DeliveredTo("H2")))
	}
	checkTrace(t, m, n, a)
}

// scenario is a randomized injection plan for property testing.
type scenario struct {
	app   apps.App
	sends []struct {
		host string
		pkt  netkat.Packet
	}
}

func randScenario(a apps.App, hosts []string, dsts []int, r *rand.Rand, n int) scenario {
	s := scenario{app: a}
	for i := 0; i < n; i++ {
		s.sends = append(s.sends, struct {
			host string
			pkt  netkat.Packet
		}{hosts[r.Intn(len(hosts))], pkt(dsts[r.Intn(len(dsts))])})
	}
	return s
}

// TestTheorem1RandomSchedules is the empirical validation of Theorem 1:
// across many seeds, injection orders, interleavings, and controller
// assistance settings, every execution of the Figure 7 machine produces a
// network trace that is correct with respect to the NES (Definition 6).
func TestTheorem1RandomSchedules(t *testing.T) {
	cases := []struct {
		app   apps.App
		hosts []string
		dsts  []int
	}{
		{apps.Firewall(), []string{"H1", "H4"}, []int{apps.H(1), apps.H(4)}},
		{apps.LearningSwitch(), []string{"H1", "H2", "H4"}, []int{apps.H(1), apps.H(4)}},
		{apps.Authentication(), []string{"H1", "H2", "H3", "H4"}, []int{apps.H(1), apps.H(2), apps.H(3), apps.H(4)}},
		{apps.BandwidthCap(3), []string{"H1", "H4"}, []int{apps.H(1), apps.H(4)}},
		{apps.IDS(), []string{"H1", "H2", "H3", "H4"}, []int{apps.H(1), apps.H(2), apps.H(3), apps.H(4)}},
		{apps.WalledGarden(), []string{"H1", "H2", "H3", "H4"}, []int{apps.H(1), apps.H(2), apps.H(3), apps.H(4)}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.app.Name, func(t *testing.T) {
			n := buildNES(t, c.app)
			hosts := c.app.Topo.HostLocs()
			for seed := int64(0); seed < 120; seed++ {
				r := rand.New(rand.NewSource(seed))
				sc := randScenario(c.app, c.hosts, c.dsts, r, 2+r.Intn(5))
				m := New(n, c.app.Topo, seed*7+1, seed%2 == 0)
				for _, send := range sc.sends {
					// Interleave scheduling with injections.
					for i := 0; i < r.Intn(8); i++ {
						m.Step()
					}
					if err := m.Inject(send.host, send.pkt); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.RunToQuiescence(); err != nil {
					t.Fatal(err)
				}
				nt := m.NetTrace()
				if err := nt.Validate(hosts); err != nil {
					t.Fatalf("seed %d: invalid trace: %v", seed, err)
				}
				if err := trace.CheckNES(nt, n, hosts); err != nil {
					t.Fatalf("seed %d: Definition 6 violated: %v\ntrace: %v", seed, err, nt.Packets)
				}
			}
		})
	}
}

// TestOracleConvictsEarlyDelivery hand-builds the classic broken trace —
// H4->H1 delivered although no event ever occurred — and checks the
// oracle rejects it (the uncoordinated failure of Figure 11(b)).
func TestOracleConvictsEarlyDelivery(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	h4, _ := a.Topo.HostByName("H4")
	h1, _ := a.Topo.HostByName("H1")
	loc := func(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }
	p := pkt(apps.H(1))
	nt := &trace.NetTrace{}
	nt.Append(netkat.DPacket{Pkt: p, Loc: h4.Loc(), Out: true}, -1)
	nt.Append(netkat.DPacket{Pkt: p, Loc: loc(4, 2)}, 0)
	nt.Append(netkat.DPacket{Pkt: p, Loc: loc(4, 1), Out: true}, 1)
	nt.Append(netkat.DPacket{Pkt: p, Loc: loc(1, 1)}, 2)
	nt.Append(netkat.DPacket{Pkt: p, Loc: loc(1, 2), Out: true}, 3)
	nt.Append(netkat.DPacket{Pkt: p, Loc: h1.Loc()}, 4)
	hosts := a.Topo.HostLocs()
	if err := nt.Validate(hosts); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckNES(nt, n, hosts); err == nil {
		t.Fatal("oracle accepted an H4->H1 delivery with no prior event")
	}
}

// TestOracleConvictsLateDrop builds the other broken behavior: the event
// fires and is delivered to H4, yet a later H4->H1 packet is dropped (the
// "update too late" failure).
func TestOracleConvictsLateDrop(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	h1, _ := a.Topo.HostByName("H1")
	h4, _ := a.Topo.HostByName("H4")
	loc := func(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }
	out := pkt(apps.H(4))
	back := pkt(apps.H(1))
	nt := &trace.NetTrace{}
	// H1 -> H4, firing the event at 4:1 and delivered to H4.
	nt.Append(netkat.DPacket{Pkt: out, Loc: h1.Loc(), Out: true}, -1) // 0
	nt.Append(netkat.DPacket{Pkt: out, Loc: loc(1, 2)}, 0)            // 1
	nt.Append(netkat.DPacket{Pkt: out, Loc: loc(1, 1), Out: true}, 1)
	nt.Append(netkat.DPacket{Pkt: out, Loc: loc(4, 1)}, 2) // 3: the event
	nt.Append(netkat.DPacket{Pkt: out, Loc: loc(4, 2), Out: true}, 3)
	nt.Append(netkat.DPacket{Pkt: out, Loc: h4.Loc()}, 4) // 5: delivered
	// H4 -> H1 afterwards, dropped at s4 ingress.
	nt.Append(netkat.DPacket{Pkt: back, Loc: h4.Loc(), Out: true}, -1) // 6
	nt.Append(netkat.DPacket{Pkt: back, Loc: loc(4, 2)}, 6)            // 7: dropped
	hosts := a.Topo.HostLocs()
	if err := nt.Validate(hosts); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckNES(nt, n, hosts); err == nil {
		t.Fatal("oracle accepted a post-event H4->H1 drop (update too late)")
	}
}

// TestMulticastTraceTree: the learning-switch flood records a branching
// packet tree (one root, two leaves), and the oracle accepts it.
func TestMulticastTraceTree(t *testing.T) {
	a := apps.LearningSwitch()
	n := buildNES(t, a)
	m := New(n, a.Topo, 11, false)
	m.Inject("H4", pkt(apps.H(1)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	nt := m.NetTrace()
	trees := nt.Trees()
	if len(trees) != 2 {
		t.Fatalf("flood should yield 2 root-to-leaf paths, got %d", len(trees))
	}
	if trees[0][0] != trees[1][0] {
		t.Fatalf("branches do not share the root: %v", trees)
	}
	if err := nt.Validate(a.Topo.HostLocs()); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckNES(nt, n, a.Topo.HostLocs()); err != nil {
		t.Fatal(err)
	}
}

// TestControllerAssistConvergence: with CtrlAssist, the controller
// propagates the event to switches that never see tagged traffic.
func TestControllerAssistConvergence(t *testing.T) {
	a := apps.Authentication()
	n := buildNES(t, a)
	m := New(n, a.Topo, 13, true)
	// Fire event 1 at s1 (H4 -> H1).
	m.Inject("H4", pkt(apps.H(1)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	// Quiescence includes controller delivery: every switch must know e0,
	// including s2 and s3, which no tagged packet ever traversed.
	for _, sw := range a.Topo.Switches {
		if m.SwitchView(sw) == nes.Empty {
			t.Errorf("switch %d never heard about the event despite controller assist", sw)
		}
	}
	checkTrace(t, m, n, a)
}

// TestDigestPropagationWithoutController: without assistance, only the
// switches on the packet's path (and the event switch) know the event.
func TestDigestPropagationWithoutController(t *testing.T) {
	a := apps.Authentication()
	n := buildNES(t, a)
	m := New(n, a.Topo, 13, false)
	m.Inject("H4", pkt(apps.H(1)))
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	// The event fires at s1 on arrival; s4 processed the packet BEFORE
	// the event, so only s1 knows.
	if m.SwitchView(1) == nes.Empty {
		t.Error("s1 (event switch) does not know its own event")
	}
	for _, sw := range []int{2, 3, 4} {
		if m.SwitchView(sw) != nes.Empty {
			t.Errorf("switch %d heard about the event with no causal path", sw)
		}
	}
}

// TestDistributedFirewallConcurrentEvents: both events can fire in either
// order across different runs; every interleaving satisfies Definition 6
// (the diamond of Figure 3(a) executing for real).
func TestDistributedFirewallConcurrentEvents(t *testing.T) {
	a := apps.DistributedFirewall()
	n := buildNES(t, a)
	hosts := a.Topo.HostLocs()
	sawOrder := map[string]bool{}
	for seed := int64(0); seed < 160; seed++ {
		m := New(n, a.Topo, seed, false)
		// Inject both opening packets concurrently, then the returns.
		m.Inject("H1", netkat.Packet{apps.FieldDst: apps.H(4), apps.FieldSrc: apps.H(1)})
		m.Inject("H2", netkat.Packet{apps.FieldDst: apps.H(4), apps.FieldSrc: apps.H(2)})
		for i := 0; i < int(seed%7); i++ {
			m.Step()
		}
		m.Inject("H4", netkat.Packet{apps.FieldDst: apps.H(1)})
		m.Inject("H4", netkat.Packet{apps.FieldDst: apps.H(2)})
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
		nt := m.NetTrace()
		if err := nt.Validate(hosts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := trace.CheckNES(nt, n, hosts); err != nil {
			t.Fatalf("seed %d: Definition 6 violated: %v", seed, err)
		}
		// Record which event s4 learned first (its view grows 0 -> 1 -> 2
		// events; the packet order decides).
		sawOrder[m.SwitchView(4).String()] = true
	}
	if len(sawOrder) == 0 {
		t.Fatal("no runs recorded")
	}
}

// TestWalledGardenBehavior: guest blocked from H2 until portal contact.
func TestWalledGardenBehavior(t *testing.T) {
	a := apps.WalledGarden()
	n := buildNES(t, a)
	m := New(n, a.Topo, 21, false)
	send := func(host string, dst int) {
		t.Helper()
		m.Inject(host, pkt(dst))
		if err := m.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	}
	send("H4", apps.H(2))
	if len(m.DeliveredTo("H2")) != 0 {
		t.Fatal("wall breached before portal contact")
	}
	send("H4", apps.H(1)) // portal contact: event at s1
	send("H1", apps.H(4)) // portal reply carries the digest back to s4
	send("H4", apps.H(2))
	if len(m.DeliveredTo("H2")) != 1 {
		t.Fatalf("H2 deliveries after portal contact: %d", len(m.DeliveredTo("H2")))
	}
	checkTrace(t, m, n, a)
}

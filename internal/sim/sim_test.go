package sim

import (
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

// TestEngineBasics: a single packet crosses the firewall topology with
// plausible timing (two switch hops, three links).
func TestEngineBasics(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	s := New(a.Topo, NewTaggedPlane(n), DefaultParams(), 1)
	s.At(0, func() {
		s.Send("H1", netkat.Packet{FieldDst: apps.H(4), FieldSrc: apps.H(1)})
	})
	s.Run(1)
	got := s.DeliveredTo("H4")
	if len(got) != 1 {
		t.Fatalf("deliveries: %d", len(got))
	}
	// 3 links x (latency + serialization) + 2 switch hops.
	tx := float64(s.wireBytes()) / s.Params.LinkBandwidth
	min := 3 * s.Params.LinkLatency
	max := 3*(s.Params.LinkLatency+tx) + 2*s.Params.SwitchProcTime*s.Plane.ProcFactor() + 1e-9
	if at := got[0].Time; at < min || at > max {
		t.Fatalf("delivery at %v, want in [%v, %v]", at, min, max)
	}
}

// TestFirewallTaggedCorrect reproduces Figure 11(a): H4->H1 fails before
// the event, H1->H4 succeeds and fires the event, H4->H1 succeeds after.
func TestFirewallTaggedCorrect(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	s := New(a.Topo, NewTaggedPlane(n), DefaultParams(), 1)
	EnableEcho(s, "H1")
	EnableEcho(s, "H4")

	early := StartPings(s, "H4", "H1", 0.0, 0.1, 5, 1000) // before event
	out := StartPings(s, "H1", "H4", 1.0, 0.1, 5, 2000)   // fires event
	late := StartPings(s, "H4", "H1", 2.0, 0.1, 5, 3000)  // after event
	s.Run(5)

	if got := early.Succeeded(); got != 0 {
		t.Errorf("pre-event H4->H1 pings succeeded: %d", got)
	}
	if got := out.Succeeded(); got != 5 {
		t.Errorf("H1->H4 pings succeeded: %d/5 (replies must not be dropped by the correct plane)", got)
	}
	if got := late.Succeeded(); got != 5 {
		t.Errorf("post-event H4->H1 pings succeeded: %d/5", got)
	}
}

// TestFirewallUncoordinatedDrops reproduces Figure 11(b)/Figure 10: the
// uncoordinated baseline drops at least one reply even with zero install
// delay, and more as the delay grows.
func TestFirewallUncoordinatedDrops(t *testing.T) {
	drops := func(installDelay float64) int {
		a := apps.Firewall()
		n := buildNES(t, a)
		p := DefaultParams()
		p.InstallDelay = installDelay
		s := New(a.Topo, NewUncoordPlane(n), p, 1)
		EnableEcho(s, "H4")
		out := StartPings(s, "H1", "H4", 1.0, 0.1, 20, 0)
		s.Run(10)
		return out.Dropped()
	}
	d0 := drops(0)
	if d0 < 1 {
		t.Errorf("uncoordinated with 0ms delay dropped %d pings, want >= 1", d0)
	}
	d1 := drops(1.0)
	if d1 <= d0 {
		t.Errorf("drops did not grow with delay: %d (0s) vs %d (1s)", d0, d1)
	}
}

// TestLearningSwitchFloodStops: packets to H1 are flooded to H2 only
// until H1's reply reaches s4 (Figure 12).
func TestLearningSwitchFloodStops(t *testing.T) {
	a := apps.LearningSwitch()
	n := buildNES(t, a)
	s := New(a.Topo, NewTaggedPlane(n), DefaultParams(), 1)
	EnableEcho(s, "H1")
	StartPings(s, "H4", "H1", 0, 0.2, 10, 0)
	s.Run(5)
	h2 := len(s.DeliveredTo("H2"))
	if h2 == 0 {
		t.Error("no flooding at all (first packet should reach H2)")
	}
	if h2 > 2 {
		t.Errorf("flooding continued after learning: %d packets at H2", h2)
	}
	if got := len(s.DeliveredTo("H1")); got != 10 {
		t.Errorf("H1 received %d/10", got)
	}
}

// TestLearningSwitchUncoordFloodsLonger: the baseline keeps flooding
// until the controller installs the new configuration.
func TestLearningSwitchUncoordFloodsLonger(t *testing.T) {
	a := apps.LearningSwitch()
	n := buildNES(t, a)
	p := DefaultParams()
	p.InstallDelay = 1.0
	s := New(a.Topo, NewUncoordPlane(n), p, 1)
	EnableEcho(s, "H1")
	StartPings(s, "H4", "H1", 0, 0.2, 10, 0)
	s.Run(5)
	if h2 := len(s.DeliveredTo("H2")); h2 <= 2 {
		t.Errorf("uncoordinated flood stopped too early: %d packets at H2", h2)
	}
}

// TestBandwidthCapExact: the tagged plane lets exactly n exchanges
// through (Figure 14a) while the uncoordinated baseline overshoots
// (Figure 14b).
func TestBandwidthCapExact(t *testing.T) {
	const capN = 10
	a := apps.BandwidthCap(capN)
	n := buildNES(t, a)

	s := New(a.Topo, NewTaggedPlane(n), DefaultParams(), 1)
	EnableEcho(s, "H4")
	st := StartPings(s, "H1", "H4", 0, 0.2, capN+8, 0)
	s.Run(10)
	if got := st.Succeeded(); got != capN {
		t.Errorf("tagged: %d pings succeeded, want exactly %d", got, capN)
	}

	p := DefaultParams()
	p.InstallDelay = 1.0
	su := New(a.Topo, NewUncoordPlane(n), p, 1)
	EnableEcho(su, "H4")
	stu := StartPings(su, "H1", "H4", 0, 0.2, capN+8, 0)
	su.Run(10)
	if got := stu.Succeeded(); got <= capN {
		t.Errorf("uncoordinated: %d pings succeeded, want > %d (cap exceeded)", got, capN)
	}
}

// TestRingBandwidthOverhead: tagged goodput is within a few percent of
// the untagged reference on the ring (Figure 16a).
func TestRingBandwidthOverhead(t *testing.T) {
	a := apps.Ring(4)
	n := buildNES(t, a)

	run := func(plane Plane) float64 {
		p := DefaultParams()
		// Software switches are CPU-bound: per-packet processing is the
		// bottleneck (as in the paper's modified OpenFlow reference
		// switch), so the tag/register work shows up as goodput loss.
		p.SwitchProcTime = 120e-6
		s := New(a.Topo, plane, p, 1)
		rate := 1.05 / p.SwitchProcTime // saturate the bottleneck switch
		b := StartBulk(s, "H1", "H2", 0.1, 2.0, rate, 0)
		s.Run(3)
		return b.Goodput()
	}
	tagged := run(NewTaggedPlane(n))
	ref := NewTaggedPlane(n)
	ref.TagBytes = 0
	ref.ExtraProc = 0
	plain := run(ref)
	if tagged <= 0 || plain <= 0 {
		t.Fatalf("no goodput: tagged=%v plain=%v", tagged, plain)
	}
	overhead := 100 * (plain - tagged) / plain
	if overhead <= 0 || overhead > 10 {
		t.Errorf("tagged overhead %.1f%%, want within (0, 10]%%", overhead)
	}
	t.Logf("goodput: plain=%.2f MB/s tagged=%.2f MB/s overhead=%.1f%%", plain/1e6, tagged/1e6, overhead)
}

// TestRingConvergence: event discovery time grows with gossip distance
// and shrinks with controller assist (Figure 16b).
func TestRingConvergence(t *testing.T) {
	discover := func(diameter int, assist bool) (max float64, all bool) {
		a := apps.Ring(diameter)
		n := buildNES(t, a)
		p := DefaultParams()
		p.CtrlAssist = assist
		plane := NewTaggedPlane(n)
		s := New(a.Topo, plane, p, 1)
		EnableEcho(s, "H2")
		// Background traffic in both directions carries digests.
		StartPings(s, "H1", "H2", 0, 0.05, 200, 0)
		// Signal at t=1.
		s.At(1.0, func() { s.Send("H1", netkat.Packet{apps.FieldSig: 1, FieldSrc: apps.H(1)}) })
		s.Run(12)
		max = 0
		all = true
		for _, sw := range a.Topo.Switches {
			at, ok := plane.DiscoveryTime(sw, 0)
			if !ok {
				all = false
				continue
			}
			if d := at - 1.0; d > max {
				max = d
			}
		}
		return max, all
	}
	gossipSmall, okS := discover(2, false)
	gossipLarge, okL := discover(6, false)
	assisted, okA := discover(6, true)
	if !okS || !okL || !okA {
		t.Fatalf("not all switches discovered the event: %v %v %v", okS, okL, okA)
	}
	if gossipLarge <= gossipSmall {
		t.Errorf("discovery time did not grow with diameter: %v (d=2) vs %v (d=6)", gossipSmall, gossipLarge)
	}
	if assisted >= gossipLarge {
		t.Errorf("controller assist did not help: %v vs %v", assisted, gossipLarge)
	}
	t.Logf("max discovery: d=2 gossip %.3fs, d=6 gossip %.3fs, d=6 assisted %.3fs", gossipSmall, gossipLarge, assisted)
}

// TestBacklogDrops: a sender far above capacity overflows the bounded
// queues and the drop counter records it.
func TestBacklogDrops(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	p := DefaultParams()
	p.SwitchProcTime = 200e-6
	s := New(a.Topo, NewTaggedPlane(n), p, 1)
	b := StartBulk(s, "H1", "H4", 0, 1.0, 3/p.SwitchProcTime, 0)
	s.Run(3)
	if s.Dropped == 0 {
		t.Fatal("3x overload produced no drops")
	}
	if b.LossPct() <= 0 {
		t.Fatalf("loss: %.2f%%", b.LossPct())
	}
	if b.PacketsRecv+s.Dropped != b.PacketsSent {
		t.Fatalf("accounting: sent %d, recv %d, dropped %d", b.PacketsSent, b.PacketsRecv, s.Dropped)
	}
}

// TestUncoordInstallTime: the baseline installs the post-event
// configuration only after the controller latency and the install delay.
// The first ping leaves H1 at 0.1s, so no switch may have it installed
// just before 0.1s + CtrlLatency + InstallDelay.
func TestUncoordInstallTime(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	p := DefaultParams()
	p.InstallDelay = 0.5
	p.InstallJitter = 0
	pl := NewUncoordPlane(n)
	s := New(a.Topo, pl, p, 1)
	EnableEcho(s, "H4")
	StartPings(s, "H1", "H4", 0.1, 0.2, 3, 0)
	s.At(0.1+p.CtrlLatency+p.InstallDelay-1e-3, func() {
		for _, sw := range []int{1, 4} {
			if pl.Installed(sw) != 0 {
				t.Errorf("switch %d installed the new configuration before the install delay passed", sw)
			}
		}
	})
	s.Run(5)
	for _, sw := range []int{1, 4} {
		if pl.Installed(sw) == 0 {
			t.Errorf("switch %d never received the new configuration", sw)
		}
	}
}

// TestRunHorizon: Run stops at the horizon and resumes correctly.
func TestRunHorizon(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	s := New(a.Topo, NewTaggedPlane(n), DefaultParams(), 1)
	fired := []float64{}
	s.At(1.0, func() { fired = append(fired, s.Now()) })
	s.At(2.0, func() { fired = append(fired, s.Now()) })
	s.Run(1.5)
	if len(fired) != 1 || s.Now() != 1.5 {
		t.Fatalf("after first horizon: fired=%v now=%v", fired, s.Now())
	}
	s.Run(3)
	if len(fired) != 2 || fired[1] != 2.0 {
		t.Fatalf("after second horizon: fired=%v", fired)
	}
	// A horizon already behind the clock runs nothing and leaves the
	// clock where it is.
	s.At(4.0, func() { fired = append(fired, s.Now()) })
	s.Run(1)
	if len(fired) != 2 || s.Now() != 3 {
		t.Fatalf("after an earlier horizon: fired=%v now=%v, want 2 fired and now 3", fired, s.Now())
	}
	s.Run(5)
	if len(fired) != 3 || fired[2] != 4.0 || s.Now() != 5 {
		t.Fatalf("after resuming: fired=%v now=%v", fired, s.Now())
	}
}

// TestOracleEndToEnd is the headline closing-the-loop test: the *timed*
// simulator records network traces, and the Definition 6 oracle accepts
// every tagged-plane execution while convicting the uncoordinated
// baseline on the same workload — the paper's central claim, measured on
// an actual execution rather than a hand-built trace.
func TestOracleEndToEnd(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	hosts := a.Topo.HostLocs()

	run := func(kind PlaneKind) *Sim {
		p := DefaultParams()
		p.InstallDelay = 2.0
		s := New(a.Topo, NewPlane(kind, n), p, 1)
		s.Record = true
		EnableEcho(s, "H4")
		StartPings(s, "H1", "H4", 0.5, 0.3, 4, 0)
		s.Run(10)
		return s
	}

	tagged := run(PlaneKindTagged)
	nt := tagged.NetTrace()
	if err := nt.Validate(hosts); err != nil {
		t.Fatalf("tagged trace invalid: %v", err)
	}
	if err := trace.CheckNES(nt, n, hosts); err != nil {
		t.Fatalf("tagged execution violates Definition 6: %v", err)
	}

	uncoord := run(PlaneKindUncoord)
	ntU := uncoord.NetTrace()
	if err := ntU.Validate(hosts); err != nil {
		t.Fatalf("uncoordinated trace invalid: %v", err)
	}
	if err := trace.CheckNES(ntU, n, hosts); err == nil {
		t.Fatal("uncoordinated execution passed the Definition 6 oracle")
	} else {
		t.Logf("uncoordinated convicted: %v", err)
	}
}

// TestOracleEndToEndAllApps: tagged-plane executions of every application
// under the ping workloads satisfy Definition 6.
func TestOracleEndToEndAllApps(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			n := buildNES(t, a)
			p := DefaultParams()
			s := New(a.Topo, NewTaggedPlane(n), p, 1)
			s.Record = true
			for _, h := range a.Topo.Hosts {
				EnableEcho(s, h.Name)
			}
			// Ping each host pair that exists in the app's topology.
			id := 0
			for _, src := range a.Topo.Hosts {
				for _, dst := range a.Topo.Hosts {
					if src.Name == dst.Name {
						continue
					}
					StartPings(s, src.Name, dst.Name, 0.2*float64(id), 0.35, 2, 1000*id)
					id++
				}
			}
			s.Run(20)
			nt := s.NetTrace()
			hosts := a.Topo.HostLocs()
			if err := nt.Validate(hosts); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if err := trace.CheckNES(nt, n, hosts); err != nil {
				t.Fatalf("Definition 6 violated: %v", err)
			}
		})
	}
}

// View returns a switch's current event view.
func (p *TaggedPlane) View(sw int) nes.Set { return p.views[sw] }

// Installed returns the switch's current configuration index.
func (p *UncoordPlane) Installed(sw int) int { return p.installed[sw] }

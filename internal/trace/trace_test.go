package trace

import (
	"testing"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
)

func loc(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }

func dp(fields netkat.Packet, l netkat.Location, out bool) netkat.DPacket {
	return netkat.DPacket{Pkt: fields, Loc: l, Out: out}
}

// tableConfig is a hand-written DConfig for oracle tests: a map from
// directed points to successors.
type tableConfig map[string][]netkat.DPacket

func (c tableConfig) DStep(d netkat.DPacket) []netkat.DPacket { return c[d.Key()] }

func (c tableConfig) Succ(d, next netkat.DPacket) bool {
	for _, n := range c[d.Key()] {
		if n.Equal(next) {
			return true
		}
	}
	return false
}

func (c tableConfig) add(from netkat.DPacket, to ...netkat.DPacket) { c[from.Key()] = to }

func TestValidate(t *testing.T) {
	hosts := map[netkat.Location]bool{loc(101, 0): true}
	p := netkat.Packet{"dst": 1}
	nt := &NetTrace{}
	nt.Append(dp(p, loc(101, 0), true), -1)
	nt.Append(dp(p, loc(1, 2), false), 0)
	if err := nt.Validate(hosts); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	// Non-host root.
	nt2 := &NetTrace{}
	nt2.Append(dp(p, loc(1, 2), false), -1)
	if err := nt2.Validate(hosts); err == nil {
		t.Error("non-host root accepted")
	}
	// A parent that does not precede its child: itself, a later point,
	// or no point at all.
	for _, parent := range []int{1, 2, -2} {
		nt3 := &NetTrace{}
		nt3.Append(dp(p, loc(101, 0), true), -1)
		nt3.Append(dp(p, loc(1, 2), false), parent)
		nt3.Append(dp(p, loc(1, 1), true), 1)
		if err := nt3.Validate(hosts); err == nil {
			t.Errorf("parent %d of point 1 accepted", parent)
		}
	}
	// A point without a parent entry.
	nt4 := &NetTrace{Packets: []netkat.DPacket{dp(p, loc(101, 0), true), dp(p, loc(1, 2), false)}, Parent: []int{-1}}
	if err := nt4.Validate(hosts); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestHappensBefore checks both generators and transitivity on a trace
// shaped like the paper's Figure 2 discussion.
func TestHappensBefore(t *testing.T) {
	p := netkat.Packet{"dst": 1}
	q := netkat.Packet{"dst": 2}
	nt := &NetTrace{}
	// Packet p: host -> s4 -> s1; packet q: host2 -> s1 later.
	i0 := nt.Append(dp(p, loc(101, 0), true), -1) // 0
	i1 := nt.Append(dp(p, loc(4, 1), false), i0)  // 1 at s4
	i2 := nt.Append(dp(p, loc(1, 1), false), i1)  // 2 at s1
	i3 := nt.Append(dp(q, loc(102, 0), true), -1) // 3
	i4 := nt.Append(dp(q, loc(1, 2), false), i3)  // 4 at s1 (after 2)
	hb := HappensBefore(nt)

	if !hb.Before(i0, i2) {
		t.Error("packet-trace order not transitive")
	}
	if !hb.Before(i2, i4) {
		t.Error("same-switch order missing (both at s1)")
	}
	if !hb.Before(i1, i4) {
		t.Error("transitivity through s1 missing")
	}
	if hb.Before(i4, i1) {
		t.Error("happens-before not antisymmetric")
	}
	if hb.Before(i3, i1) {
		t.Error("unrelated events ordered")
	}
	if hb.Before(i1, i1) {
		t.Error("happens-before not irreflexive")
	}
}

func TestInTraces(t *testing.T) {
	hosts := map[netkat.Location]bool{loc(101, 0): true, loc(104, 0): true}
	p := netkat.Packet{"dst": 104}
	h1 := dp(p, loc(101, 0), true)
	in1 := dp(p, loc(1, 2), false)
	out1 := dp(p, loc(1, 1), true)
	in4 := dp(p, loc(4, 1), false)
	out4 := dp(p, loc(4, 2), true)
	h4 := dp(p, loc(104, 0), false)

	fwd := tableConfig{}
	fwd.add(h1, in1)
	fwd.add(in1, out1)
	fwd.add(out1, in4)
	fwd.add(in4, out4)
	fwd.add(out4, h4)

	full := []netkat.DPacket{h1, in1, out1, in4, out4, h4}
	if !InTraces(fwd, full, hosts) {
		t.Error("complete delivery rejected")
	}
	// A proper prefix is not complete (the packet has a successor).
	if InTraces(fwd, full[:4], hosts) {
		t.Error("incomplete prefix accepted")
	}
	// A drop under a config with no successor is complete.
	drop := tableConfig{}
	drop.add(h1, in1)
	if !InTraces(drop, []netkat.DPacket{h1, in1}, hosts) {
		t.Error("dropped-packet trace rejected")
	}
	// Traces must start at a host emission.
	if InTraces(fwd, full[1:], hosts) {
		t.Error("non-host start accepted")
	}
	// A wrong intermediate step fails.
	bad := []netkat.DPacket{h1, in1, in4}
	if InTraces(fwd, bad, hosts) {
		t.Error("skipping step accepted")
	}
}

// firewallish builds a two-config update: C0 drops dst=101 at s4, C1
// forwards it; both forward dst=104 from s1 to s4.
func firewallish() (Update, []nes.Event, map[netkat.Location]bool) {
	hosts := map[netkat.Location]bool{loc(101, 0): true, loc(104, 0): true}
	out := netkat.Packet{"dst": 104}
	back := netkat.Packet{"dst": 101}
	mk := func(withBack bool) tableConfig {
		c := tableConfig{}
		c.add(dp(out, loc(101, 0), true), dp(out, loc(1, 2), false))
		c.add(dp(out, loc(1, 2), false), dp(out, loc(1, 1), true))
		c.add(dp(out, loc(1, 1), true), dp(out, loc(4, 1), false))
		c.add(dp(out, loc(4, 1), false), dp(out, loc(4, 2), true))
		c.add(dp(out, loc(4, 2), true), dp(out, loc(104, 0), false))
		c.add(dp(back, loc(104, 0), true), dp(back, loc(4, 2), false))
		if withBack {
			c.add(dp(back, loc(4, 2), false), dp(back, loc(4, 1), true))
			c.add(dp(back, loc(4, 1), true), dp(back, loc(1, 1), false))
			c.add(dp(back, loc(1, 1), false), dp(back, loc(1, 2), true))
			c.add(dp(back, loc(1, 2), true), dp(back, loc(101, 0), false))
		}
		return c
	}
	g := netkat.NewConj()
	g.AddEq("dst", 104)
	ev := nes.Event{ID: 0, Guard: g, Loc: loc(4, 1), Occurrence: 1}
	return Update{Configs: []netkat.DConfig{mk(false), mk(true)}, Events: []nes.Event{ev}}, []nes.Event{ev}, hosts
}

// TestCheckUpdateAccepts: the canonical correct firewall trace.
func TestCheckUpdateAccepts(t *testing.T) {
	u, _, hosts := firewallish()
	out := netkat.Packet{"dst": 104}
	back := netkat.Packet{"dst": 101}
	nt := &NetTrace{}
	nt.Append(dp(out, loc(101, 0), true), -1)  // 0
	nt.Append(dp(out, loc(1, 2), false), 0)    // 1
	nt.Append(dp(out, loc(1, 1), true), 1)     // 2
	nt.Append(dp(out, loc(4, 1), false), 2)    // 3 = k0
	nt.Append(dp(out, loc(4, 2), true), 3)     // 4
	nt.Append(dp(out, loc(104, 0), false), 4)  // 5
	nt.Append(dp(back, loc(104, 0), true), -1) // 6 (after hearing)
	nt.Append(dp(back, loc(4, 2), false), 6)   // 7
	nt.Append(dp(back, loc(4, 1), true), 7)    // 8
	nt.Append(dp(back, loc(1, 1), false), 8)   // 9
	nt.Append(dp(back, loc(1, 2), true), 9)    // 10
	nt.Append(dp(back, loc(101, 0), false), 10)
	if err := CheckUpdate(nt, u, nil, hosts); err != nil {
		t.Fatalf("correct trace rejected: %v", err)
	}
}

// TestCheckUpdateTooLate: after the event is heard at H4, dropping the
// reply violates the "not too late" clause.
func TestCheckUpdateTooLate(t *testing.T) {
	u, _, hosts := firewallish()
	out := netkat.Packet{"dst": 104}
	back := netkat.Packet{"dst": 101}
	nt := &NetTrace{}
	nt.Append(dp(out, loc(101, 0), true), -1)
	nt.Append(dp(out, loc(1, 2), false), 0)
	nt.Append(dp(out, loc(1, 1), true), 1)
	nt.Append(dp(out, loc(4, 1), false), 2) // k0
	nt.Append(dp(out, loc(4, 2), true), 3)
	nt.Append(dp(out, loc(104, 0), false), 4)
	nt.Append(dp(back, loc(104, 0), true), -1) // 6
	nt.Append(dp(back, loc(4, 2), false), 6)   // 7: dropped here (C0 behavior)
	err := CheckUpdate(nt, u, nil, hosts)
	if err == nil {
		t.Fatal("too-late drop accepted")
	}
	v, ok := err.(*Violation)
	if !ok || v.Tree != 1 {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCheckUpdateFlexibleWindow: a reply sent concurrently with the event
// (H4 has not heard) may be dropped — the definition's flexibility.
func TestCheckUpdateFlexibleWindow(t *testing.T) {
	u, _, hosts := firewallish()
	out := netkat.Packet{"dst": 104}
	back := netkat.Packet{"dst": 101}
	nt := &NetTrace{}
	nt.Append(dp(back, loc(104, 0), true), -1) // 0: H4 sends before hearing
	nt.Append(dp(out, loc(101, 0), true), -1)  // 1
	nt.Append(dp(out, loc(1, 2), false), 1)
	nt.Append(dp(out, loc(1, 1), true), 2)
	nt.Append(dp(out, loc(4, 1), false), 3) // 4 = k0
	nt.Append(dp(out, loc(4, 2), true), 4)
	nt.Append(dp(out, loc(104, 0), false), 5)
	nt.Append(dp(back, loc(4, 2), false), 0) // 7: drop is allowed (not wholly after)
	if err := CheckUpdate(nt, u, nil, hosts); err != nil {
		t.Fatalf("concurrent drop rejected: %v", err)
	}
}

// TestFirstOccurrencesPendingRejects: a pending (enabled, unconsumed)
// event occurring after kn invalidates FO.
func TestFirstOccurrencesPendingRejects(t *testing.T) {
	u, evs, hosts := firewallish()
	out := netkat.Packet{"dst": 104}
	nt := &NetTrace{}
	nt.Append(dp(out, loc(101, 0), true), -1)
	nt.Append(dp(out, loc(1, 2), false), 0)
	nt.Append(dp(out, loc(1, 1), true), 1)
	nt.Append(dp(out, loc(4, 1), false), 2) // matches the event
	nt.Append(dp(out, loc(4, 2), true), 3)
	nt.Append(dp(out, loc(104, 0), false), 4)
	// Empty update, the event pending: must fail.
	empty := Update{Configs: u.Configs[:1]}
	if _, ok := FirstOccurrences(nt, empty, evs, hosts); ok {
		t.Error("pending event after kn accepted")
	}
	// Full update consuming the event: must succeed.
	if _, ok := FirstOccurrences(nt, u, nil, hosts); !ok {
		t.Error("consumed event rejected")
	}
}

// TestCheckNESEventNeedsPrecedingConfig: an event's first occurrence
// counts only if a packet tree through it was processed by the
// configuration before the event. C0 drops dst=104 where the event
// matches it, C1 delivers it: the drop is a correct trace, but the same
// packet delivered has no first occurrence under any allowed sequence,
// although C1 processes every one of its trees.
func TestCheckNESEventNeedsPrecedingConfig(t *testing.T) {
	hosts := map[netkat.Location]bool{loc(101, 0): true, loc(104, 0): true}
	out := netkat.Packet{"dst": 104}
	path := []netkat.DPacket{
		dp(out, loc(101, 0), true),
		dp(out, loc(1, 2), false),
		dp(out, loc(1, 1), true),
		dp(out, loc(4, 1), false), // the event
		dp(out, loc(4, 2), true),
		dp(out, loc(104, 0), false),
	}
	mk := func(hops int) tableConfig {
		c := tableConfig{}
		for i := 0; i < hops; i++ {
			c.add(path[i], path[i+1])
		}
		return c
	}
	g := netkat.NewConj()
	g.AddEq("dst", 104)
	n, err := nes.New(
		[]nes.Event{{ID: 0, Guard: g, Loc: loc(4, 1), Occurrence: 1}},
		map[nes.Set]int{nes.Empty: 0, nes.Empty.With(0): 1},
		[]nes.Config{{ID: 0, Rel: mk(3)}, {ID: 1, Rel: mk(5)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	run := func(points int) *NetTrace {
		nt := &NetTrace{}
		for i, d := range path[:points] {
			nt.Append(d, i-1)
		}
		return nt
	}
	if err := CheckNES(run(4), n, hosts); err != nil {
		t.Errorf("C0's drop at the event rejected: %v", err)
	}
	if err := CheckNES(run(6), n, hosts); err == nil {
		t.Error("an event triggered only under C1 accepted")
	}
	// A malformed trace is Validate's to reject, before anything reads
	// its packet traces.
	bad := run(4)
	bad.Parent[1] = 7
	if err := CheckNES(bad, n, hosts); err == nil {
		t.Error("a parent past the trace's end accepted")
	}
}

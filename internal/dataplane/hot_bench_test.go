package dataplane

import (
	"testing"

	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/topo"
)

// loopEngine builds an engine over a hand-made program whose rules
// forward a packet around a 4-switch cycle forever (the hop TTL
// eventually discards it). The workload isolates the steady-state hop
// loop: no deliveries (so no egress conversions), one event that fires
// on the first lap and stays known, a rewriting action group on every
// hop (an in-place flat write). After one warm-up journey the engine's
// rings, outboxes, free lists and digest strings are all steady, and a
// generation executes exactly one switch-hop with zero allocations —
// the property BenchmarkEngineHopLoop measures and
// TestEngineHopLoopZeroAlloc pins.
func loopEngine(tb testing.TB) (*Engine, netkat.Packet) {
	return loopEngineOpts(tb, Options{Workers: 1})
}

// loopEngineOpts is loopEngine with caller-chosen engine options — the
// observability alloc guard attaches metrics and tracing to the same
// workload.
func loopEngineOpts(tb testing.TB, opts Options) (*Engine, netkat.Packet) {
	tb.Helper()
	t := topo.New()
	loc := func(sw, pt int) netkat.Location { return netkat.Location{Switch: sw, Port: pt} }
	for sw := 1; sw <= 4; sw++ {
		t.AddSwitch(sw)
	}
	t.AddBiLink(loc(1, 2), loc(2, 1))
	t.AddBiLink(loc(2, 2), loc(3, 1))
	t.AddBiLink(loc(3, 2), loc(4, 1))
	t.AddBiLink(loc(4, 2), loc(1, 1))
	t.AddHost(topo.HostID(1), "H1", loc(1, 3))

	guard := netkat.NewConj()
	guard.AddEq("dst", 99)
	tables := flowtable.Tables{}
	for sw := 1; sw <= 4; sw++ {
		tables.Get(sw).AddAll([]flowtable.Rule{{
			Priority: 1,
			Match:    flowtable.Match{Cond: guard},
			Groups:   []flowtable.ActionGroup{{Sets: map[string]int{"hop": sw}, OutPort: 2}},
		}})
	}
	n, err := nes.New(
		[]nes.Event{{ID: 0, Guard: guard, Loc: loc(1, 1), Occurrence: 1}},
		map[nes.Set]int{nes.Empty: 0, nes.Empty.With(0): 0},
		[]nes.Config{{ID: 0, Label: "loop", Tables: tables}},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(n, t, opts), netkat.Packet{"dst": 99}
}

// BenchmarkEngineHopLoop measures the engine's steady-state hop loop in
// isolation: one packet in flight, one switch-hop per generation,
// injections refreshed outside the timer when the TTL reclaims the
// packet. ns/op is ns/hop directly (hops/op confirms ~1), and the
// steady-state loop performs no allocation — the companion
// TestEngineHopLoopZeroAlloc asserts exactly 0 and runs in CI.
func BenchmarkEngineHopLoop(b *testing.B) {
	e, pkt := loopEngine(b)
	// Warm-up: one full TTL journey saturates views, rings and buffers.
	if err := e.Inject("H1", pkt); err != nil {
		b.Fatal(err)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	start := e.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.pending() == 0 {
			b.StopTimer()
			if err := e.Inject("H1", pkt); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		e.generation()
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Processed()-start)/float64(b.N), "hops/op")
	_ = e.Run() // reclaim the in-flight packet
}

// TestEngineHopLoopZeroAlloc pins the tentpole allocation property: the
// steady-state hop loop (forward, detect, gossip, merge) allocates
// nothing. 600 generations stay below the hop TTL, so the measured
// window contains no injection and no TTL reclaim.
func TestEngineHopLoopZeroAlloc(t *testing.T) {
	e, pkt := loopEngine(t)
	if err := e.Inject("H1", pkt); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil { // warm-up journey
		t.Fatal(err)
	}
	if err := e.Inject("H1", pkt); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(600, func() { e.generation() }); n != 0 {
		t.Fatalf("steady-state hop loop allocates %.3f times per generation; want 0", n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot(); got.TTLDropped == 0 {
		t.Fatalf("loop workload should end in TTL reclaim; snapshot %+v", got)
	}
}

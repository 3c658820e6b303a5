package dataplane

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// obsFull builds a fully-enabled observability layer: metrics, bus,
// tracing at the given sample rate, flight recorder and watchdog — the
// zero-alloc pin below covers every hot-path recorder at once.
func obsFull(sample int) *obs.Obs {
	return &obs.Obs{
		Metrics:        obs.NewMetrics(1),
		Bus:            obs.NewBus(),
		Trace:          obs.NewTracer(sample, 1),
		Flight:         obs.NewFlight(0, 1),
		Watch:          obs.NewWatchdog(),
		DeliverySample: 1,
	}
}

// TestEngineHopLoopZeroAllocObs pins the tentpole property of the
// observability layer: the steady-state hop loop still allocates
// nothing with metrics on, *every* packet traced (sample rate 1 —
// stricter than the CI-advertised 1/64), and the flight recorder
// capturing every delivery and detection. All hot-path recording must
// be plain stores into preallocated shards; the 600-generation window
// contains no boundary, so nothing may defer allocation into the
// measured loop either.
func TestEngineHopLoopZeroAllocObs(t *testing.T) {
	o := obsFull(1)
	e, pkt := loopEngineOpts(t, Options{Workers: 1, Obs: o})
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
		t.Fatalf("hop loop with metrics+tracing allocates %.3f times per generation; want 0", n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The layer actually recorded: hops counted, the traced journey's
	// records were captured (the TTL reclaim completes it at the final
	// boundary).
	if got := o.Metrics.Counter(obs.CtrHops); got == 0 {
		t.Fatalf("CtrHops = 0 after a TTL journey; metrics were not recorded")
	}
	if got := o.Metrics.Counter(obs.CtrTTLDrops); got == 0 {
		t.Fatalf("CtrTTLDrops = 0; the loop workload must end in TTL reclaim")
	}
	if got := o.Metrics.HistCount(obs.HistHopNs); got == 0 {
		t.Fatalf("hop-latency histogram empty; chunk timing was not folded")
	}
	if d := e.FlightDump(); len(d.Records) == 0 {
		t.Fatalf("flight record empty; the recorder was not written")
	}
}

// totals is what one sink says the engine counted.
type totals struct {
	gens, hops, inj, del, rule, ttl, events, drained int64
}

func metricTotals(m *obs.Metrics) totals {
	return totals{
		gens: m.Counter(obs.CtrGenerations), hops: m.Counter(obs.CtrHops),
		inj: m.Counter(obs.CtrInjections), del: m.Counter(obs.CtrDeliveries),
		rule: m.Counter(obs.CtrRuleDrops), ttl: m.Counter(obs.CtrTTLDrops),
		events: m.Counter(obs.CtrEventsFired), drained: m.Counter(obs.CtrDrainedHops),
	}
}

func (s *totals) addStats(d *obs.StatsDelta) {
	s.gens += d.Generations
	s.hops += d.Hops
	s.inj += d.Injections
	s.del += d.Deliveries
	s.rule += d.RuleDrops
	s.ttl += d.TTLDrops
	s.events += d.Events
	s.drained += d.DrainedHops
}

// flightTotals sums the dump's stats records.
func flightTotals(t *testing.T, d *obs.FlightDump) totals {
	t.Helper()
	if d.Truncated {
		t.Fatal("flight dump truncated; the sums below would be partial")
	}
	var s totals
	for _, r := range d.Records {
		if r.Kind == "stats" {
			s.addStats(r.Stats)
		}
	}
	return s
}

// busTotals closes sub and sums the stats deltas it received.
func busTotals(t *testing.T, sub *obs.Sub) totals {
	t.Helper()
	sub.Close()
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events; the sums below would be partial", sub.Dropped())
	}
	var s totals
	for ev := range sub.C {
		if ev.Kind == obs.KindStats {
			s.addStats(ev.Stats)
		}
	}
	return s
}

// checkSnapshot compares the counts a Snapshot carries.
func checkSnapshot(t *testing.T, sink string, got totals, s Snapshot) {
	t.Helper()
	if got.hops != s.Processed || got.del != int64(s.Deliveries) || got.ttl != s.TTLDropped {
		t.Errorf("%s: hops=%d deliveries=%d ttl=%d, snapshot hops=%d deliveries=%d ttl=%d",
			sink, got.hops, got.del, got.ttl, s.Processed, s.Deliveries, s.TTLDropped)
	}
}

// TestEngineObsCountersMatchSnapshot: the engine counts once, so the
// snapshot, the metrics, the flight recorder's stats records and the
// bus's stats deltas all report the same numbers on the same run.
func TestEngineObsCountersMatchSnapshot(t *testing.T) {
	inject3 := func(t *testing.T, o *obs.Obs) (*Engine, netkat.Packet) {
		e, pkt := loopEngineOpts(t, Options{Workers: 1, Obs: o})
		for i := 0; i < 3; i++ {
			if err := e.Inject("H1", pkt); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return e, pkt
	}

	t.Run("metrics", func(t *testing.T) {
		o := obsFull(1)
		e, _ := inject3(t, o)
		s := e.Snapshot()
		m := metricTotals(o.Metrics)
		checkSnapshot(t, "metrics", m, s)
		if m.inj != 3 || m.ttl != 3 || m.events != 1 || m.del != 0 || m.rule != 0 {
			t.Errorf("metrics %+v: want 3 injections, 3 TTL drops, 1 event, no deliveries or rule drops", m)
		}
		// Generations with zero hops (quiescence probes) are not counted;
		// every counted one must exist.
		if m.gens == 0 || m.gens > s.Generation {
			t.Errorf("CtrGenerations = %d, engine generation %d", m.gens, s.Generation)
		}
		if f := flightTotals(t, e.FlightDump()); f != m {
			t.Errorf("flight stats sum %+v, metrics %+v", f, m)
		}
	})

	t.Run("flight-without-metrics", func(t *testing.T) {
		e, _ := inject3(t, &obs.Obs{Flight: obs.NewFlight(0, 1)})
		s := e.Snapshot()
		f := flightTotals(t, e.FlightDump())
		checkSnapshot(t, "flight", f, s)
		if f.inj != 3 {
			t.Errorf("flight stats sum inj=%d, want 3", f.inj)
		}
	})

	t.Run("late-subscriber", func(t *testing.T) {
		o := obsFull(1)
		e, pkt := inject3(t, o)
		before := e.Snapshot()
		sub := o.Bus.Subscribe(1 << 12)
		if err := e.Inject("H1", pkt); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		after := e.Snapshot()
		b := busTotals(t, sub)
		if b.inj != 1 || b.hops != after.Processed-before.Processed || b.ttl != 1 {
			t.Errorf("late subscriber's deltas %+v: want 1 injection, 1 TTL drop and %d hops",
				b, after.Processed-before.Processed)
		}
	})

	t.Run("swap-2-workers", func(t *testing.T) {
		a := apps.Firewall()
		n := buildNESInternal(t, a)
		o := &obs.Obs{
			Metrics: obs.NewMetrics(2),
			Bus:     obs.NewBus(),
			Flight:  obs.NewFlight(1<<16, 2),
		}
		sub := o.Bus.Subscribe(1 << 14)
		e := NewEngine(n, a.Topo, Options{Workers: 2, Obs: o})
		inject := func(n *nes.NES, seed int64, k int) {
			for _, in := range NewLoadGen(n, a.Topo, seed).Injections(k) {
				if err := e.Inject(in.Host, in.Fields); err != nil {
					t.Fatal(err)
				}
			}
		}
		inject(n, 1, 400)
		e.Step(1)
		n2 := buildNESInternal(t, apps.BandwidthCap(8))
		sw, err := e.StageSwap(SwapSpec{Plan: PlanFor(n2)})
		if err != nil {
			t.Fatal(err)
		}
		inject(n2, 2, 100)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		<-sw.Done()
		s := e.Snapshot()
		dump := e.FlightDump()
		m := metricTotals(o.Metrics)
		checkSnapshot(t, "metrics", m, s)
		if m.inj != 500 || m.del == 0 || m.rule == 0 || m.events == 0 || m.drained == 0 {
			t.Fatalf("metrics %+v: want 500 injections and some deliveries, rule drops, events and drained hops", m)
		}
		if got := int64(len(e.Deliveries())); got != m.del {
			t.Errorf("engine delivered %d packets, metrics count %d", got, m.del)
		}
		// Each detection record names the events it fired.
		detected := int64(0)
		for _, r := range dump.Records {
			if r.Kind == "detect" {
				detected += int64(len(r.Events))
			}
		}
		if detected != m.events {
			t.Errorf("flight detection records fire %d events, metrics count %d", detected, m.events)
		}
		if f := flightTotals(t, dump); f != m {
			t.Errorf("flight stats sum %+v, metrics %+v", f, m)
		}
		if b := busTotals(t, sub); b != m {
			t.Errorf("bus stats sum %+v, metrics %+v", b, m)
		}
	})
}

// buildNESInternal compiles an app for the package's internal tests.
func buildNESInternal(t *testing.T, a apps.App) *nes.NES {
	t.Helper()
	x, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := x.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

package dataplane_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// fullObs is a fully-enabled layer sized for w workers: metrics, bus,
// tracing every injection, every delivery sampled, flight recorder
// (rings big enough that these workloads never truncate), watchdog.
func fullObs(w int) *obs.Obs {
	return &obs.Obs{
		Metrics:        obs.NewMetrics(w),
		Bus:            obs.NewBus(),
		Trace:          obs.NewTracer(1, w),
		Flight:         obs.NewFlight(1<<16, w),
		Watch:          obs.NewWatchdog(),
		DeliverySample: 1,
	}
}

// TestEngineObsPreservesDeterminism is the acceptance property of the
// whole layer: attaching full metrics + per-packet tracing + an active
// bus subscriber changes nothing about the delivery sequence, at any
// worker count, against the obs-off baseline.
func TestEngineObsPreservesDeterminism(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.IDSFatTree(4)} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			batches := loadBatches(t, a, 3, 60)
			base := runEngine(t, a, dataplane.Options{Workers: 1}, batches)
			if len(base) == 0 {
				t.Fatalf("workload delivered nothing; test is vacuous")
			}
			for _, w := range []int{1, 2, 4, 8} {
				o := fullObs(w)
				sub := o.Bus.Subscribe(4) // deliberately tiny: drops must not perturb anything
				got := runEngine(t, a, dataplane.Options{Workers: w, Obs: o}, batches)
				sub.Close()
				if !sameDeliveries(base, got) {
					t.Fatalf("obs-on deliveries differ at %d workers: %d vs %d packets", w, len(base), len(got))
				}
				if o.Metrics.Counter(obs.CtrDeliveries) != int64(len(base)) {
					t.Fatalf("CtrDeliveries = %d, want %d", o.Metrics.Counter(obs.CtrDeliveries), len(base))
				}
			}
		})
	}
}

// TestEngineJourneyTrace pins journey stitching: every injection traced,
// each emitted journey is complete (not truncated), hop records arrive
// in canonical order, and a delivered packet's journey ends with a
// deliver record naming the right host.
func TestEngineJourneyTrace(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	o := fullObs(2)
	sub := o.Bus.Subscribe(256, obs.KindTrace)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2, Obs: o})
	// The firewall's outbound flow H1->H4 is delivered and enables the
	// return path.
	if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	deliveries := e.Deliveries()
	if len(deliveries) == 0 {
		t.Fatal("firewall outbound packet was not delivered")
	}
	sub.Close()
	var journeys []*obs.Journey
	for ev := range sub.C {
		if ev.Trace != nil {
			journeys = append(journeys, ev.Trace)
		}
	}
	if len(journeys) != 1 {
		t.Fatalf("got %d journeys, want 1", len(journeys))
	}
	j := journeys[0]
	if j.Truncated {
		t.Fatalf("journey truncated: %+v", j)
	}
	if j.Host != "H1" {
		t.Fatalf("journey injection host = %q, want H1", j.Host)
	}
	if len(j.Hops) < 2 {
		t.Fatalf("journey has %d hop records, want at least a forward and a deliver", len(j.Hops))
	}
	delivers := 0
	for i, h := range j.Hops {
		if i > 0 {
			prev := j.Hops[i-1]
			if h.Gen < prev.Gen || (h.Gen == prev.Gen && h.Seq < prev.Seq) {
				t.Fatalf("hop records out of canonical order at %d: %+v after %+v", i, h, prev)
			}
		}
		if h.Kind == "deliver" {
			delivers++
			if h.Host != deliveries[delivers-1].Host {
				t.Fatalf("deliver record host %q, want %q", h.Host, deliveries[delivers-1].Host)
			}
		}
	}
	if delivers != len(deliveries) {
		t.Fatalf("journey carries %d deliver records for %d deliveries", delivers, len(deliveries))
	}
	if got := o.Metrics.Counter(obs.CtrTraces); got != 1 {
		t.Fatalf("CtrTraces = %d, want 1", got)
	}
}

// TestEngineObsBusFeed checks the boundary publishers end to end on one
// run: delivery samples with materialized fields, a stats delta whose
// counters move, and swap flip/drain/retire phase events in order.
func TestEngineObsBusFeed(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	o := fullObs(1)
	sub := o.Bus.Subscribe(1024)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, Obs: o})
	if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Swap to a different program mid-life, then drain.
	n2 := buildNES(t, apps.BandwidthCap(8))
	sw, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(n2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	sub.Close()

	var sawDelivery, sawStats bool
	var statHops int64
	var phases []string
	for ev := range sub.C {
		switch ev.Kind {
		case obs.KindDelivery:
			sawDelivery = true
			if len(ev.Fields) == 0 || ev.Host == "" {
				t.Fatalf("delivery event missing fields/host: %+v", ev)
			}
		case obs.KindStats:
			sawStats = true
			if ev.Stats == nil {
				t.Fatalf("stats event without a delta: %+v", ev)
			}
			statHops += ev.Stats.Hops
		case obs.KindSwap:
			phases = append(phases, ev.Phase)
		}
	}
	if !sawDelivery {
		t.Fatal("no delivery event on the bus")
	}
	if !sawStats {
		t.Fatal("no stats delta on the bus")
	}
	if statHops <= 0 {
		t.Fatalf("stats deltas summed to %d hops; counters never moved", statHops)
	}
	if len(phases) == 0 || phases[0] != "flip" || phases[len(phases)-1] != "retire" {
		t.Fatalf("swap phases = %v, want flip ... retire", phases)
	}
	if got := o.Metrics.Counter(obs.CtrSwapRetires); got != 1 {
		t.Fatalf("CtrSwapRetires = %d, want 1", got)
	}
	if got := o.Metrics.HistCount(obs.HistSwapDrainNs); got != 1 {
		t.Fatalf("HistSwapDrainNs count = %d, want 1", got)
	}
}

// TestObsRecordGolden pins the bytes the engine's observability records
// carry across a swap: firewall at 2 workers, 40 packets in flight when
// the program flips to bandwidth-cap-8. The bus events (Seq and TNs, the
// bus's own stamps, zeroed) and the flight dump are hashed as JSON, so
// swapPhase and statsDelta, which each feed both sinks, must keep every
// record byte for byte.
func TestObsRecordGolden(t *testing.T) {
	const wantBus, wantFlight = 0x7b371880302becf3, 0xc088c513fdfb43c1
	a := apps.Firewall()
	n := buildNES(t, a)
	o := &obs.Obs{
		Metrics:        obs.NewMetrics(2),
		Bus:            obs.NewBus(),
		Flight:         obs.NewFlight(1<<16, 2),
		DeliverySample: 1,
	}
	sub := o.Bus.Subscribe(1 << 14)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2, Obs: o})
	for _, in := range dataplane.NewLoadGen(n, a.Topo, 1).Injections(40) {
		if err := e.Inject(in.Host, in.Fields); err != nil {
			t.Fatal(err)
		}
	}
	e.Step(1)
	sw, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(buildNES(t, apps.BandwidthCap(8)))})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	dump := e.FlightDump()
	sub.Close()

	bus := fnv.New64a()
	kinds := map[string]int{}
	for ev := range sub.C {
		ev.Seq, ev.TNs = 0, 0
		kinds[ev.Kind]++
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		bus.Write(b)
	}
	if kinds[obs.KindSwap] != 3 || kinds[obs.KindStats] == 0 {
		t.Fatalf("bus carried %v: want flip, drain and retire and a stats delta", kinds)
	}
	flight := fnv.New64a()
	b, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	flight.Write(b)
	if got := bus.Sum64(); got != wantBus {
		t.Errorf("bus events hash to %016x, want %016x", got, uint64(wantBus))
	}
	if got := flight.Sum64(); got != wantFlight {
		t.Errorf("flight dump hashes to %016x, want %016x", got, uint64(wantFlight))
	}
}

package dataplane_test

import (
	"slices"
	"sort"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/runtime"
)

// runEngine injects the batches round by round (Run between batches, so
// event reactions influence later stamps) and returns the delivery
// sequence.
func runEngine(t *testing.T, a apps.App, opts dataplane.Options, batches [][]dataplane.Injection) []dataplane.Delivery {
	t.Helper()
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, opts)
	for _, batch := range batches {
		for _, in := range batch {
			if err := e.Inject(in.Host, in.Fields); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return e.Deliveries()
}

// loadBatches derives a deterministic multi-round workload from the
// engine's load generator.
func loadBatches(t *testing.T, a apps.App, rounds, perRound int) [][]dataplane.Injection {
	t.Helper()
	n := buildNES(t, a)
	lg := dataplane.NewLoadGen(n, a.Topo, 7)
	var out [][]dataplane.Injection
	for i := 0; i < rounds; i++ {
		out = append(out, lg.Injections(perRound))
	}
	return out
}

func sameDeliveries(a, b []dataplane.Delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Host != b[i].Host || !a[i].Fields.Equal(b[i].Fields) {
			return false
		}
	}
	return true
}

// TestEngineDeterministicAcrossWorkers is the acceptance property for the
// sharded engine: the delivery sequence (not just multiset) is identical
// at 1, 2 and 4 workers. Run with -race in CI, this doubles as the
// engine's race test.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	cases := []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.IDSFatTree(4)}
	for _, a := range cases {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			batches := loadBatches(t, a, 3, 60)
			base := runEngine(t, a, dataplane.Options{Workers: 1}, batches)
			if len(base) == 0 {
				t.Fatalf("workload delivered nothing; test is vacuous")
			}
			for _, w := range []int{2, 4} {
				got := runEngine(t, a, dataplane.Options{Workers: w}, batches)
				if !sameDeliveries(base, got) {
					t.Fatalf("deliveries differ between 1 and %d workers: %d vs %d packets", w, len(base), len(got))
				}
			}
		})
	}
}

// TestEngineTaggedSemantics drives the stateful firewall scenario through
// the engine: incoming traffic is dropped until the outgoing packet's
// arrival at s4 enables the event, after which the return path opens —
// the Section 4 behavior, with the event reaction taking effect on the
// very next injection.
func TestEngineTaggedSemantics(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2})

	in := func(host string, fields netkat.Packet) {
		t.Helper()
		if err := e.Inject(host, fields); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}

	in("H4", netkat.Packet{"dst": apps.H(1), "src": apps.H(4)})
	if got := len(e.DeliveredTo("H1")); got != 0 {
		t.Fatalf("incoming delivered before the outgoing event: %d packets", got)
	}
	in("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)})
	if got := len(e.DeliveredTo("H4")); got != 1 {
		t.Fatalf("outgoing not delivered: %d packets", got)
	}
	if st := e.Snapshot().Switches; len(st[slices.IndexFunc(st, func(s dataplane.SwitchStat) bool { return s.ID == 4 })].View) == 0 {
		t.Fatal("s4 did not detect the outgoing-arrival event")
	}
	in("H4", netkat.Packet{"dst": apps.H(1), "src": apps.H(4)})
	if got := len(e.DeliveredTo("H1")); got != 1 {
		t.Fatalf("incoming still dropped after the event: %d packets", got)
	}
}

// deliveryKeys canonicalizes a delivery multiset.
func deliveryKeys(ds []dataplane.Delivery) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Host+"|"+d.Fields.Key())
	}
	sort.Strings(out)
	return out
}

// TestEngineMatchesMachine cross-checks the engine against the Figure 7
// reference machine: injecting the same seeded packets one per round
// (quiescence between rounds, so event reactions shape later rounds)
// must deliver the same multiset, for several machine schedules. The
// machine forwards by flowtable.Table's linear scan, so this is the
// engine's compiled tables against an executor that shares no index
// with them.
func TestEngineMatchesMachine(t *testing.T) {
	type tc struct {
		app    apps.App
		notifs map[int]netkat.Packet // round -> monitor notification injected before it
		from   string
	}
	var cases []tc
	for _, a := range apps.All() {
		cases = append(cases, tc{app: a})
	}
	// The failover program walks its whole chain: its notifications are
	// delivered too, through rules that lack their bucket's key field.
	f := apps.FailoverDiamond(2)
	cases = append(cases, tc{app: f.App, from: f.Monitor,
		notifs: map[int]netkat.Packet{10: f.FailPkt, 25: f.RecoverPkt, 40: f.FailPkt, 50: f.RecoverPkt}})
	for _, c := range cases {
		a := c.app
		t.Run(a.Name, func(t *testing.T) {
			n := buildNES(t, a)
			var script []dataplane.Injection
			for i, in := range dataplane.NewLoadGen(n, a.Topo, 29).Injections(60) {
				if notif, ok := c.notifs[i]; ok {
					script = append(script, dataplane.Injection{Host: c.from, Fields: notif.Clone()})
				}
				script = append(script, in)
			}

			e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 4})
			for _, in := range script {
				if err := e.Inject(in.Host, in.Fields); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			want := deliveryKeys(e.Deliveries())
			if len(want) == 0 {
				t.Fatal("workload delivered nothing; test is vacuous")
			}

			for seed := int64(1); seed <= 5; seed++ {
				m := runtime.New(n, a.Topo, seed, false)
				for _, in := range script {
					if err := m.Inject(in.Host, in.Fields); err != nil {
						t.Fatal(err)
					}
					if err := m.RunToQuiescence(); err != nil {
						t.Fatal(err)
					}
				}
				var got []dataplane.Delivery
				for _, d := range m.Deliveries {
					got = append(got, dataplane.Delivery{Host: d.Host, Fields: d.Fields})
				}
				gk := deliveryKeys(got)
				if len(gk) != len(want) {
					t.Fatalf("seed %d: machine delivered %d, engine %d", seed, len(gk), len(want))
				}
				for i := range gk {
					if gk[i] != want[i] {
						t.Fatalf("seed %d: delivery multiset differs at %d: %s vs %s", seed, i, gk[i], want[i])
					}
				}
			}
		})
	}
}

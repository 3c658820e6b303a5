package chaos

import (
	"fmt"
	"testing"

	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/topo"
)

// TestChaosSmoke is the standing audit: every scenario family, two seeds
// each, every delivery checked against netkat.Eval of its stamped
// program. The run must be violation-free and must audit a six-figure
// delivery count so the invariant is exercised at scale, not anecdote.
func TestChaosSmoke(t *testing.T) {
	rounds, seeds := 800, []int64{1, 2}
	if testing.Short() {
		rounds, seeds = 150, []int64{1}
	}
	totalAudited := 0
	for _, name := range Scenarios() {
		for _, seed := range seeds {
			s, err := NewSchedule(name, seed, rounds)
			if err != nil {
				t.Fatal(err)
			}
			res, repro, _, err := Audit(s, Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if res.Violations() != 0 {
				t.Errorf("%s seed %d: %d mixed, %d dropped — reproducer: %s",
					name, seed, res.Mixed, res.Dropped, repro.Reproducer())
			}
			if res.Audited == 0 {
				t.Fatalf("%s seed %d: audited nothing", name, seed)
			}
			totalAudited += res.Audited
		}
	}
	if want := 120000; !testing.Short() && totalAudited < want {
		t.Errorf("smoke audited %d deliveries, want >= %d", totalAudited, want)
	}
}

// TestChaosDeterminism: the same schedule produces the bit-identical
// delivery sequence at 1, 2 and 4 workers, for every scenario family.
func TestChaosDeterminism(t *testing.T) {
	for _, name := range Scenarios() {
		s, err := NewSchedule(name, 7, 120)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckDeterminism(s, []int{1, 2, 4}); err != nil {
			t.Error(err)
		}
	}
}

// TestChaosHashPin pins the synchronous delivery sequence across
// commits: seed 7, 200 rounds, two workers. The other determinism tests compare runs within one
// build; this one fails if a change to the runner, the engine or a
// scenario moves what the audit sees.
func TestChaosHashPin(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		hash                    uint64
		audited, injected, swap int
		hops                    int64
	}{
		{"failover-diamond", 0x07163bab9d092640, 2815, 3872, 0, 9502},
		{"storm-swap", 0xb1141614df7ed67f, 12644, 27069, 32, 39713},
		{"wan-failover", 0x5352fae6e662f8ab, 2766, 3777, 32, 12075},
		{"fattree-failover", 0xf04d219268df2266, 6285, 9392, 0, 34532},
	} {
		s, err := NewSchedule(tc.name, 7, 200)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Hash != tc.hash || r.Audited != tc.audited || r.Injected != tc.injected || r.Swaps != tc.swap || r.Hops != tc.hops {
			t.Errorf("%s: hash %016x audited %d injected %d swaps %d hops %d, want %016x %d %d %d %d",
				tc.name, r.Hash, r.Audited, r.Injected, r.Swaps, r.Hops,
				tc.hash, tc.audited, tc.injected, tc.swap, tc.hops)
		}
	}
}

// TestChaosServed: the schedule replayed through a served engine with
// controller-driven swaps stays violation-free (scheduling is
// timing-dependent there, so only the audit — not the hash — is
// asserted).
func TestChaosServed(t *testing.T) {
	for _, name := range []string{"storm-swap", "wan-failover"} {
		s, err := NewSchedule(name, 3, 120)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunServed(s, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations() != 0 {
			t.Errorf("%s served: %d mixed, %d dropped", name, res.Mixed, res.Dropped)
		}
		if res.Audited == 0 || res.Swaps == 0 {
			t.Errorf("%s served: audited=%d swaps=%d — degenerate run", name, res.Audited, res.Swaps)
		}
	}
}

// TestShrink: the minimizer finds the exact shortest violating prefix
// via its monotone binary search, and reports -1 on clean schedules.
func TestShrink(t *testing.T) {
	ops := make([]Op, 50)
	probes := 0
	n := Shrink(ops, func(p []Op) bool { probes++; return len(p) >= 17 })
	if n != 17 {
		t.Fatalf("Shrink = %d, want 17", n)
	}
	if probes > 10 {
		t.Fatalf("Shrink used %d probes for 50 ops — not binary", probes)
	}
	if n := Shrink(ops, func(p []Op) bool { return false }); n != -1 {
		t.Fatalf("clean schedule: Shrink = %d, want -1", n)
	}
	if n := Shrink(ops, func(p []Op) bool { return len(p) >= 1 }); n != 1 {
		t.Fatalf("first-op violation: Shrink = %d, want 1", n)
	}
	if n := Shrink(nil, func(p []Op) bool { return true }); n != -1 {
		t.Fatalf("empty schedule: Shrink = %d, want -1", n)
	}
}

// TestReproducerRoundTrip: the violation reproducer line parses back to
// the schedule it encodes, and a clean Audit returns no reproducer.
func TestReproducerRoundTrip(t *testing.T) {
	s, err := NewSchedule("failover-diamond", 11, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReproducer(s.Reproducer())
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != s.Scenario || got.Seed != s.Seed || len(got.Ops) != len(s.Ops) {
		t.Fatalf("round trip lost data: %+v vs %+v", got, s)
	}
	for i := range got.Ops {
		if got.Ops[i] != s.Ops[i] {
			t.Fatalf("op %d: %+v vs %+v", i, got.Ops[i], s.Ops[i])
		}
	}
	res, repro, _, err := Audit(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations() != 0 || repro != nil {
		t.Fatalf("clean schedule produced a reproducer: %v", repro)
	}
	if _, err := ParseReproducer("{not json"); err == nil {
		t.Fatal("bad reproducer line must not parse")
	}
}

// TestAuditDetectsTampering: the audit is differential, not decorative —
// feed it a doctored delivery log and it must flag both failure modes
// (an unpredicted delivery, and a predicted delivery gone missing).
func TestAuditDetectsTampering(t *testing.T) {
	sc, err := buildScenario("storm-swap")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := compileScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	epochs := []epoch{progs[0].epoch}
	// In state 0, H1 -> H4 is routed: Eval predicts exactly one delivery.
	rec := injRecord{
		host:   "H1",
		fields: netkat.Packet{"dst": topo.HostID(4), "id": 0},
		stamp:  dataplane.Stamp{Epoch: 0, Version: 0},
	}
	good := dataplane.Delivery{
		Host:   "H4",
		Fields: netkat.Packet{"dst": topo.HostID(4), "id": 0},
		Stamp:  rec.stamp,
	}
	if m, d := audit(sc.tp, epochs, []injRecord{rec}, []dataplane.Delivery{good}); m != 0 || d != 0 {
		t.Fatalf("clean log flagged: mixed=%d dropped=%d", m, d)
	}
	// Missing delivery -> dropped.
	if m, d := audit(sc.tp, epochs, []injRecord{rec}, nil); m != 0 || d != 1 {
		t.Fatalf("missing delivery: mixed=%d dropped=%d, want 0/1", m, d)
	}
	// Wrong host -> mixed (and the predicted one is also missing).
	bad := good
	bad.Host = "H1"
	if m, d := audit(sc.tp, epochs, []injRecord{rec}, []dataplane.Delivery{bad}); m != 1 || d != 1 {
		t.Fatalf("diverted delivery: mixed=%d dropped=%d, want 1/1", m, d)
	}
	// Wrong stamp -> mixed.
	bad = good
	bad.Stamp.Version = 1
	if m, _ := audit(sc.tp, epochs, []injRecord{rec}, []dataplane.Delivery{bad}); m != 1 {
		t.Fatalf("restamped delivery: mixed=%d, want 1", m)
	}
	// Duplicate delivery -> mixed.
	if m, _ := audit(sc.tp, epochs, []injRecord{rec}, []dataplane.Delivery{good, good}); m != 1 {
		t.Fatalf("duplicated delivery: mixed=%d, want 1", m)
	}
}

// BenchmarkChaos is the CI smoke entry point: one fixed-seed storm-swap
// schedule per iteration (run with -benchtime=1x in CI). It reports
// audited deliveries per op for trend tracking.
func BenchmarkChaos(b *testing.B) {
	s, err := NewSchedule("storm-swap", 1, 400)
	if err != nil {
		b.Fatal(err)
	}
	audited := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(s, Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations() != 0 {
			b.Fatalf("violations: %d mixed, %d dropped", res.Mixed, res.Dropped)
		}
		audited += res.Audited
	}
	b.ReportMetric(float64(audited)/float64(b.N), "audited/op")
}

// CheckDeterminism replays a schedule at every given worker count and
// verifies the delivery sequence — hosts, header fields, stamps, order —
// is bit-identical throughout.
func CheckDeterminism(s Schedule, workerCounts []int) error {
	var ref *Result
	var refDesc string
	for _, w := range workerCounts {
		r, err := Run(s, Options{Workers: w})
		if err != nil {
			return err
		}
		desc := fmt.Sprintf("workers=%d", w)
		if ref == nil {
			ref, refDesc = r, desc
			continue
		}
		if r.Hash != ref.Hash || r.Audited != ref.Audited {
			return fmt.Errorf("chaos: %s seed %d nondeterministic: %s got %d deliveries hash %x, %s got %d hash %x",
				s.Scenario, s.Seed, refDesc, ref.Audited, ref.Hash, desc, r.Audited, r.Hash)
		}
	}
	return nil
}

package chaos

import (
	"encoding/json"
	"os"
	"testing"

	"eventnet/internal/obs"
)

// chaosObs is the full telemetry stack sized for w workers: metrics,
// bus, per-packet tracing, flight recorder, watchdog.
func chaosObs(w int) *obs.Obs {
	return &obs.Obs{
		Metrics:        obs.NewMetrics(w),
		Bus:            obs.NewBus(),
		Trace:          obs.NewTracer(1, w),
		Flight:         obs.NewFlight(0, w),
		Watch:          obs.NewWatchdog(),
		DeliverySample: 1,
	}
}

// TestChaosWithObsIdenticalAndClean replays one schedule twice — obs off
// and obs fully on (metrics, per-packet tracing, flight recorder,
// watchdog, a deliberately starved bus subscriber) — and requires the
// bit-identical delivery hash, a clean audit, and the run's counters
// folded into the metrics layer. This is the standing proof that
// telemetry is an observer, not a participant.
func TestChaosWithObsIdenticalAndClean(t *testing.T) {
	s, err := NewSchedule("storm-swap", 13, 80)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(s, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := chaosObs(4)
	sub := o.Bus.Subscribe(2) // starved: nearly everything drops
	res, err := Run(s, Options{Workers: 4, Obs: o})
	sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != base.Hash {
		t.Fatalf("obs-on delivery hash %x != obs-off %x", res.Hash, base.Hash)
	}
	if res.Violations() != 0 {
		t.Fatalf("obs-on run violated the audit: %d mixed, %d dropped", res.Mixed, res.Dropped)
	}
	if got := o.Metrics.Counter(obs.CtrChaosRuns); got != 1 {
		t.Fatalf("CtrChaosRuns = %d, want 1", got)
	}
	if got := o.Metrics.Counter(obs.CtrChaosAudited); got != int64(res.Audited) {
		t.Fatalf("CtrChaosAudited = %d, want %d", got, res.Audited)
	}
	if o.Metrics.Counter(obs.CtrChaosMixed) != 0 || o.Metrics.Counter(obs.CtrChaosDropped) != 0 {
		t.Fatal("violation counters non-zero on a clean run")
	}
	if o.Metrics.Counter(obs.CtrDeliveries) != int64(res.Audited) {
		t.Fatalf("CtrDeliveries = %d, audit saw %d", o.Metrics.Counter(obs.CtrDeliveries), res.Audited)
	}
}

// TestChaosObsHashInvariance widens the observer property to the scale
// the acceptance criteria demand: the chaos delivery hash is identical
// with the full telemetry stack attached and detached, at 1, 2, 4 and
// 8 workers.
func TestChaosObsHashInvariance(t *testing.T) {
	for _, name := range []string{"storm-swap", "failover-diamond"} {
		s, err := NewSchedule(name, 5, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			base, err := Run(s, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(s, Options{Workers: w, Obs: chaosObs(w)})
			if err != nil {
				t.Fatal(err)
			}
			if got.Hash != base.Hash {
				t.Errorf("%s @ %d workers: obs-on hash %x != obs-off hash %x — telemetry perturbed the execution",
					name, w, got.Hash, base.Hash)
			}
			if got.Audited == 0 {
				t.Fatalf("%s @ %d workers: audited nothing", name, w)
			}
		}
	}
}

// TestChaosFlightReplayDeterminism: replaying a schedule with a
// flight-only Obs (the configuration Audit attaches to a shrunk
// violator) produces the bit-identical dump every time — the property
// that makes a reproducer's attached flight record trustworthy.
func TestChaosFlightReplayDeterminism(t *testing.T) {
	s, err := NewSchedule("storm-swap", 3, 80)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for i := 0; i < 3; i++ {
		o := Options{Workers: 2, Obs: &obs.Obs{Flight: obs.NewFlight(0, 2)}}
		if _, err := Run(s, o); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(o.Obs.Flight.Dump())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if string(ref) != string(b) {
			t.Fatalf("replay %d produced a different flight dump", i)
		}
	}
	if len(ref) <= len("{}") {
		t.Fatal("empty dump; test is vacuous")
	}
}

// TestChaosFlightDumpArtifact writes the flight dump of a fixed-seed
// run to $CHAOS_FLIGHT_DUMP for CI to upload as a build artifact; it
// skips everywhere else.
func TestChaosFlightDumpArtifact(t *testing.T) {
	path := os.Getenv("CHAOS_FLIGHT_DUMP")
	if path == "" {
		t.Skip("CHAOS_FLIGHT_DUMP not set")
	}
	s, err := NewSchedule("storm-swap", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Workers: 2, Obs: &obs.Obs{Flight: obs.NewFlight(0, 2)}}
	if _, err := Run(s, o); err != nil {
		t.Fatal(err)
	}
	d := o.Obs.Flight.Dump()
	if len(d.Records) == 0 {
		t.Fatal("empty dump; the artifact would be useless")
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d flight records to %s", len(d.Records), path)
}

package dataplane_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/obs"
)

// flightRun replays one deterministic workload with the recorder
// attached and returns the engine's flight dump.
func flightRun(t *testing.T, a apps.App, workers, flightCap int, batches [][]dataplane.Injection) *obs.FlightDump {
	t.Helper()
	n := buildNES(t, a)
	o := &obs.Obs{
		Metrics: obs.NewMetrics(workers),
		Flight:  obs.NewFlight(flightCap, workers),
	}
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers, Obs: o})
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
	return e.FlightDump()
}

// TestEngineFlightDeterminism is the recorder's acceptance property:
// the dump is bit-identical at 1, 2, 4 and 8 workers. Records carry no
// wall-clock stamps and sort in the canonical (gen, seq, kind, branch)
// order, so equal executions must serialize to equal bytes — any
// divergence means a record leaked scheduling (which shard ran what) or
// timing into its fields.
func TestEngineFlightDeterminism(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10)} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			batches := loadBatches(t, a, 3, 60)
			var ref []byte
			refWorkers := 0
			for _, w := range []int{1, 2, 4, 8} {
				d := flightRun(t, a, w, 1<<16, batches)
				if len(d.Records) == 0 {
					t.Fatalf("%d workers: empty flight dump; test is vacuous", w)
				}
				if d.Truncated {
					t.Fatalf("%d workers: dump truncated under a 64k ring; workload outgrew the test", w)
				}
				b, err := json.Marshal(d)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref, refWorkers = b, w
					continue
				}
				if !bytes.Equal(ref, b) {
					t.Fatalf("flight dump differs between %d and %d workers:\n%d: %.400s\n%d: %.400s",
						refWorkers, w, refWorkers, ref, w, b)
				}
			}
		})
	}
}

// TestEngineFlightTruncation: a ring too small for the workload marks
// the dump truncated and keeps exactly the complete generation suffix —
// the untruncated run's records above the cutoff, nothing more, nothing
// less, nothing reordered.
func TestEngineFlightTruncation(t *testing.T) {
	a := apps.BandwidthCap(10)
	batches := loadBatches(t, a, 6, 80)
	full := flightRun(t, a, 2, 1<<16, batches)
	small := flightRun(t, a, 2, 32, batches)
	if full.Truncated {
		t.Fatal("full run truncated; raise the reference ring")
	}
	if !small.Truncated {
		t.Fatalf("a 32-record ring held %d records without overflow; test is vacuous", len(small.Records))
	}
	var want []obs.FlightWireRec
	for _, r := range full.Records {
		if r.Gen > small.TruncatedGen {
			want = append(want, r)
		}
	}
	if len(want) == 0 {
		t.Fatalf("cutoff gen %d leaves no records; test is vacuous", small.TruncatedGen)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(small.Records)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("truncated dump is not the suffix of the full dump above gen %d:\nwant %d records, got %d",
			small.TruncatedGen, len(want), len(small.Records))
	}
	if small.Evicted == 0 {
		t.Error("truncated dump reports zero evictions")
	}
}

// TestEngineFlightSwapPhases: a hot swap leaves its stage-to-retire
// trail in the recorder, in order.
func TestEngineFlightSwapPhases(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	o := fullObs(1)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 1, Obs: o})
	in := loadBatches(t, a, 1, 1)[0][0]
	if err := e.Inject(in.Host, in.Fields); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	n2 := buildNES(t, apps.BandwidthCap(8))
	sw, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(n2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	var phases []string
	for _, r := range e.FlightDump().Records {
		if r.Kind == "swap" {
			phases = append(phases, r.Phase)
		}
	}
	if len(phases) == 0 || phases[0] != "flip" || phases[len(phases)-1] != "retire" {
		t.Fatalf("swap phases in flight record = %v, want flip ... retire", phases)
	}
}

// TestFlightDumpBetweenBoundaries: Step ends without a boundary, so a
// dump taken right after it must itself feed the recorder what the
// workers logged since the last one; and a delivery read between
// boundaries merges, and so resets, those logs, so the merge must feed
// it first. Either way every delivery the engine made is in the dump,
// at every worker count.
func TestFlightDumpBetweenBoundaries(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	for _, w := range []int{1, 2} {
		for _, dumpFirst := range []bool{true, false} {
			e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: w, Obs: &obs.Obs{Flight: obs.NewFlight(0, w)}})
			for _, in := range dataplane.NewLoadGen(n, a.Topo, 3).Injections(200) {
				if err := e.Inject(in.Host, in.Fields); err != nil {
					t.Fatal(err)
				}
			}
			e.Step(2)
			var d *obs.FlightDump
			if dumpFirst {
				d = e.FlightDump()
			}
			want := len(e.Deliveries())
			if !dumpFirst {
				d = e.FlightDump()
			}
			got := 0
			for _, r := range d.Records {
				if r.Kind == "deliver" {
					got++
				}
			}
			if got != want || want == 0 {
				t.Errorf("%d workers, dump first %v: flight dump holds %d deliveries, engine delivered %d", w, dumpFirst, got, want)
			}
		}
	}
}

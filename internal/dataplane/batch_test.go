package dataplane_test

import (
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
)

// Batched-ingress equivalence: InjectBatch of N packets must be
// observationally identical to N sequential one-packet batches — same
// stamps returned, same stamped delivery sequence, same hop and TTL
// counters — and per-packet failures must reject exactly the bad
// packets while the rest of the batch is admitted unchanged.

// runRounds replays the rounds through inject (Run between rounds) and
// returns the collected stamps plus the final engine.
func runRounds(t *testing.T, a apps.App, batches [][]dataplane.Injection,
	inject func(e *dataplane.Engine, batch []dataplane.Injection) []dataplane.Stamp) (*dataplane.Engine, []dataplane.Stamp) {
	t.Helper()
	e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	var stamps []dataplane.Stamp
	for _, batch := range batches {
		stamps = append(stamps, inject(e, batch)...)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return e, stamps
}

// injectOne admits one packet by a one-element InjectBatch: the
// per-packet side of every ingress equivalence.
func injectOne(e *dataplane.Engine, in dataplane.Injection) (dataplane.Stamp, error) {
	st, errs := e.InjectBatch([]dataplane.Injection{in})
	if errs != nil {
		return dataplane.Stamp{}, errs[0]
	}
	return st[0], nil
}

// TestInjectBatchEquivalence: batch of N ≡ N sequential injections, for
// stamps, stamped deliveries, and the engine counters.
func TestInjectBatchEquivalence(t *testing.T) {
	for _, a := range []apps.App{apps.Firewall(), apps.BandwidthCap(10), apps.IDSFatTree(4)} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			batches := loadBatches(t, a, 3, 60)
			seqEng, seqStamps := runRounds(t, a, batches, func(e *dataplane.Engine, batch []dataplane.Injection) []dataplane.Stamp {
				var out []dataplane.Stamp
				for _, in := range batch {
					st, err := injectOne(e, in)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, st)
				}
				return out
			})
			batEng, batStamps := runRounds(t, a, batches, func(e *dataplane.Engine, batch []dataplane.Injection) []dataplane.Stamp {
				stamps, errs := e.InjectBatch(batch)
				if errs != nil {
					t.Fatalf("clean batch returned errors: %v", errs)
				}
				return stamps
			})
			if len(seqStamps) != len(batStamps) {
				t.Fatalf("stamp counts differ: %d vs %d", len(seqStamps), len(batStamps))
			}
			for i := range seqStamps {
				if seqStamps[i] != batStamps[i] {
					t.Fatalf("stamp %d differs: %+v vs %+v", i, seqStamps[i], batStamps[i])
				}
			}
			if i := sameStamped(seqEng.Deliveries(), batEng.Deliveries()); i != -1 {
				t.Fatalf("deliveries diverge at %d", i)
			}
			ss, bs := seqEng.Snapshot(), batEng.Snapshot()
			if ss.Processed != bs.Processed || ss.TTLDropped != bs.TTLDropped || ss.Deliveries != bs.Deliveries {
				t.Fatalf("counters differ: sequential hops=%d ttl=%d delivered=%d, batched hops=%d ttl=%d delivered=%d",
					ss.Processed, ss.TTLDropped, ss.Deliveries, bs.Processed, bs.TTLDropped, bs.Deliveries)
			}
			if len(seqEng.Deliveries()) == 0 {
				t.Fatal("workload delivered nothing; equivalence is vacuous")
			}
		})
	}
}

// TestInjectBatchPartialErrors pins the partial-batch semantics: a
// packet that fails validation is reported at its own index (zero
// stamp), consumes nothing, and the rest of the batch is admitted —
// exactly a sequential loop that skips the failures.
func TestInjectBatchPartialErrors(t *testing.T) {
	a := apps.Firewall()
	good := loadBatches(t, a, 1, 6)[0]
	bad := make([]dataplane.Injection, 0, len(good)+2)
	bad = append(bad, good[:2]...)
	bad = append(bad, dataplane.Injection{Host: "NoSuchHost", Fields: netkat.Packet{"dst": apps.H(1)}})
	bad = append(bad, good[2:4]...)
	bad = append(bad, dataplane.Injection{Host: "H1", Fields: netkat.Packet{"dst": 1 << 40}})
	bad = append(bad, good[4:]...)

	e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	stamps, errs := e.InjectBatch(bad)
	if errs == nil {
		t.Fatal("batch with invalid packets returned nil errs")
	}
	for i := range bad {
		wantErr := i == 2 || i == 5
		if (errs[i] != nil) != wantErr {
			t.Fatalf("errs[%d] = %v, want error: %v", i, errs[i], wantErr)
		}
		if wantErr && stamps[i] != (dataplane.Stamp{}) {
			t.Fatalf("failed packet %d got a stamp: %+v", i, stamps[i])
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// The reference: inject only the good packets sequentially.
	ref := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	for _, in := range good {
		if _, err := injectOne(ref, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if i := sameStamped(ref.Deliveries(), e.Deliveries()); i != -1 {
		t.Fatalf("partial batch deliveries diverge from skip-sequential reference at %d", i)
	}
}

// TestInjectAsyncBatchServed: on a serving engine the whole batch is
// admitted at one boundary, with validation errors surfaced
// synchronously per packet, and the result matches a synchronous run of
// the same batch.
func TestInjectAsyncBatchServed(t *testing.T) {
	a := apps.Firewall()
	batch := loadBatches(t, a, 1, 40)[0]
	withBad := append(append([]dataplane.Injection{}, batch...),
		dataplane.Injection{Host: "NoSuchHost", Fields: netkat.Packet{"dst": apps.H(1)}})

	e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	e.Start()
	errs := e.InjectAsyncBatch(withBad)
	if errs == nil || errs[len(withBad)-1] == nil {
		t.Fatalf("served batch did not surface the invalid packet: %v", errs)
	}
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("valid packet %d rejected: %v", i, errs[i])
		}
	}
	e.Quiesce()
	got := e.CopyDeliveries(0)
	e.Stop()

	ref := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	if _, errs := ref.InjectBatch(batch); errs != nil {
		t.Fatalf("reference batch errored: %v", errs)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if i := sameStamped(ref.Deliveries(), got); i != -1 {
		t.Fatalf("served batch deliveries diverge from synchronous reference at %d", i)
	}
	if len(got) == 0 {
		t.Fatal("served batch delivered nothing; equivalence is vacuous")
	}
}

// TestInjectBatchInsideDoServed pins the contract the swap-under-load
// feeder and the chaos player's served mode rest on: InjectBatch called
// inside Do on a serving engine runs at a barrier exactly as it runs on a
// synchronous engine between Runs — same stamps (the rejected packets'
// zero stamps included), same rejected indices, same stamped deliveries.
// Every third packet carries an inert field, and each round holds an
// unknown-host and an out-of-int32 packet: 264 stamps per app.
func TestInjectBatchInsideDoServed(t *testing.T) {
	for _, c := range []struct {
		app        apps.App
		deliveries int
	}{{apps.Firewall(), 97}, {apps.BandwidthCap(10), 91}, {apps.IDSFatTree(4), 3}} {
		a := c.app
		t.Run(a.Name, func(t *testing.T) {
			var rounds [][]dataplane.Injection
			for _, b := range loadBatches(t, a, 4, 64) {
				for i := range b {
					if i%3 == 0 {
						b[i].Fields["inert_marker"] = 1000 + i
					}
				}
				r := append([]dataplane.Injection{}, b[:16]...)
				r = append(r, dataplane.Injection{Host: "NoSuchHost", Fields: netkat.Packet{"dst": apps.H(1)}})
				r = append(r, b[16:48]...)
				r = append(r, dataplane.Injection{Host: b[0].Host, Fields: netkat.Packet{"dst": 1 << 40}})
				rounds = append(rounds, append(r, b[48:]...))
			}

			type run struct {
				stamps []dataplane.Stamp
				rej    []int
			}
			record := func(r *run, stamps []dataplane.Stamp, errs []error) {
				r.stamps = append(r.stamps, stamps...)
				for i, err := range errs {
					if err != nil {
						r.rej = append(r.rej, len(r.stamps)-len(stamps)+i)
					}
				}
			}

			var sync run
			ref := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
			for _, r := range rounds {
				stamps, errs := ref.InjectBatch(r)
				record(&sync, stamps, errs)
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}
			}

			var served run
			e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
			e.Start()
			defer e.Stop()
			for _, r := range rounds {
				var stamps []dataplane.Stamp
				var errs []error
				e.Do(func() { stamps, errs = e.InjectBatch(r) })
				record(&served, stamps, errs)
				e.Quiesce()
			}

			if len(served.stamps) != 264 || !slices.Equal(sync.stamps, served.stamps) {
				t.Fatalf("served stamps %v\nsynchronous %v", served.stamps, sync.stamps)
			}
			if len(served.rej) != 2*len(rounds) || !slices.Equal(sync.rej, served.rej) {
				t.Fatalf("rejected indices: served %v, synchronous %v", served.rej, sync.rej)
			}
			for _, k := range served.rej {
				if i := k % len(rounds[0]); i != 16 && i != 49 {
					t.Fatalf("packet %d rejected, want only the unknown-host and out-of-int32 packets", k)
				}
			}
			want, got := ref.Deliveries(), e.CopyDeliveries(0)
			if i := sameStamped(want, got); i != -1 {
				t.Fatalf("served deliveries diverge from synchronous at %d of %d/%d", i, len(got), len(want))
			}
			if len(got) != c.deliveries {
				t.Fatalf("%d deliveries, want %d", len(got), c.deliveries)
			}
		})
	}
}

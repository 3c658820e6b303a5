package chaos

import (
	"fmt"
	"math/rand"
	"testing"
)

// Chunked-barrier torture: the chunk budget must be unobservable. A
// chunk groups up to ChunkGens generations between boundaries, so
// shrinking it to 1 forces a boundary after every generation while 64
// lets swaps flip and old epochs retire deep inside a chunk — if the
// in-chunk retirement accounting, the per-epoch push tallies, or the
// phaser rendezvous leaked anything observable, these runs would
// diverge or the differential audit would flag mixed/dropped packets.

// TestChunkInvariance: the same schedule hashes bit-identically at
// every chunk budget × worker count.
func TestChunkInvariance(t *testing.T) {
	for _, name := range Scenarios() {
		s, err := NewSchedule(name, 13, 100)
		if err != nil {
			t.Fatal(err)
		}
		var refHash uint64
		var refDesc string
		for _, cg := range []int{0, 1, 2, 7, 64} {
			for _, w := range []int{1, 3} {
				r, err := Run(s, Options{Workers: w, ChunkGens: cg})
				if err != nil {
					t.Fatal(err)
				}
				desc := fmt.Sprintf("chunk=%d workers=%d", cg, w)
				if refDesc == "" {
					refHash, refDesc = r.Hash, desc
					continue
				}
				if r.Hash != refHash {
					t.Fatalf("%s: chunking observable: %s hash %x, %s hash %x",
						name, refDesc, refHash, desc, r.Hash)
				}
			}
		}
	}
}

// TestChunkTorture: randomized chunk budgets, worker counts and op
// mixes — heavy on swaps staged while traffic is in flight
// — each run fully audited (every delivery checked against Eval,
// mixed=0 and dropped=0). A violating run is shrunk to its shortest
// violating prefix and reported as a one-line reproducer.
func TestChunkTorture(t *testing.T) {
	rounds := 120
	runs := 12
	if testing.Short() {
		rounds, runs = 60, 6
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < runs; i++ {
		name := Scenarios()[rng.Intn(len(Scenarios()))]
		o := Options{
			Workers:   1 + rng.Intn(4),
			ChunkGens: []int{1, 2, 3, 5, 8, 64}[rng.Intn(6)],
		}
		s, err := NewSchedule(name, int64(1000+i), rounds)
		if err != nil {
			t.Fatal(err)
		}
		res, repro, _, err := Audit(s, o)
		if err != nil {
			t.Fatalf("%s chunk=%d workers=%d: %v", name, o.ChunkGens, o.Workers, err)
		}
		if res.Violations() != 0 {
			t.Errorf("%s chunk=%d workers=%d: %d mixed, %d dropped — reproducer: %s",
				name, o.ChunkGens, o.Workers, res.Mixed, res.Dropped, repro.Reproducer())
		}
		if res.Audited == 0 {
			t.Fatalf("%s: audited nothing — torture is vacuous", name)
		}
	}
}

// TestChunkTortureServed: the served engine with a tiny chunk budget and
// controller-driven swaps — boundary requests from the supervisor land
// mid-chunk, so chunks genuinely end early on boundReq, the path the
// synchronous runner cannot reach. Audit-only (served scheduling is
// timing-dependent).
func TestChunkTortureServed(t *testing.T) {
	for _, name := range []string{"storm-swap", "wan-failover"} {
		for _, cg := range []int{1, 4} {
			s, err := NewSchedule(name, 17, 80)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunServed(s, Options{Workers: 3, ChunkGens: cg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violations() != 0 {
				t.Errorf("%s served chunk=%d: %d mixed, %d dropped", name, cg, res.Mixed, res.Dropped)
			}
			if res.Audited == 0 || res.Swaps == 0 {
				t.Errorf("%s served chunk=%d: audited=%d swaps=%d — degenerate run", name, cg, res.Audited, res.Swaps)
			}
		}
	}
}

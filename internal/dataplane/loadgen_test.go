package dataplane_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
)

func loadGenFixture(t *testing.T, seed int64) *dataplane.LoadGen {
	t.Helper()
	a := apps.Firewall()
	et, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := et.ToNES()
	if err != nil {
		t.Fatal(err)
	}
	return dataplane.NewLoadGen(n, a.Topo, seed)
}

func injectionKey(is []dataplane.Injection) string {
	s := ""
	for _, in := range is {
		s += fmt.Sprintf("%s|%s;", in.Host, in.Fields.Key())
	}
	return s
}

// TestLoadGenSeedDivergence: the documented derivation rule means linear
// seed schedules cannot alias — (seed 1, stream 2) and (seed 2, stream 1)
// produce different traffic, as do adjacent base seeds and a stream vs
// its parent. Equal (seed, stream) pairs stay reproducible.
func TestLoadGenSeedDivergence(t *testing.T) {
	const k = 256
	s1, s2 := loadGenFixture(t, 1), loadGenFixture(t, 2)
	if injectionKey(loadGenFixture(t, 1).Injections(k)) != injectionKey(loadGenFixture(t, 1).Injections(k)) {
		t.Fatal("equal seeds must reproduce the stream")
	}
	if injectionKey(loadGenFixture(t, 1).Injections(k)) == injectionKey(loadGenFixture(t, 2).Injections(k)) {
		t.Fatal("adjacent base seeds alias")
	}
	// The classical aliasing bug: per-stream generators derived as
	// seed+stream collide across (1,2) and (2,1). Derive must not.
	d12 := s1.Derive(2)
	d21 := s2.Derive(1)
	k12, k21 := injectionKey(d12.Injections(k)), injectionKey(d21.Injections(k))
	if k12 == k21 {
		t.Fatal("Derive aliases across (seed 1, stream 2) and (seed 2, stream 1)")
	}
	if k12 == injectionKey(loadGenFixture(t, 1).Injections(k)) {
		t.Fatal("derived stream equals its parent")
	}
	if k12 != injectionKey(loadGenFixture(t, 1).Derive(2).Injections(k)) {
		t.Fatal("equal (seed, stream) must reproduce")
	}
}

// TestLoadGenBatchSizes: every distribution is deterministic per seed,
// produces positive sizes, and the bursty and heavy-tailed shapes show
// the spread they exist for.
func TestLoadGenBatchSizes(t *testing.T) {
	const rounds, mean = 400, 8
	for _, dist := range []dataplane.ArrivalDist{
		dataplane.ArrivalUniform, dataplane.ArrivalBursty, dataplane.ArrivalHeavyTail,
	} {
		a := loadGenFixture(t, 9).BatchSizes(rounds, dist, mean)
		b := loadGenFixture(t, 9).BatchSizes(rounds, dist, mean)
		min, max, total := a[0], a[0], 0
		for i, s := range a {
			if s != b[i] {
				t.Fatalf("%v: round %d differs across equal seeds", dist, i)
			}
			if s < 1 {
				t.Fatalf("%v: empty batch at round %d", dist, i)
			}
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
			total += s
		}
		if dist != dataplane.ArrivalUniform && max < 2*mean {
			t.Fatalf("%v: max batch %d shows no burst (mean %d)", dist, max, mean)
		}
		if dist == dataplane.ArrivalHeavyTail && min > mean {
			t.Fatalf("%v: min batch %d — no small rounds", dist, min)
		}
		if total == 0 {
			t.Fatalf("%v: no traffic", dist)
		}
	}
}

// loadGenStreamPin is streamHash's value at the commit before the
// generator read its host and port tables from the topology's port table
// (6e38d8b). Every bench workload draws its inputs from these streams.
const loadGenStreamPin = "e45320dc2bc1a7d1"

// streamHash hashes, for the paper's five applications and ring(4) and
// seeds 0-19, the 24 injections a fresh generator draws and then eight
// matcher probes.
func streamHash(t *testing.T) uint64 {
	h := fnv.New64a()
	for _, a := range append(apps.All(), apps.Ring(4)) {
		et, err := ets.Build(a.Prog, a.Topo)
		if err != nil {
			t.Fatal(err)
		}
		n, err := et.ToNES()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			g := dataplane.NewLoadGen(n, a.Topo, seed)
			for _, in := range g.Injections(24) {
				fmt.Fprintf(h, "%s|%s;", in.Host, in.Fields.Key())
			}
			for _, p := range g.Probes(8) {
				fmt.Fprintf(h, "%d:%d@%d|%s;", p.Switch, p.InPort, p.Tag, p.Fields.Key())
			}
		}
	}
	return h.Sum64()
}

// TestLoadGenStreamPin: a seed draws the same injections and probes as it
// did when the generator derived its own tables.
func TestLoadGenStreamPin(t *testing.T) {
	if got := fmt.Sprintf("%016x", streamHash(t)); got != loadGenStreamPin {
		t.Fatalf("stream hash %s, pinned %s: a seed no longer draws the inputs it drew", got, loadGenStreamPin)
	}
}

package runtime

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/trace"
)

// oracleApp is one application of the oracle pass, compiled once.
type oracleApp struct {
	a     apps.App
	n     *nes.NES
	hosts map[netkat.Location]bool
}

// oracleApps are the paper's five applications and ring(4).
func oracleApps(tb testing.TB) []oracleApp {
	var set []oracleApp
	for _, a := range append(apps.All(), apps.Ring(4)) {
		set = append(set, oracleApp{a: a, n: buildNES(tb, a), hosts: a.Topo.HostLocs()})
	}
	return set
}

// oraclePass is one machine pass of the oracle path, as the benchmark's
// oracle-check workload runs it: per application, 24 LoadGen packets,
// New, Inject, Step to quiescence, NetTrace and the Definition 6 oracle.
func oraclePass(tb testing.TB, set []oracleApp, seed int64) {
	for _, x := range set {
		m := New(x.n, x.a.Topo, seed, seed%2 == 0)
		for _, in := range dataplane.NewLoadGen(x.n, x.a.Topo, seed).Injections(24) {
			if err := m.Inject(in.Host, in.Fields); err != nil {
				tb.Fatal(err)
			}
		}
		for m.Step() {
		}
		if err := trace.CheckNES(m.NetTrace(), x.n, x.hosts); err != nil {
			tb.Fatalf("%s, seed %d: %v", x.a.Name, seed, err)
		}
	}
}

// BenchmarkOracleRun is oraclePass over the paper's five applications
// and ring(4). The seed advances with every pass. Run it with -benchmem.
func BenchmarkOracleRun(b *testing.B) {
	set := oracleApps(b)
	b.ReportAllocs()
	seed := int64(0)
	for b.Loop() {
		oraclePass(b, set, seed)
		seed++
	}
}

// TestOracleRunAllocs pins the allocations of one oracle pass, averaged
// over seeds 1-20: at most 1 034 objects, 5 % over the 985 measured
// (1 273 when Inject cloned every injected header map; about 1 500 when
// every machine seeded a math/rand source and derived
// its slot table, and every load generator its host and port tables,
// from the topology; about 2 570 when the oracle also built every DStep
// successor slice it compared and a delivery cloned its header map).
func TestOracleRunAllocs(t *testing.T) {
	set := oracleApps(t)
	seed := int64(0)
	n := testing.AllocsPerRun(20, func() {
		oraclePass(t, set, seed)
		seed++
	})
	t.Logf("%.0f allocations per oracle pass", n)
	if n > 1034 {
		t.Errorf("one oracle pass allocates %.0f objects, want <= 1 034", n)
	}
}

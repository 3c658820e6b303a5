package runtime

import (
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/trace"
)

// BenchmarkOracleRun is one machine pass of the oracle path over the
// paper's five applications and ring(4), as the benchmark's oracle-check
// workload runs it: per application, 24 LoadGen packets, New, Inject,
// Step to quiescence, NetTrace and the Definition 6 oracle. The seed
// advances with every pass. Run it with -benchmem.
func BenchmarkOracleRun(b *testing.B) {
	type app struct {
		a     apps.App
		n     *nes.NES
		hosts map[netkat.Location]bool
	}
	var set []app
	for _, a := range append(apps.All(), apps.Ring(4)) {
		set = append(set, app{a: a, n: buildNES(b, a), hosts: a.Topo.HostLocs()})
	}
	b.ReportAllocs()
	seed := int64(0)
	for b.Loop() {
		for _, x := range set {
			m := New(x.n, x.a.Topo, seed, seed%2 == 0)
			for _, in := range dataplane.NewLoadGen(x.n, x.a.Topo, seed).Injections(24) {
				if err := m.Inject(in.Host, in.Fields); err != nil {
					b.Fatal(err)
				}
			}
			for m.Step() {
			}
			if err := trace.CheckNES(m.NetTrace(), x.n, x.hosts); err != nil {
				b.Fatalf("%s, seed %d: %v", x.a.Name, seed, err)
			}
		}
		seed++
	}
}

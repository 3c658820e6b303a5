package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
)

// seedTracePin is the FNV-64a hash computed by traceHash. The order
// actions() counts rule instances in is the domain of the scheduler's
// draw, so any change to it changes which execution a seed names; this
// constant says it has not. It moved once, when the scheduler's draws
// left a math/rand source for a splitmix64 stream (6e38d8b to its child):
// the slot order stayed, and under the old math/rand draws the port-table
// layout still hashed to the previous pin, 9d56d4fb4b057b24.
const seedTracePin = "6bf7adb70e7667b0"

// traceHash runs the paper's five applications and ring(4) over 20 seeds,
// with and without controller assistance, injecting 24 LoadGen packets
// with one Step between injections, and hashes every recorded trace point
// (packet key, location, direction) and every packet tree.
func traceHash(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, a := range append(apps.All(), apps.Ring(4)) {
		n := buildNES(t, a)
		for seed := int64(0); seed < 20; seed++ {
			for _, assist := range []bool{false, true} {
				m := New(n, a.Topo, seed, assist)
				for _, in := range dataplane.NewLoadGen(n, a.Topo, seed).Injections(24) {
					if err := m.Inject(in.Host, in.Fields); err != nil {
						t.Fatal(err)
					}
					m.Step()
				}
				if err := m.RunToQuiescence(); err != nil {
					t.Fatal(err)
				}
				nt := m.NetTrace()
				num(len(nt.Packets))
				for _, p := range nt.Packets {
					h.Write([]byte(p.Pkt.Key()))
					num(p.Loc.Switch)
					num(p.Loc.Port)
					if p.Out {
						num(1)
					} else {
						num(0)
					}
				}
				trees := nt.Trees()
				num(len(trees))
				for _, tree := range trees {
					num(len(tree))
					for _, i := range tree {
						num(i)
					}
				}
				num(len(m.Deliveries))
			}
		}
	}
	return h.Sum64()
}

// TestSeedTracePin: the same seed gives the same execution, point for
// point, as it did when the pin was taken.
func TestSeedTracePin(t *testing.T) {
	if got := fmt.Sprintf("%016x", traceHash(t)); got != seedTracePin {
		t.Fatalf("trace hash %s, pinned %s: a seed no longer names the execution it named when pinned", got, seedTracePin)
	}
}

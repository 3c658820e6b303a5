package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"eventnet/internal/apps"
)

// simTracePin is the FNV-64a hash simTraceHash computed when every send a
// generator would make was still pushed onto the heap up front and every
// heap element carried a closure. The simulator's pop order is the total
// order on (at, seq); any change to it moves a recorded point, a delivery
// time or the drop count, and so this hash.
const simTracePin = "923e0e150c5067e6"

// simTraceHash runs the firewall ping script (both planes, InstallDelay
// 2) and a ring(3) bulk transfer (both planes, 0.2 s at 1.05/SwitchProcTime
// with 120 us switches) with Record on, and hashes every trace point
// (header key, location, direction), every packet-tree path, every
// delivery (host, time, header key) and the drop count.
func simTraceHash(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	fw := buildNES(t, apps.Firewall())
	ring := buildNES(t, apps.Ring(3))
	for _, kind := range []PlaneKind{PlaneKindTagged, PlaneKindUncoord} {
		for _, s := range []*Sim{firewallPings(fw, kind), ringBulk(ring, kind, 0.2)} {
			nt := s.NetTrace()
			num(uint64(len(nt.Packets)))
			for _, p := range nt.Packets {
				h.Write([]byte(p.Pkt.Key()))
				num(uint64(p.Loc.Switch))
				num(uint64(p.Loc.Port))
				if p.Out {
					num(1)
				} else {
					num(0)
				}
			}
			trees := nt.Trees()
			num(uint64(len(trees)))
			for _, tree := range trees {
				num(uint64(len(tree)))
				for _, i := range tree {
					num(uint64(i))
				}
			}
			num(uint64(len(s.Delivered)))
			for _, d := range s.Delivered {
				h.Write([]byte(d.Host))
				num(math.Float64bits(d.Time))
				h.Write([]byte(d.Fields.Key()))
			}
			num(uint64(s.Dropped))
		}
	}
	return h.Sum64()
}

// TestSimTracePin: the simulator pops the same events in the same order,
// point for point and delivery for delivery, as it did before the heap
// held only in-flight work.
func TestSimTracePin(t *testing.T) {
	if got := fmt.Sprintf("%016x", simTraceHash(t)); got != simTracePin {
		t.Fatalf("sim trace hash %s, pinned %s: the simulator's event order moved", got, simTracePin)
	}
}

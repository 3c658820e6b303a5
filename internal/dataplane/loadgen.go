package dataplane

import (
	"math"
	"math/rand"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/splitmix"
	"eventnet/internal/topo"
)

// Injection is one host emission a LoadGen produced.
type Injection struct {
	Host   string
	Fields netkat.Packet
}

// Probe is one raw matcher probe: a packet presented at a switch ingress
// port under a version tag, the unit of the benchmark's table-lookup
// layer metrics and of the table-level fuzz target.
type Probe struct {
	Switch int
	InPort int
	Tag    uint32
	Fields netkat.Packet
}

// LoadGen is a deterministic traffic source for the line-rate harness: a
// seeded stream of host-to-host injections (for the Engine) and raw
// table probes (for the lookup benchmarks), drawn from the
// topology's real hosts, ports, and the NES's configuration universe so
// the generated traffic exercises the installed rules rather than the
// default-drop path.
type LoadGen struct {
	rng     *rand.Rand
	seed    int64         // caller's seed, pre-mix (Derive starts from it)
	hosts   []topo.Host   // by name; this and the next two are the topology's port table's, read-only
	swPorts map[int][]int // switch -> plausible ingress ports
	sws     []int
	configs int
}

// streamSeed is the documented seed-derivation rule:
//
//	stream(seed, k) = mix(mix(seed) ^ mix(k+1))
//
// where mix is the splitmix64 finalizer. Because mix avalanches each
// argument independently before they combine, linear seed schedules
// cannot alias: stream(s, k) and stream(s+d, k-d) share no structure, so
// per-switch or per-worker generators derived from consecutive stream
// indices never collide with a neighboring base seed. (The +1 keeps
// stream 0 distinct from the base generator itself.)
func streamSeed(seed, stream int64) int64 {
	return int64(splitmix.Mix(splitmix.Mix(uint64(seed)) ^ splitmix.Mix(uint64(stream)+1)))
}

// NewLoadGen builds a generator for the NES over its topology. Equal
// seeds yield equal streams; the seed is finalizer-mixed before use (see
// streamSeed), so numerically adjacent seeds produce unrelated traffic.
func NewLoadGen(n *nes.NES, t *topo.Topology, seed int64) *LoadGen {
	pt := t.Ports()
	return &LoadGen{
		rng:     rand.New(rand.NewSource(int64(splitmix.Mix(uint64(seed))))),
		seed:    seed,
		hosts:   pt.ByName,
		swPorts: pt.SwPorts,
		sws:     pt.Switches,
		configs: len(n.Configs),
	}
}

// Derive returns an independent generator for a numbered substream
// (per-switch, per-worker, per-scenario): the same topology tables, a
// fresh rng seeded by streamSeed(seed, stream). Unlike ad-hoc seed+k
// offsets, derived streams cannot alias across base seeds.
func (g *LoadGen) Derive(stream int64) *LoadGen {
	d := *g
	d.seed = streamSeed(g.seed, stream)
	d.rng = rand.New(rand.NewSource(int64(splitmix.Mix(uint64(d.seed)))))
	return &d
}

// Injections returns k host emissions with random (src, dst) host pairs,
// carrying the workload's src/dst convention so application rules match.
func (g *LoadGen) Injections(k int) []Injection {
	out := make([]Injection, 0, k)
	for i := 0; i < k; i++ {
		src := g.hosts[g.rng.Intn(len(g.hosts))]
		dst := g.hosts[g.rng.Intn(len(g.hosts))]
		out = append(out, Injection{
			Host:   src.Name,
			Fields: netkat.Packet{"dst": dst.ID, "src": src.ID, "id": i},
		})
	}
	return out
}

// ArrivalDist selects the shape of a batch-size (arrival) process.
type ArrivalDist int

const (
	// ArrivalUniform draws batch sizes uniformly around the mean.
	ArrivalUniform ArrivalDist = iota
	// ArrivalBursty is an on/off process: mostly near-idle rounds with
	// occasional bursts several times the mean.
	ArrivalBursty
	// ArrivalHeavyTail draws from a discrete power law: most rounds are
	// tiny, rare rounds are tens of times the mean.
	ArrivalHeavyTail
)

// String renders the distribution name.
func (d ArrivalDist) String() string {
	switch d {
	case ArrivalBursty:
		return "bursty"
	case ArrivalHeavyTail:
		return "heavy-tail"
	}
	return "uniform"
}

// BatchSizes draws `rounds` per-generation injection counts from the
// distribution, each at least 1, targeting roughly `mean` per round.
// The draw consumes the generator's stream, so it is deterministic per
// seed and interleaves reproducibly with Injections/Probes calls.
func (g *LoadGen) BatchSizes(rounds int, dist ArrivalDist, mean int) []int {
	if mean < 1 {
		mean = 1
	}
	out := make([]int, rounds)
	for i := range out {
		switch dist {
		case ArrivalBursty:
			// One round in four is a burst of ~3-4x the mean; the rest
			// idle along at a fraction of it.
			if g.rng.Intn(4) == 0 {
				out[i] = 3*mean + g.rng.Intn(mean+1)
			} else {
				out[i] = 1 + g.rng.Intn((mean+3)/4)
			}
		case ArrivalHeavyTail:
			// Inverse-power sampling, exponent ~1.3, capped at 50x mean.
			u := g.rng.Float64()
			if u < 1e-4 {
				u = 1e-4
			}
			s := int(0.4 * float64(mean) / math.Pow(u, 1.3))
			if s < 1 {
				s = 1
			}
			if limit := 50 * mean; s > limit {
				s = limit
			}
			out[i] = s
		default:
			out[i] = 1 + g.rng.Intn(2*mean-1)
		}
	}
	return out
}

// Probes returns k matcher probes: a random switch, one of its real
// ingress ports, a random configuration tag, and fields addressing a
// random host pair.
func (g *LoadGen) Probes(k int) []Probe {
	out := make([]Probe, 0, k)
	for i := 0; i < k; i++ {
		sw := g.sws[g.rng.Intn(len(g.sws))]
		ports := g.swPorts[sw]
		port := 1
		if len(ports) > 0 {
			port = ports[g.rng.Intn(len(ports))]
		}
		src := g.hosts[g.rng.Intn(len(g.hosts))]
		dst := g.hosts[g.rng.Intn(len(g.hosts))]
		out = append(out, Probe{
			Switch: sw,
			InPort: port,
			Tag:    uint32(g.rng.Intn(g.configs)),
			Fields: netkat.Packet{"dst": dst.ID, "src": src.ID},
		})
	}
	return out
}

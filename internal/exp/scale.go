package exp

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
)

// ScalePoint is one cell of the multi-core sweep: the engine-forward
// throughput of the bandwidth-cap-200 workload at one (GOMAXPROCS,
// workers) combination.
type ScalePoint struct {
	Procs   int     `json:"procs"`
	Workers int     `json:"workers"`
	PPS     float64 `json:"pps"`     // packets forwarded to completion per second
	NsHop   float64 `json:"ns_hop"`  // wall ns per switch-hop
	Speedup float64 `json:"speedup"` // vs workers=1 at the same GOMAXPROCS
}

// ScaleResult is the multi-core scaling sweep plus its determinism
// witness: Hash fingerprints the stamped delivery sequence of a fixed
// reference workload, verified bit-identical at every worker count
// before any throughput is measured.
type ScaleResult struct {
	Table  *Table       `json:"-"`
	Points []ScalePoint `json:"points"`
	Hash   uint64       `json:"delivery_hash"`
}

// scaleHash fingerprints a stamped delivery sequence.
func scaleHash(ds []dataplane.Delivery) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		fmt.Fprintf(h, "%s|%s|%d.%d;", d.Host, d.Fields.Key(), d.Stamp.Epoch, d.Stamp.Version)
	}
	return h.Sum64()
}

// Scale is the multi-core throughput sweep (`experiments -only
// scale-cores`): batched engine forward on bandwidth-cap-200 across a
// GOMAXPROCS × workers matrix. Each point injects ~packets packets in
// 512-packet batches and runs to quiescence; pps and ns/hop come from
// the timed region only (the engine is warmed first). Before measuring,
// the delivery sequence of a fixed workload is checked bit-identical at
// every swept worker count — scaling that changed observable behavior
// would be a bug, not a result. Near-linear speedup needs real cores:
// on a single-CPU host every point degenerates to ~1×.
func Scale(packets int) (*ScaleResult, error) {
	a := apps.BandwidthCap(200)
	n, err := BuildNES(a)
	if err != nil {
		return nil, err
	}
	maxProcs := runtime.NumCPU()
	procsSet := []int{}
	for _, p := range []int{1, 2, 4, 8, 16} {
		if p <= maxProcs {
			procsSet = append(procsSet, p)
		}
	}
	if last := procsSet[len(procsSet)-1]; last != maxProcs {
		procsSet = append(procsSet, maxProcs)
	}
	workersSet := []int{1, 2, 4, 8, 16}

	// Determinism witness first, independent of GOMAXPROCS.
	res := &ScaleResult{}
	witness := func(workers int) uint64 {
		e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers})
		lg := dataplane.NewLoadGen(n, a.Topo, 23)
		for r := 0; r < 3; r++ {
			if _, errs := e.InjectBatch(lg.Injections(200)); errs != nil {
				panic(errs)
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
		return scaleHash(e.Deliveries())
	}
	res.Hash = witness(1)
	for _, w := range workersSet[1:] {
		if h := witness(w); h != res.Hash {
			return nil, fmt.Errorf("exp: scale sweep nondeterministic: workers=1 hash %x, workers=%d hash %x", res.Hash, w, h)
		}
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	t := &Table{
		Title: fmt.Sprintf("Multi-core engine forward: bandwidth-cap-200, batched ingress, ~%d packets/point (host has %d CPUs)",
			packets, maxProcs),
		Columns: []string{"procs", "workers", "pps", "ns_hop", "speedup_vs_w1"},
	}
	res.Table = t
	for _, procs := range procsSet {
		runtime.GOMAXPROCS(procs)
		var base float64
		for _, workers := range workersSet {
			e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: workers, DeliveryLog: 1 << 14})
			lg := dataplane.NewLoadGen(n, a.Topo, 23)
			batch := lg.Injections(512)
			round := func() {
				if _, errs := e.InjectBatch(batch); errs != nil {
					panic(errs)
				}
				if err := e.Run(); err != nil {
					panic(err)
				}
			}
			round() // warm rings, free lists, emission index
			h0 := e.Processed()
			injected := 0
			start := time.Now()
			for injected < packets {
				round()
				injected += len(batch)
			}
			elapsed := time.Since(start).Seconds()
			hops := e.Processed() - h0
			p := ScalePoint{
				Procs:   procs,
				Workers: workers,
				PPS:     float64(injected) / elapsed,
				NsHop:   elapsed * 1e9 / float64(hops),
			}
			if workers == 1 {
				base = p.PPS
			}
			p.Speedup = p.PPS / base
			res.Points = append(res.Points, p)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(procs), fmt.Sprint(workers),
				fmt.Sprintf("%.0f", p.PPS), fmt.Sprintf("%.1f", p.NsHop), fmt.Sprintf("%.2f", p.Speedup),
			})
		}
	}
	return res, nil
}

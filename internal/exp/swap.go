package exp

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// SwapResult carries the audit counters alongside the result table (the
// tests assert on them; the table is what experiments prints).
type SwapResult struct {
	Table *Table
	// Mixed counts deliveries that contradict their injection's stamp or
	// its program's netkat.Eval prediction — any packet that touched both
	// programs' rules would land here. Dropped counts Eval-predicted
	// deliveries that never arrived.
	Mixed, Dropped int
	// SteadyPPS is the mean of the two programs' steady-state forwarding
	// rates (a transition forwards a blend of both); TransitionPPS is the
	// rate inside the flip->retire drain windows.
	SteadyPPS     float64
	TransitionPPS float64
}

// Swap is the live-update experiment: bandwidth-cap-40 forwards a
// LoadGen stream on a served engine while the controller repeatedly
// hot-swaps the program (40 -> 80 -> 40 -> ...), each swap staged with a
// full batch mid-journey so the drain window is never empty. It reports:
//
//   - steady-state forwarding rate of both programs (the transition
//     forwards a blend, so the baseline is their mean);
//   - the rate inside the flip->retire windows and its ratio to steady;
//   - per-swap latency (stage->retire) and drain-window length;
//   - a full per-packet consistency audit: every delivery is checked
//     against netkat.Eval of the exact program generation its stamp pins
//     it to, so a single packet forwarded by mixed rule sets — or
//     dropped by the transition — is counted.
//
// packets sets the steady-state stream length per program; the
// transition phase feeds the same stream continuously across `swaps`
// swaps. Methodology notes live in docs/BENCHMARKS.md.
func Swap(packets int) *SwapResult {
	a40 := apps.BandwidthCap(40)
	a80 := apps.BandwidthCap(80)
	const workers = 2
	const batch = 8192
	const swaps = 6

	c := ctrl.New(a40.Topo, ctrl.Options{Workers: workers})
	defer c.Close()
	if err := c.Load(a40.Name, a40.Prog); err != nil {
		panic(err)
	}
	e := c.Engine()
	progs := []*ctrl.Program{c.Current()} // epoch -> program

	lg := dataplane.NewLoadGen(c.Current().NES, a40.Topo, 11)
	stream := lg.Injections(4096)

	// stamps[id] records each injection's stamp; the injection itself is
	// reconstructible from the repeating stream (audit bookkeeping must
	// stay allocation-light so its GC debt does not land in the drain
	// windows being measured). The id counter, the batch construction that
	// reads it, and the stamps append all run inside e.Do (barrier-serial):
	// the transition phase calls injectBatch from the feeder goroutine and
	// the swap loop concurrently, and the audit's stamps[i] <-> id i
	// correspondence only holds if ids are allocated in the same serial
	// order the stamps land.
	var stamps []dataplane.Stamp
	id := 0
	injectBatch := func(k int) {
		e.Do(func() {
			base := id
			id += k
			ins := make([]dataplane.Injection, k)
			for j := 0; j < k; j++ {
				in := stream[(base+j)%len(stream)]
				f := in.Fields.Clone()
				f["id"] = base + j
				ins[j] = dataplane.Injection{Host: in.Host, Fields: f}
			}
			sts, errs := e.InjectBatch(ins)
			if errs != nil {
				for _, err := range errs {
					if err != nil {
						panic(err)
					}
				}
			}
			stamps = append(stamps, sts...)
		})
	}
	swapTo := func(a apps.App) ctrl.SwapReport {
		rep, err := c.Swap(a.Name, a.Prog)
		if err != nil {
			panic(err)
		}
		progs = append(progs, c.Current())
		return rep
	}
	steady := func() float64 {
		injectBatch(batch) // warm
		e.Quiesce()
		s0 := e.Snapshot()
		t0 := time.Now()
		for spent := 0; spent < packets; spent += batch {
			injectBatch(batch)
		}
		e.Quiesce()
		return float64(e.Snapshot().Processed-s0.Processed) / time.Since(t0).Seconds()
	}

	// Steady-state rate of each program, interleaved around a warm-up
	// swap cycle (quiet swaps between, excluded from the transition
	// metrics). Medians over windows follow the repo's benchmark
	// methodology: this container's timing is noisy, so every reported
	// rate is a median, not a single window.
	steady40s := []float64{steady()}
	swapTo(a80)
	steady80s := []float64{steady()}
	swapTo(a40)
	steady40s = append(steady40s, steady())
	swapTo(a80)
	steady80s = append(steady80s, steady())
	swapTo(a40)
	steady40, steady80 := median(steady40s), median(steady80s)
	steadyMean := (steady40 + steady80) / 2

	// Transition phase: a feeder keeps the line rate up, and each swap is
	// staged right after a fresh batch was admitted, so the flip always
	// lands with a full generation of the old program mid-journey. The
	// compile/steady phases' GC debt is flushed first so it is not
	// collected inside the windows being measured.
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			injectBatch(batch)
		}
	}()
	var windowPPS []float64
	var drainedHops int64
	var transDur, latency time.Duration
	var carried int
	targets := []apps.App{a80, a40}
	for i := 0; i < swaps; i++ {
		injectBatch(batch) // guarantee in-flight depth at the flip
		rep := swapTo(targets[i%2])
		if rep.TransitionMS > 0 {
			windowPPS = append(windowPPS, float64(rep.TransitionHops)/(rep.TransitionMS/1000))
		}
		drainedHops += rep.DrainedHops
		transDur += time.Duration(rep.TransitionMS * float64(time.Millisecond))
		latency += time.Duration(rep.LatencyMS * float64(time.Millisecond))
		carried += rep.CarriedEvents
	}
	close(stop)
	<-done
	e.Quiesce()

	transPPS := median(windowPPS)

	mixed, dropped := auditDeliveries(a40.Topo, progs, stream, stamps, e.CopyDeliveries(0))

	ratio := 0.0
	if steadyMean > 0 {
		ratio = 100 * transPPS / steadyMean
	}
	t := &Table{
		Title: "Live swap: bandwidth-cap-40 <-> 80 under LoadGen traffic (served engine, 2 workers)",
		Columns: []string{"app", "packets", "swaps", "steady40_pps", "steady80_pps", "transition_pps", "ratio_pct",
			"swap_latency_ms", "transition_ms", "drained_hops", "carried_events", "mixed", "dropped"},
	}
	t.Rows = append(t.Rows, []string{
		a40.Name, fmt.Sprint(id), fmt.Sprint(swaps),
		fmt.Sprintf("%.0f", steady40), fmt.Sprintf("%.0f", steady80),
		fmt.Sprintf("%.0f", transPPS), fmt.Sprintf("%.1f", ratio),
		fmt.Sprintf("%.3f", float64(latency.Microseconds())/1000/swaps),
		fmt.Sprintf("%.3f", float64(transDur.Microseconds())/1000/swaps),
		fmt.Sprint(drainedHops), fmt.Sprint(carried), fmt.Sprint(mixed), fmt.Sprint(dropped),
	})
	return &SwapResult{Table: t, Mixed: mixed, Dropped: dropped, SteadyPPS: steadyMean, TransitionPPS: transPPS}
}

// median returns the median of a sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// auditDeliveries verifies per-packet consistency: every delivery must
// carry its injection's stamp, and every injection's delivery set must
// equal exactly what netkat.Eval predicts for the stamped program
// generation and configuration.
func auditDeliveries(tp *topo.Topology, progs []*ctrl.Program, stream []dataplane.Injection, stamps []dataplane.Stamp, deliveries []dataplane.Delivery) (mixed, dropped int) {
	byID := map[int][]dataplane.Delivery{}
	for _, d := range deliveries {
		i, ok := d.Fields["id"]
		if !ok {
			mixed++
			continue
		}
		byID[i] = append(byID[i], d)
	}
	// The id field rides through every rewrite untouched, so predictions
	// are memoized with id stripped: one Eval per distinct (program
	// generation, version, host, header fields) instead of one per packet.
	memo := map[string]map[string]bool{}
	for i, st := range stamps {
		if st.Epoch < 0 || st.Epoch >= len(progs) {
			mixed++
			continue
		}
		in := stream[i%len(stream)]
		base := in.Fields.Clone()
		delete(base, "id")
		mk := fmt.Sprintf("%d|%d|%s|%s", st.Epoch, st.Version, in.Host, base.Key())
		want, ok := memo[mk]
		if !ok {
			want = evalDeliveries(tp, progs[st.Epoch], in.Host, base, st)
			memo[mk] = want
		}
		got := map[string]bool{}
		for _, d := range byID[i] {
			if d.Stamp != st {
				mixed++
				continue
			}
			df := d.Fields.Clone()
			delete(df, "id")
			key := d.Host + "|" + df.Key()
			if !want[key] || got[key] {
				mixed++
				continue
			}
			got[key] = true
		}
		dropped += len(want) - len(got)
	}
	return mixed, dropped
}

// evalDeliveries is the reference prediction for one injection under its
// stamp.
func evalDeliveries(tp *topo.Topology, p *ctrl.Program, host string, fields netkat.Packet, st dataplane.Stamp) map[string]bool {
	state, ok := p.StateOf(st.Version)
	if !ok {
		return nil
	}
	pol := stateful.Project(p.Prog.Cmd, state)
	h, _ := tp.HostByName(host)
	out := map[string]bool{}
	for _, lp := range netkat.Eval(pol, netkat.LocatedPacket{Pkt: fields, Loc: h.Attach}) {
		if _, hh, _ := tp.Across(lp.Loc); hh != nil {
			out[hh.Name+"|"+lp.Pkt.Key()] = true
		}
	}
	return out
}

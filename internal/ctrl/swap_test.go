package ctrl_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// compileProgram builds a ctrl.Program without a controller (tests drive
// the engine synchronously for determinism).
func compileProgram(t testing.TB, a apps.App) *ctrl.Program {
	t.Helper()
	e, err := ets.Build(a.Prog, a.Topo)
	if err != nil {
		t.Fatalf("%s: ets.Build: %v", a.Name, err)
	}
	n, err := e.ToNES()
	if err != nil {
		t.Fatalf("%s: ToNES: %v", a.Name, err)
	}
	return &ctrl.Program{Name: a.Name, Prog: a.Prog, ETS: e, NES: n}
}

// expectedSet computes the deliveries netkat.Eval predicts for an
// injection under its stamp: the program named by the stamp's epoch,
// projected at the state behind the stamp's version, applied to the
// packet at the ingress attachment port. Journey outputs at host-facing
// ports are deliveries.
func expectedSet(t *testing.T, p *ctrl.Program, tp *topo.Topology, host string, fields netkat.Packet, st dataplane.Stamp) map[string]bool {
	t.Helper()
	state, ok := p.StateOf(st.Version)
	if !ok {
		t.Fatalf("stamp version %d out of range for %s", st.Version, p.Name)
	}
	pol := stateful.Project(p.Prog.Cmd, state)
	h, _ := tp.HostByName(host)
	out := map[string]bool{}
	for _, lp := range netkat.Eval(pol, netkat.LocatedPacket{Pkt: fields, Loc: h.Attach}) {
		if lk, ok := tp.LinkFrom(lp.Loc); ok {
			if hh, isHost := tp.HostByID(lk.Dst.Switch); isHost {
				out[hh.Name+"|"+lp.Pkt.Key()] = true
			}
		}
	}
	return out
}

type injection struct {
	host   string
	fields netkat.Packet
}

// runSwapScenario drives a deterministic randomized scenario on a
// synchronous engine: seeded traffic rounds, a swap staged at a seeded
// round with packets mid-journey (Step leaves them between hops), then a
// drain. It verifies per-packet consistency — every delivery carries its
// injection's stamp, and the delivery set of every injection equals
// exactly what netkat.Eval predicts for the stamped program — and
// returns the full delivery sequence for cross-worker comparison.
func runSwapScenario(t *testing.T, old, new_ *ctrl.Program, tp *topo.Topology, seed int64, workers int) []dataplane.Delivery {
	t.Helper()
	e := dataplane.NewEngine(old.NES, tp, dataplane.Options{Workers: workers})
	mapping, _ := ctrl.EventMapping(old.NES, new_.NES)

	r := rand.New(rand.NewSource(seed))
	hosts := append([]topo.Host{}, tp.Hosts...)

	const rounds = 8
	swapRound := 1 + r.Intn(rounds-2)
	var sw *dataplane.Swap
	stamps := map[int]dataplane.Stamp{}
	injected := map[int]injection{}
	id := 0
	for round := 0; round < rounds; round++ {
		if round == swapRound {
			var err error
			sw, err = e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(new_.NES), MapEvent: mapping})
			if err != nil {
				t.Fatalf("StageSwap: %v", err)
			}
		}
		for j, k := 0, 2+r.Intn(4); j < k; j++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			f := netkat.Packet{"dst": dst.ID, "src": src.ID, "id": id}
			st, errs := e.InjectBatch([]dataplane.Injection{{Host: src.Name, Fields: f}})
			if errs != nil {
				t.Fatal(errs[0])
			}
			stamps[id] = st[0]
			injected[id] = injection{host: src.Name, fields: f.Clone()}
			id++
		}
		// Partial progress: packets stay mid-journey across rounds, so the
		// flip lands with both epochs in flight.
		e.Step(r.Intn(3))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	default:
		t.Fatal("swap did not complete after the network drained")
	}

	auditDeliveries(t, tp, []*ctrl.Program{old, new_}, injected, stamps, e.Deliveries())
	return e.Deliveries()
}

// auditDeliveries is the per-packet consistency check: every delivery
// carries its injection's stamp, and the delivery set of every injection
// equals exactly what netkat.Eval predicts for the program generation
// (progs is indexed by epoch) and configuration its stamp names.
func auditDeliveries(t *testing.T, tp *topo.Topology, progs []*ctrl.Program, injected map[int]injection, stamps map[int]dataplane.Stamp, ds []dataplane.Delivery) {
	t.Helper()
	byID := map[int][]dataplane.Delivery{}
	for _, d := range ds {
		i, ok := d.Fields["id"]
		if !ok {
			t.Fatalf("delivery without id: %v", d)
		}
		if d.Stamp != stamps[i] {
			t.Fatalf("packet %d delivered under stamp %+v but was injected under %+v: journey mixed rule sets", i, d.Stamp, stamps[i])
		}
		byID[i] = append(byID[i], d)
	}
	for i, in := range injected {
		p := progs[stamps[i].Epoch]
		want := expectedSet(t, p, tp, in.host, in.fields, stamps[i])
		got := map[string]bool{}
		for _, d := range byID[i] {
			key := d.Host + "|" + d.Fields.Key()
			if got[key] {
				t.Fatalf("packet %d delivered twice as %s", i, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("packet %d (stamp %+v, program %s): delivered %v, Eval predicts %v", i, stamps[i], p.Name, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("packet %d: Eval predicts %s, not delivered", i, k)
			}
		}
	}
}

// swapPairs are the program transitions the properties quantify over:
// a cross-application swap (firewall -> bandwidth cap, sharing the
// outgoing-arrival event) and a same-application revision (cap raise).
// inject queues one packet on the controller's served engine.
func inject(t *testing.T, c *ctrl.Controller, host string, fields netkat.Packet) {
	t.Helper()
	if errs := c.Engine().InjectAsyncBatch([]dataplane.Injection{{Host: host, Fields: fields}}); errs != nil {
		t.Fatal(errs[0])
	}
}

// delivered counts the packets delivered to a host so far.
func delivered(c *ctrl.Controller, host string) int {
	n := 0
	for _, d := range c.Engine().CopyDeliveries(0) {
		if d.Host == host {
			n++
		}
	}
	return n
}

func swapPairs(t *testing.T) [][2]*ctrl.Program {
	fw := compileProgram(t, apps.Firewall())
	cap8 := compileProgram(t, apps.BandwidthCap(8))
	cap6 := compileProgram(t, apps.BandwidthCap(6))
	cap12 := compileProgram(t, apps.BandwidthCap(12))
	return [][2]*ctrl.Program{
		{fw, cap8},
		{cap6, cap12},
		{cap12, fw}, // downgrade: most new-program events have no counterpart
	}
}

// TestSwapPerPacketConsistency is the acceptance property for live swaps:
// across randomized swap points, no packet journey ever mixes P and P'
// rules — every delivery matches its injection's stamped program exactly,
// verified against netkat.Eval on both programs. Run with -race in CI.
func TestSwapPerPacketConsistency(t *testing.T) {
	tp := topo.Firewall()
	for _, pair := range swapPairs(t) {
		t.Run(pair[0].Name+"->"+pair[1].Name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				runSwapScenario(t, pair[0], pair[1], tp, seed, 1+int(seed)%4)
			}
		})
	}
}

// TestSwapUnderServedFeed is the same property on the path netd runs: a
// served controller at 2 workers swaps back and forth six times while a
// feeder goroutine keeps injecting, so every flip lands with traffic of
// the outgoing program mid-journey and more arriving during the drain.
// Mixed or dropped deliveries would fail the audit.
func TestSwapUnderServedFeed(t *testing.T) {
	tp := topo.Firewall()
	for _, pair := range swapPairs(t) {
		t.Run(pair[0].Name+"<->"+pair[1].Name, func(t *testing.T) {
			c := ctrl.New(tp, ctrl.Options{Workers: 2})
			defer c.Close()
			if err := c.Load(pair[0].Name, pair[0].Prog); err != nil {
				t.Fatal(err)
			}
			e := c.Engine()
			progs := []*ctrl.Program{c.Current()} // by epoch

			// Injection and its bookkeeping run inside e.Do, serial with
			// the engine's barriers, from the feeder and the swap loop.
			r := rand.New(rand.NewSource(7))
			stamps := map[int]dataplane.Stamp{}
			injected := map[int]injection{}
			var injectErr error
			feed := func() (total int) {
				e.Do(func() {
					for j := 0; j < 16; j++ {
						src, dst := tp.Hosts[r.Intn(len(tp.Hosts))], tp.Hosts[r.Intn(len(tp.Hosts))]
						id := len(stamps)
						f := netkat.Packet{"dst": dst.ID, "src": src.ID, "id": id}
						st, errs := e.InjectBatch([]dataplane.Injection{{Host: src.Name, Fields: f}})
						if errs != nil {
							injectErr = errs[0]
							return
						}
						stamps[id], injected[id] = st[0], injection{host: src.Name, fields: f.Clone()}
					}
					total = len(stamps)
				})
				return total
			}
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if feed() > 4000 { // bounds the audit, not the swaps
						<-stop
						return
					}
				}
			}()
			for i := 0; i < 6; i++ {
				feed() // a batch mid-journey at the flip
				next := pair[(i+1)%2]
				if _, err := c.Swap(next.Name, next.Prog); err != nil {
					t.Fatal(err)
				}
				progs = append(progs, c.Current())
			}
			feed() // the last generation too, even if the feeder has hit its bound
			close(stop)
			<-done
			c.Engine().Quiesce()
			if injectErr != nil {
				t.Fatal(injectErr)
			}
			epochs := map[int]bool{}
			for _, st := range stamps {
				epochs[st.Epoch] = true
			}
			if len(epochs) != len(progs) {
				t.Fatalf("traffic entered under %d of %d program generations; scenario is vacuous", len(epochs), len(progs))
			}
			auditDeliveries(t, tp, progs, injected, stamps, e.CopyDeliveries(0))
		})
	}
}

// TestSwapDeterministicAcrossWorkers: the delivery sequence of a swap
// scenario — including stamps — is bit-identical at 1, 2 and 4 workers.
func TestSwapDeterministicAcrossWorkers(t *testing.T) {
	tp := topo.Firewall()
	pair := swapPairs(t)[0]
	for seed := int64(1); seed <= 4; seed++ {
		base := runSwapScenario(t, pair[0], pair[1], tp, seed, 1)
		if len(base) == 0 {
			t.Fatalf("seed %d delivered nothing; scenario is vacuous", seed)
		}
		for _, w := range []int{2, 4} {
			got := runSwapScenario(t, pair[0], pair[1], tp, seed, w)
			assertSameDeliveries(t, base, got, fmt.Sprintf("seed %d workers %d", seed, w))
		}
	}
}

func assertSameDeliveries(t *testing.T, a, b []dataplane.Delivery, ctx string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d deliveries", ctx, len(a), len(b))
	}
	for i := range a {
		if a[i].Host != b[i].Host || a[i].Stamp != b[i].Stamp || !a[i].Fields.Equal(b[i].Fields) {
			t.Fatalf("%s: delivery %d differs: %+v vs %+v", ctx, i, a[i], b[i])
		}
	}
}

// TestControllerSwapCarriesKnowledge drives the served controller
// end-to-end: the firewall's established event knowledge (the opened
// return path) survives a swap to the bandwidth cap — the cap starts
// counting from the firewall's history instead of resetting — and a swap
// back to the firewall carries it again.
func TestControllerSwapCarriesKnowledge(t *testing.T) {
	fw := apps.Firewall()
	c := ctrl.New(fw.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load("firewall", fw.Prog); err != nil {
		t.Fatal(err)
	}

	// Open the return path under the firewall.
	inject(t, c, "H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)})
	c.Engine().Quiesce()
	if got := delivered(c, "H4"); got != 1 {
		t.Fatalf("outgoing not delivered: %d", got)
	}

	capApp := apps.BandwidthCap(3)
	rep, err := c.Swap(capApp.Name, capApp.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MappedEvents != 1 {
		t.Fatalf("firewall's event should map into the cap: %+v", rep)
	}
	if rep.CarriedEvents == 0 {
		t.Fatalf("no knowledge carried at the flip: %+v", rep)
	}

	// The cap inherited count=1: the return path is open immediately.
	inject(t, c, "H4", netkat.Packet{"dst": apps.H(1), "src": apps.H(4)})
	c.Engine().Quiesce()
	if got := delivered(c, "H1"); got != 1 {
		t.Fatalf("return path closed after swap: carried knowledge lost (%d delivered)", got)
	}

	// Swap back: the cap's history maps onto the firewall's single event.
	rep2, err := c.Swap("firewall", fw.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CarriedEvents == 0 {
		t.Fatalf("swap back carried nothing: %+v", rep2)
	}
	inject(t, c, "H4", netkat.Packet{"dst": apps.H(1), "src": apps.H(4), "id": 2})
	c.Engine().Quiesce()
	if got := delivered(c, "H1"); got != 2 {
		t.Fatalf("return path closed after swapping back (%d delivered)", got)
	}
	st := c.Status()
	if st.Program != "firewall" || st.Epoch != 2 || len(st.Swaps) != 2 {
		t.Fatalf("status after two swaps: %+v", st)
	}
}

// TestSwapRejectsConcurrent: only one transition may be active.
func TestSwapRejectsConcurrent(t *testing.T) {
	fw := compileProgram(t, apps.Firewall())
	cap8 := compileProgram(t, apps.BandwidthCap(8))
	e := dataplane.NewEngine(fw.NES, topo.Firewall(), dataplane.Options{})
	// Keep a packet in flight so the first swap stays draining.
	if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1)}); err != nil {
		t.Fatal(err)
	}
	e.Step(1)
	mapping, _ := ctrl.EventMapping(fw.NES, cap8.NES)
	if _, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(cap8.NES), MapEvent: mapping}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(fw.NES)}); err == nil {
		t.Fatal("second concurrent swap accepted")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStatusSwapHistoryBounded: Status keeps the newest SwapHistory swap
// reports, oldest first, however many swaps the controller has served —
// a long-running netd's memory and /status body do not grow with them.
// The swaps ping-pong between two memoized programs, with no traffic.
func TestStatusSwapHistoryBounded(t *testing.T) {
	a, b := apps.Firewall(), apps.BandwidthCap(8)
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 1})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	var reps []ctrl.SwapReport
	for i := 0; i < ctrl.SwapHistory+6; i++ {
		next := b
		if i%2 == 1 {
			next = a
		}
		rep, err := c.Swap(next.Name, next.Prog)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	got := c.Status().Swaps
	if len(got) != ctrl.SwapHistory {
		t.Fatalf("Status holds %d swap reports after %d swaps, want %d", len(got), len(reps), ctrl.SwapHistory)
	}
	if want := reps[6:]; !slices.Equal(got, want) {
		t.Fatalf("Status's swaps are not the newest %d, oldest first:\n got first/last %+v / %+v\nwant first/last %+v / %+v",
			ctrl.SwapHistory, got[0], got[len(got)-1], want[0], want[len(want)-1])
	}
}

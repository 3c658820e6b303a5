package dataplane_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
)

// TestEngineStopIdempotentLeakFree: netd restarts engines around swaps,
// so shutdown must be idempotent (Stop twice, Stop before Start, Stop
// mid-batch) and leak no goroutines across many start/stop cycles. The
// engine also stays usable synchronously after Stop: packets stranded
// mid-batch drain with a plain Run.
func TestEngineStopIdempotentLeakFree(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	lg := dataplane.NewLoadGen(n, a.Topo, 3)

	baseline := runtime.NumGoroutine()

	// Stop on a never-started engine, twice.
	e0 := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2})
	e0.Stop()
	e0.Stop()

	for cycle := 0; cycle < 8; cycle++ {
		e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2})
		e.Start()
		e.Start() // idempotent
		for _, in := range lg.Injections(60) {
			if err := e.InjectAsync(in.Host, in.Fields); err != nil {
				t.Fatal(err)
			}
		}
		e.Stop() // mid-batch: traffic likely still queued
		e.Stop() // idempotent
		// The supervisor is gone; the synchronous API still drains what
		// was left behind, and a post-Stop Start must stay a no-op.
		e.Start()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d after start/stop cycles", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineQuiesceUnderLoad: Quiesce returns only once served traffic
// has fully drained, and the delivery count is then stable.
func TestEngineQuiesceUnderLoad(t *testing.T) {
	a := apps.BandwidthCap(10)
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2})
	e.Start()
	defer e.Stop()
	lg := dataplane.NewLoadGen(n, a.Topo, 5)
	for _, in := range lg.Injections(200) {
		if err := e.InjectAsync(in.Host, in.Fields); err != nil {
			t.Fatal(err)
		}
	}
	e.Quiesce()
	s := e.Snapshot()
	if s.Pending != 0 {
		t.Fatalf("quiesced with %d packets pending", s.Pending)
	}
	if s.Deliveries == 0 {
		t.Fatal("workload delivered nothing; test is vacuous")
	}
}

// TestRetiredProgramIsCollectable: once a swap retires a program, nothing
// the engine keeps — no field, no slot of its epoch list, no worker's
// memo — may pin it. The flip lands with packets of the old epoch in
// flight, so it retires mid-run, and the engine stays referenced
// throughout the check.
func TestRetiredProgramIsCollectable(t *testing.T) {
	a := apps.Firewall()
	for _, w := range []int{1, 2} {
		e, retired := func() (*dataplane.Engine, weak.Pointer[nes.NES]) {
			n := buildNES(t, a)
			e := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: w})
			for _, in := range dataplane.NewLoadGen(n, a.Topo, 1).Injections(8) {
				if err := e.Inject(in.Host, in.Fields); err != nil {
					t.Fatal(err)
				}
			}
			e.Step(1)
			sw, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(buildNES(t, a))})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			<-sw.Done()
			if st := sw.Stats(); st.RetireGen == st.FlipGen {
				t.Fatalf("%d workers: nothing was in flight at the flip; test is vacuous", w)
			}
			return e, weak.Make(n)
		}()
		runtime.GC()
		runtime.GC()
		if retired.Value() != nil {
			t.Errorf("%d workers: the retired program is still reachable", w)
		}
		runtime.KeepAlive(e)
	}
}

// TestPlanIsSnapshot: a plan is the tables as they stood when PlanFor
// lowered them. A table mutated afterwards leaves that plan forwarding as
// before, and the next PlanFor — which lowers afresh, nothing is cached —
// sees the change.
func TestPlanIsSnapshot(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	p1 := dataplane.PlanFor(n)

	// Find a probe that forwards under configuration 0.
	var probeSw, probePort int
	var probePkt netkat.Packet
	found := false
	for sw, tbl := range n.Configs[0].Tables {
		for _, r := range tbl.Rules {
			if len(r.Groups) == 0 || r.Match.InPort == flowtable.Wildcard {
				continue
			}
			probeSw, probePort = sw, r.Match.InPort
			probePkt = netkat.Packet{}
			for f, v := range r.Match.Fields {
				probePkt[f] = v
			}
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no forwarding rule to probe")
	}
	forwards := func(p *dataplane.Plan) bool {
		m, ok := p.Flat(0, probeSw)
		return ok && len(m.Process(nil, probePkt, probePort, 0)) > 0
	}
	if !forwards(p1) {
		t.Fatal("probe does not forward under the original plan")
	}

	// The program is "recompiled in place": a shadowing drop rule lands at
	// the top of the table while the NES value is reused.
	n.Configs[0].Tables[probeSw].Add(flowtable.Rule{
		Priority: 1 << 30,
		Match:    flowtable.Match{InPort: flowtable.Wildcard},
	})

	if !forwards(p1) {
		t.Fatal("the plan is not a snapshot: mutating the NES's table changed it")
	}
	if forwards(dataplane.PlanFor(n)) {
		t.Fatal("a fresh PlanFor still serves the pre-change rules")
	}
}

// TestMergedPairStagedInstall: the phase-one staged table — both
// programs' rules behind disjoint exact guards — forwards every old tag
// exactly like the old program's own table and every offset new tag
// exactly like the new program's, through both the compiled table and
// the linear scan of the staged table.
func TestMergedPairStagedInstall(t *testing.T) {
	old := buildNES(t, apps.Firewall())
	new_ := buildNES(t, apps.BandwidthCap(8))
	merged, off := dataplane.MergedPair(old, new_)
	if off != len(old.Configs) {
		t.Fatalf("offset %d, want %d", off, len(old.Configs))
	}
	// The staged tables are gathered per switch and sorted once; the rule
	// order must be the one that installing configuration by configuration
	// (a stable priority sort after each) arrives at.
	if got, want := merged.String(), mergedRef(old, new_).String(); got != want {
		t.Fatalf("staged rule order moved:\n got %s\nwant %s", got, want)
	}
	hosts := hostAddrs(apps.Firewall().Topo)
	r := rand.New(rand.NewSource(17))
	schema := dataplane.SchemaForPair(old, new_)
	for _, sw := range merged.Switches() {
		ct := dataplane.CompileFlat(merged[sw], schema)
		mscan := dataplane.Scan{Table: merged[sw]}
		check := func(n *nes.NES, base int) {
			for ci := range n.Configs {
				ref := refOf(n, ci, sw)
				for i := 0; i < 60; i++ {
					pkt, port, _ := randProbe(r, hosts)
					tag := uint32(base + ci)
					got := ct.Process(nil, pkt, port, tag)
					viaScan := mscan.Process(nil, pkt, port, tag)
					want := ref.Process(nil, pkt, port, 0)
					if !sameOutputs(got, want) || !sameOutputs(viaScan, want) {
						t.Fatalf("sw %d tag %d (base %d config %d) pkt %v port %d:\nflat-merged %v\nmerged-scan %v\nper-config %v",
							sw, tag, base, ci, pkt, port, got, viaScan, want)
					}
				}
			}
		}
		check(old, 0)
		check(new_, off)
	}
}

// mergedRef is the staged install built the definitional way: every
// (configuration, switch) table re-guarded and installed on its own.
func mergedRef(progs ...*nes.NES) flowtable.Tables {
	tags := 0
	for _, n := range progs {
		tags += len(n.Configs)
	}
	bits := 1
	for 1<<uint(bits) < tags {
		bits++
	}
	dst := flowtable.Tables{}
	tag := uint32(0)
	for _, n := range progs {
		for ci := range n.Configs {
			for sw, tbl := range n.Configs[ci].Tables {
				var rs []flowtable.Rule
				for _, r := range tbl.Rules {
					r.Match = r.Match.Clone()
					r.Match.Guard = flowtable.ExactGuard(tag, bits)
					rs = append(rs, r)
				}
				dst.Get(sw).AddAll(rs)
			}
			tag++
		}
	}
	return dst
}

// TestPlanLowersDistinctTables is the count gate behind "a plan holds one
// flat table per distinct table": the compiler hands every state whose
// switch behaves identically the same *flowtable.Table (bandwidth-cap-200
// is 202 configurations of 2 switches drawn from 4 tables), PlanFor
// lowers each once, and a revision compiled through the same cache reuses
// the tables of the switches it did not change.
func TestPlanLowersDistinctTables(t *testing.T) {
	cache := nkc.NewProgramCache()
	compile := func(a apps.App) *nes.NES {
		e, _, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.ToNES()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	tablesOf := func(n *nes.NES, into map[*flowtable.Table]bool) (slots int) {
		for ci := range n.Configs {
			for _, tbl := range n.Configs[ci].Tables {
				into[tbl] = true
				slots++
			}
		}
		return slots
	}

	n200 := compile(apps.BandwidthCap(200))
	distinct := map[*flowtable.Table]bool{}
	if slots := tablesOf(n200, distinct); slots != 404 {
		t.Fatalf("bandwidth-cap-200 has %d (configuration, switch) slots, want 404", slots)
	}
	if len(distinct) > 8 {
		t.Errorf("bandwidth-cap-200 holds %d distinct tables in 404 slots, want <= 8", len(distinct))
	}
	p := dataplane.PlanFor(n200)
	if got := p.DistinctFlats(); got > 8 {
		t.Errorf("the plan of bandwidth-cap-200 lowered %d flat tables, want <= 8", got)
	}

	before := len(distinct)
	tablesOf(compile(apps.BandwidthCap(264)), distinct)
	if added := len(distinct) - before; added > 4 {
		t.Errorf("bandwidth-cap-264 compiled after cap-200 on one cache added %d table pointers, want <= 4", added)
	}
}

// loopNES builds a pathological program whose rules forward every packet
// around the s1<->s4 cycle forever — the shape a bad northbound
// submission could install.
func loopNES(t *testing.T) *nes.NES {
	t.Helper()
	tables := flowtable.Tables{}
	for _, sw := range []int{1, 4} {
		tables.Get(sw).Add(flowtable.Rule{
			Priority: 1,
			Match:    flowtable.Match{InPort: flowtable.Wildcard},
			Groups:   []flowtable.ActionGroup{{OutPort: 1}},
		})
	}
	n, err := nes.New(nil, map[nes.Set]int{nes.Empty: 0}, []nes.Config{{ID: 0, Tables: tables}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineHopTTL: a forwarding loop must not wedge the engine. The
// per-packet TTL discards the circulating packet, so a synchronous Run
// quiesces and — the case that matters for the daemon — a served engine
// still quiesces, drains swaps, and stops.
func TestEngineHopTTL(t *testing.T) {
	tp := apps.Firewall().Topo
	n := loopNES(t)

	e := dataplane.NewEngine(n, tp, dataplane.Options{Workers: 2})
	if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("looping packet did not quiesce under the TTL: %v", err)
	}
	if got := len(e.Deliveries()); got != 0 {
		t.Fatalf("looping packet delivered %d times", got)
	}
	if p := e.Processed(); p < 1000 || p > 1100 {
		t.Fatalf("TTL fired at %d hops", p)
	}

	// Served mode: Quiesce must return despite the loop.
	es := dataplane.NewEngine(n, tp, dataplane.Options{Workers: 2})
	es.Start()
	defer es.Stop()
	if err := es.InjectAsync("H1", netkat.Packet{"dst": apps.H(4)}); err != nil {
		t.Fatal(err)
	}
	es.Quiesce()
	if s := es.Snapshot(); s.Pending != 0 || s.TTLDropped != 1 {
		t.Fatalf("served loop not TTL-drained: %+v", s)
	}
}

// TestDeliveryLogBound: with DeliveryLog set, the engine retains a
// bounded window while total counts and absolute CopyDeliveries indices
// keep working — the memory guarantee a long-running daemon needs.
func TestDeliveryLogBound(t *testing.T) {
	a := apps.Firewall()
	n := buildNES(t, a)
	e := dataplane.NewEngine(n, a.Topo, dataplane.Options{DeliveryLog: 8})
	const total = 40
	for i := 0; i < total; i++ {
		if err := e.Inject("H1", netkat.Packet{"dst": apps.H(4), "src": apps.H(1), "id": i}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Snapshot()
	if s.Deliveries != total {
		t.Fatalf("total delivery count %d, want %d", s.Deliveries, total)
	}
	retained := e.CopyDeliveries(0)
	if len(retained) > 8 {
		t.Fatalf("log retained %d deliveries, bound is 8", len(retained))
	}
	last := e.CopyDeliveries(total - 1)
	if len(last) != 1 || last[0].Fields["id"] != total-1 {
		t.Fatalf("absolute indexing broken after trim: %+v", last)
	}
}

// TestStageSwapLowersNothingAtFlip pins what SwapSpec.Plan guarantees and
// ctrl.Swap relies on: staging a plan forwards through that very plan's
// schema and tables, and the work left for the flip — which runs at a
// generation barrier with every worker parked — is the per-engine wiring
// (a row per configuration, a guard per event), not a pass over the
// rules.
func TestStageSwapLowersNothingAtFlip(t *testing.T) {
	a := apps.Firewall()
	e := dataplane.NewEngine(buildNES(t, a), a.Topo, dataplane.Options{Workers: 2})
	for _, capN := range []int{10, 40} {
		next := buildNES(t, apps.BandwidthCap(capN))
		plan := dataplane.PlanFor(next)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sw, err := e.StageSwap(dataplane.SwapSpec{Plan: plan})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		<-sw.Done() // nothing in flight: flipped and retired at one barrier

		if !e.ForwardsWith(plan) {
			t.Fatalf("cap-%d: the engine does not forward through the plan it was handed", capN)
		}
		// One row per configuration, a few arrays per event guard, the swap
		// handle. Lowering even one table costs more than this whole budget
		// (a rule alone is four arrays, a table adds its index maps).
		budget := uint64(32 + len(next.Configs) + 4*len(next.Events))
		if allocs := after.Mallocs - before.Mallocs; allocs > budget {
			t.Fatalf("cap-%d: staging allocates %d times, budget %d (%d configs, %d events): something is lowered at the flip",
				capN, allocs, budget, len(next.Configs), len(next.Events))
		}
	}
}

// TestSwapStatsHopCounts pins what a swap reports it forwarded: 400
// firewall packets one generation in when the program flips to
// bandwidth-cap-8, and 100 more stamped by the new program. The
// transition's hops (both epochs) and the old epoch's drained hops are
// engine counts taken between flip and retire, so they do not depend on
// the worker count or on whether observability is attached.
func TestSwapStatsHopCounts(t *testing.T) {
	const wantTransition, wantDrained = 207, 107
	a := apps.Firewall()
	n := buildNES(t, a)
	n2 := buildNES(t, apps.BandwidthCap(8))
	for _, w := range []int{1, 2, 4} {
		for _, withObs := range []bool{false, true} {
			opts := dataplane.Options{Workers: w}
			if withObs {
				opts.Obs = fullObs(w)
			}
			e := dataplane.NewEngine(n, a.Topo, opts)
			inject := func(seed int64, k int) {
				for _, in := range dataplane.NewLoadGen(n, a.Topo, seed).Injections(k) {
					if err := e.Inject(in.Host, in.Fields); err != nil {
						t.Fatal(err)
					}
				}
			}
			inject(1, 400)
			e.Step(1)
			sw, err := e.StageSwap(dataplane.SwapSpec{Plan: dataplane.PlanFor(n2)})
			if err != nil {
				t.Fatal(err)
			}
			inject(2, 100)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			<-sw.Done()
			if st := sw.Stats(); st.TransitionHops != wantTransition || st.DrainedHops != wantDrained {
				t.Errorf("%d workers, obs %v: TransitionHops %d, DrainedHops %d; want %d, %d",
					w, withObs, st.TransitionHops, st.DrainedHops, wantTransition, wantDrained)
			}
		}
	}
}

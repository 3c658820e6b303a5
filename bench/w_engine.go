package main

import (
	"fmt"
	"runtime"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/obs"
)

// Frozen sizes of engine-forward (see README "Frozen sizes").
const (
	engineBatch      = 512     // packets per InjectBatch round
	engineBatches    = 64      // distinct pre-generated batches, cycled
	engineReadEvery  = 64      // rounds between CopyDeliveries reads
	engineDeliveries = 1 << 16 // delivery-log bound, as netd sets it
	engineAudited    = 4096    // packets of the audited pass, per program
	engineProbes     = 4096    // matcher probes
)

// compiled is a program taken through the pipeline once, in the shape
// the auditor and the engines need.
type compiled struct {
	app  apps.App
	prog *ctrl.Program
}

func compileApp(a apps.App) (*compiled, error) {
	e, stats, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", a.Name, err)
	}
	n, err := e.ToNES()
	if err != nil {
		return nil, fmt.Errorf("converting %s: %w", a.Name, err)
	}
	dataplane.PlanFor(n)
	return &compiled{app: a, prog: &ctrl.Program{Name: a.Name, Prog: a.Prog, ETS: e, NES: n, Stats: stats}}, nil
}

func (c *compiled) nes() *nes.NES { return c.prog.NES }

// batchesOf cuts a LoadGen stream into engineBatches read-only batches.
func batchesOf(c *compiled, seed int64, size int) [][]dataplane.Injection {
	stream := dataplane.NewLoadGen(c.nes(), c.app.Topo, seed).Injections(size * engineBatches)
	out := make([][]dataplane.Injection, engineBatches)
	for i := range out {
		out[i] = stream[i*size : (i+1)*size]
	}
	return out
}

// injectErrs counts the rejected packets of a batch.
func injectErrs(errs []error) int64 {
	var n int64
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}

// syncPhase is the measured shape of one synchronous forwarding phase.
type syncPhase struct {
	segs                      []segment
	hops                      int64
	read                      int64 // deliveries read back by CopyDeliveries
	allocsPerPkt, bytesPerPkt float64
	failed                    int64
}

// syncRun is a fresh engine with its round operation: InjectBatch + Run,
// and every engineReadEvery rounds a read of the recent deliveries (the
// read is part of the timed work: it is how a caller sees what was
// delivered).
type syncRun struct {
	eng         *dataplane.Engine
	k           *track
	batches     [][]dataplane.Injection
	round       int64
	read, read0 int
	hops0       int64
	failed      int64
	err         error
}

func startSync(c *compiled, batches [][]dataplane.Injection, opts dataplane.Options, k *track) *syncRun {
	opts.DeliveryLog = engineDeliveries
	r := &syncRun{eng: dataplane.NewEngine(c.nes(), c.app.Topo, opts), k: k, batches: batches}
	// Two untimed rounds warm rings, plan and buffers, and carry the cap
	// program past its last event so the timed region is steady.
	r.op()
	r.op()
	r.read0, r.hops0 = r.read, r.eng.Processed()
	return r
}

func (r *syncRun) readBack() {
	root := r.k.begin("bench.read", -1, r.round)
	s := r.k.begin("dataplane.CopyDeliveries", root, r.round)
	r.read += len(r.eng.CopyDeliveries(r.read))
	r.k.end(s)
	r.k.end(root)
}

func (r *syncRun) op() float64 {
	b := r.batches[r.round%int64(len(r.batches))]
	root := r.k.begin("bench.round", -1, r.round)
	s := r.k.begin("dataplane.InjectBatch", root, r.round)
	_, errs := r.eng.InjectBatch(b)
	r.k.end(s)
	r.failed += injectErrs(errs)
	s = r.k.begin("dataplane.Run", root, r.round)
	if err := r.eng.Run(); err != nil && r.err == nil {
		r.err = err
	}
	r.k.end(s)
	r.k.end(root)
	r.round++
	if r.round%engineReadEvery == 0 {
		r.readBack()
	}
	return float64(len(b))
}

func (r *syncRun) finish(segs []segment) syncPhase {
	r.readBack() // the tail since the last cadence read, outside the segments
	return syncPhase{segs: segs, hops: r.eng.Processed() - r.hops0, read: int64(r.read - r.read0), failed: r.failed}
}

// pairedSync times two engine configurations on the same batches in
// alternating slices (runPaired) for budget. Allocation is per packet of
// either.
func pairedSync(clk *refClock, c *compiled, batches [][]dataplane.Injection, optsA, optsB dataplane.Options, budget time.Duration, kA, kB *track) (a, b syncPhase, err error) {
	ra, rb := startSync(c, batches, optsA, kA), startSync(c, batches, optsB, kB)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	as, bs := runPaired(clk, budget, ra.op, rb.op)
	runtime.ReadMemStats(&m1)
	a, b = ra.finish(as), rb.finish(bs)
	pa, _, _ := totals(as)
	pb, _, _ := totals(bs)
	a.allocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / (pa + pb)
	a.bytesPerPkt = float64(m1.TotalAlloc-m0.TotalAlloc) / (pa + pb)
	b.allocsPerPkt, b.bytesPerPkt = a.allocsPerPkt, a.bytesPerPkt
	if err = ra.err; err == nil {
		err = rb.err
	}
	return a, b, err
}

// forwardSync times one engine configuration for budget.
func forwardSync(clk *refClock, c *compiled, batches [][]dataplane.Injection, opts dataplane.Options, budget time.Duration, k *track) (syncPhase, error) {
	r := startSync(c, batches, opts, k)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	segs := runSegments(clk, budget, r.op)
	runtime.ReadMemStats(&m1)
	ph := r.finish(segs)
	pkts, _, _ := totals(segs)
	ph.allocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / pkts
	ph.bytesPerPkt = float64(m1.TotalAlloc-m0.TotalAlloc) / pkts
	return ph, r.err
}

// forwardAsync is the served-mode path netd uses, minus HTTP: Start,
// then InjectAsyncBatch + Quiesce per round.
func forwardAsync(clk *refClock, c *compiled, batches [][]dataplane.Injection, budget time.Duration, k *track) ([]segment, int64) {
	eng := dataplane.NewEngine(c.nes(), c.app.Topo, dataplane.Options{Workers: 1, DeliveryLog: engineDeliveries})
	eng.Start()
	defer eng.Stop()
	var failed int64
	round := int64(0)
	op := func() float64 {
		b := batches[round%int64(len(batches))]
		root := k.begin("bench.round", -1, round)
		s := k.begin("dataplane.InjectAsyncBatch", root, round)
		failed += injectErrs(eng.InjectAsyncBatch(b))
		k.end(s)
		s = k.begin("dataplane.Quiesce", root, round)
		eng.Quiesce()
		k.end(s)
		k.end(root)
		round++
		return float64(len(b))
	}
	op()
	op()
	return runSegments(clk, budget, op), failed
}

// auditedTraffic injects a fixed number of uniquely numbered packets
// into a fresh engine with an unlimited delivery log and returns what was
// sent (with stamps), every delivery, and the hops executed.
func auditedTraffic(c *compiled, seed int64, packets int) ([]sentPacket, []dataplane.Delivery, int64, error) {
	eng := dataplane.NewEngine(c.nes(), c.app.Topo, dataplane.Options{Workers: 1})
	stream := dataplane.NewLoadGen(c.nes(), c.app.Topo, seed).Injections(packets)
	sent := make([]sentPacket, 0, packets)
	for lo := 0; lo < len(stream); lo += engineBatch {
		hi := min(lo+engineBatch, len(stream))
		ins := make([]dataplane.Injection, 0, hi-lo)
		for i := lo; i < hi; i++ {
			f := stream[i].Fields.Clone()
			f["id"] = i
			ins = append(ins, dataplane.Injection{Host: stream[i].Host, Fields: f})
		}
		stamps, errs := eng.InjectBatch(ins)
		if n := injectErrs(errs); n != 0 {
			return nil, nil, 0, fmt.Errorf("audited pass: %d packets rejected", n)
		}
		for i, in := range ins {
			f, _, _ := splitID(in.Fields)
			sent = append(sent, sentPacket{Host: in.Host, Fields: f, Stamp: stamps[i]})
		}
		if err := eng.Run(); err != nil {
			return nil, nil, 0, err
		}
	}
	return sent, eng.Deliveries(), eng.Processed(), nil
}

// auditedPass audits every delivery of auditedTraffic. Being fixed work,
// it also yields the exact per-packet counts.
func auditedPass(c *compiled, seed int64, packets int) (counts auditCounts, hopsPerPkt, delivPerPkt float64, err error) {
	sent, ds, hops, err := auditedTraffic(c, seed, packets)
	if err != nil {
		return counts, 0, 0, err
	}
	counts = newAuditor(c.app.Topo, []*ctrl.Program{c.prog}).audit(sent, ds)
	return counts, float64(hops) / float64(packets), float64(len(ds)) / float64(packets), nil
}

// matcherNs times one matcher form over the probe stream (ns/lookup).
func matcherNs(budget time.Duration, probes []dataplane.Probe, process func(buf []flowtable.Output, p *dataplane.Probe) []flowtable.Output, k *track, name string) float64 {
	var buf []flowtable.Output
	for i := range probes { // warm
		buf = process(buf[:0], &probes[i])
	}
	s := k.begin(name, -1, 0)
	start := time.Now()
	n := 0
	for time.Since(start) < budget || n == 0 {
		for i := range probes {
			buf = process(buf[:0], &probes[i])
		}
		n += len(probes)
	}
	el := time.Since(start)
	k.end(s)
	return float64(el.Nanoseconds()) / float64(n)
}

func fullObs(workers int) (*obs.Obs, func()) {
	o := &obs.Obs{
		Metrics:        obs.NewMetrics(workers),
		Bus:            obs.NewBus(),
		Trace:          obs.NewTracer(obs.DefaultSample, workers),
		Flight:         obs.NewFlight(0, workers),
		DeliverySample: 16,
	}
	sub := o.Bus.Subscribe(1024)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C {
		}
	}()
	return o, func() { sub.Close(); <-drained }
}

func runEngineForward(x *runCtx) error {
	var cap200, fattree *compiled
	var capBatches, ftBatches [][]dataplane.Injection
	var setupErr error
	setup := x.medianSetup(func() time.Duration {
		if cap200, setupErr = compileApp(apps.BandwidthCap(200)); setupErr != nil {
			return 0
		}
		if fattree, setupErr = compileApp(apps.IDSFatTree(4)); setupErr != nil {
			return 0
		}
		capBatches = batchesOf(cap200, x.seed, engineBatch)
		ftBatches = batchesOf(fattree, x.seed, engineBatch)
		return 0
	})
	if setupErr != nil {
		return setupErr
	}
	x.res.Inputs = digestInjections(capBatches, ftBatches)
	k := x.tr.track("main")
	bare := dataplane.Options{Workers: 1}

	// A traced run alternates traced and untraced slices of the headline
	// phase; the untraced ones are the base of bench.trace_overhead_pct.
	usage := beginSelfUsage()
	reg := x.clk.beginRegion()
	var capPh, refPh syncPhase
	var err error
	if x.traced() {
		capPh, refPh, err = pairedSync(x.clk, cap200, capBatches, bare, bare, x.share(0.55), k, nil)
	} else {
		capPh, err = forwardSync(x.clk, cap200, capBatches, bare, x.share(0.40), k)
	}
	if err != nil {
		return err
	}
	ftPh, err := forwardSync(x.clk, fattree, ftBatches, bare, x.share(0.30), k)
	if err != nil {
		return err
	}
	asyncSegs, asyncFailed := forwardAsync(x.clk, cap200, capBatches, x.share(0.30), k)
	timed := reg.elapsed()
	x.sut = usage.end()

	capPkts, capBusy, _ := totals(capPh.segs)
	ftPkts, ftBusy, _ := totals(ftPh.segs)
	asyncPkts, _, _ := totals(asyncSegs)
	refPkts, _, _ := totals(refPh.segs)
	x.res.Attempted += int64(capPkts + ftPkts + asyncPkts + refPkts)
	x.res.Failed += capPh.failed + ftPh.failed + asyncFailed + refPh.failed

	x.res.e2e("setup_s", "s", value(setup))
	x.res.e2e("fwd_pps", "packets/s", rate(capPh.segs))
	x.res.e2e("fwd_pps_fattree", "packets/s", rate(ftPh.segs))
	x.res.both("dataplane.async_pps", "packets/s", rate(asyncSegs))

	// Untimed: the audited pass and its exact counts.
	capAudit, capHops, capDeliv, err := auditedPass(cap200, x.seed, engineAudited)
	if err != nil {
		return err
	}
	ftAudit, _, _, err := auditedPass(fattree, x.seed, engineAudited)
	if err != nil {
		return err
	}
	x.res.Attempted += 2 * engineAudited
	for _, a := range []struct {
		name string
		c    auditCounts
	}{{"audit.cap200", capAudit}, {"audit.fattree", ftAudit}} {
		x.res.check(a.name, a.c.clean() && a.c.Checked > 0, "checked %d mixed %d dropped %d", a.c.Checked, a.c.Mixed, a.c.Dropped)
	}

	if !x.traced() {
		return nil
	}
	self, _, roots := x.tr.selfTimes()
	refPPS := rate(refPh.segs).Value
	x.res.layer("bench.span_coverage_pct", "%", value(pct(float64(roots), float64((timed-rawWall(refPh.segs)).Nanoseconds()))))
	x.res.layer("bench.trace_overhead_pct", "%", value(pct(refPPS-rate(capPh.segs).Value, refPPS)))
	x.res.layer("dataplane.ns_hop_cap200", "ns", value(float64(capBusy.Nanoseconds())/float64(capPh.hops)))
	x.res.layer("dataplane.ns_hop_fattree", "ns", value(float64(ftBusy.Nanoseconds())/float64(ftPh.hops)))
	x.res.layer("dataplane.allocs_per_pkt", "count", value(capPh.allocsPerPkt))
	x.res.layer("dataplane.bytes_per_pkt", "B", value(capPh.bytesPerPkt))
	x.res.layer("dataplane.hops_per_pkt", "ratio", value(capHops))
	x.res.layer("dataplane.deliveries_per_pkt", "ratio", value(capDeliv))

	// Layer sub-phases, traced runs only: each is a short fixed-share
	// measurement of one layer on its own.
	sub := x.share(0.04)
	k2 := x.tr.track("layers")
	// Span totals of the two sync phases cover both programs; the
	// per-packet and per-hop splits below are over both.
	bothPkts := capPkts + ftPkts
	bothHops := float64(capPh.hops + ftPh.hops)
	x.res.layer("dataplane.inject_ns_pkt", "ns", value(float64(self["dataplane.InjectBatch"])/bothPkts))
	x.res.layer("dataplane.run_ns_hop", "ns", value(float64(self["dataplane.Run"])/bothHops))
	x.res.layer("dataplane.deliveries_ns_each", "ns", value(float64(self["dataplane.CopyDeliveries"])/float64(capPh.read+ftPh.read)))

	plan := dataplane.PlanFor(cap200.nes())
	var probes []dataplane.Probe
	for _, p := range dataplane.NewLoadGen(cap200.nes(), cap200.app.Topo, x.seed).Probes(engineProbes) {
		if _, ok := plan.Flat(int(p.Tag), p.Switch); ok {
			probes = append(probes, p)
		}
	}
	x.res.layer("dataplane.matcher_flat_ns", "ns", value(matcherNs(sub, probes, func(buf []flowtable.Output, p *dataplane.Probe) []flowtable.Output {
		m, _ := plan.Flat(int(p.Tag), p.Switch)
		return m.Process(buf, p.Fields, p.InPort, 0)
	}, k2, "dataplane.FlatMatcher.Process")))
	x.res.layer("dataplane.matcher_map_ns", "ns", value(matcherNs(sub, probes, func(buf []flowtable.Output, p *dataplane.Probe) []flowtable.Output {
		return plan.Matcher(int(p.Tag), p.Switch).Process(buf, p.Fields, p.InPort, 0)
	}, k2, "dataplane.Matcher.Process")))
	x.res.layer("flowtable.scan_ns", "ns", value(matcherNs(sub, probes, func(buf []flowtable.Output, p *dataplane.Probe) []flowtable.Output {
		return cap200.nes().Configs[p.Tag].Tables[p.Switch].AppendProcess(buf, p.Fields, p.InPort, 0)
	}, k2, "flowtable.Table.AppendProcess")))

	// Worker scaling and telemetry overhead: each against a 1-worker bare
	// engine on the same batches, in alternating slices. Scaling is the one
	// number here that needs a second core and the wall clock: on the CPU
	// clock two busy workers cost twice what one does.
	pair := func(clk *refClock, opts dataplane.Options) (base, with float64, err error) {
		b, w, err := pairedSync(clk, cap200, capBatches, bare, opts, 4*sub, nil, nil)
		return rate(b.segs).Value, rate(w.segs).Value, err
	}
	runtime.GOMAXPROCS(2)
	b1, w2, err := pair(newRefClock(wallTime), dataplane.Options{Workers: 2})
	oneCore()
	if err != nil {
		return err
	}
	x.res.layer("dataplane.scale_w2", "ratio", value(w2/b1))
	o, stopObs := fullObs(1)
	b2, wo, err := pair(x.clk, dataplane.Options{Workers: 1, Obs: o})
	stopObs()
	if err != nil {
		return err
	}
	x.res.layer("obs.overhead_ratio", "ratio", value(b2/wo))
	return nil
}

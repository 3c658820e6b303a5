package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
)

// Frozen sizes of swap-under-load (see README "Frozen sizes").
const (
	swapBase      = 200 // the program every run starts from: bandwidth-cap-200
	novelLo       = 201 // never-seen revisions come from the pool
	novelBits     = 7   // bandwidth-cap-201 … 328 (2^7 programs)
	swapBatch     = 512 // packets per feeder batch, as exp.CompileBench
	swapAuditSwap = 6   // swaps of the audited pass (1 novel, 5 memoized)
)

// novelRevisions returns the order in which never-seen revisions are
// submitted: the pool in bit-reversed (van der Corput) order, started at
// a seed-chosen offset. Compile cost grows with the cap, so the order
// matters: any run of consecutive terms of this sequence covers the pool
// evenly, which keeps the median program size the same whichever seed is
// used and however many revisions a run fits into its budget — walking
// up from 201 would make a faster build look slower, and a random draw
// adds the sampling error of its median to every run.
func novelRevisions(seed int64) []apps.App {
	n := 1 << novelBits
	start := rand.New(rand.NewSource(seed)).Intn(n)
	out := make([]apps.App, n)
	for i := range out {
		k := bits.Reverse32(uint32((start+i)%n)) >> (32 - novelBits)
		out[i] = apps.BandwidthCap(novelLo + int(k))
	}
	return out
}

// loaded is a controller serving the base program, with the traffic to
// feed it.
type loaded struct {
	c       *ctrl.Controller
	eng     *dataplane.Engine
	batches [][]dataplane.Injection
	sent    atomic.Int64
	failed  atomic.Int64
	// feedTrack is where the feeder records; the swap loop clears it around
	// an untraced swap.
	feedTrack atomic.Pointer[track]
}

func loadController(seed int64, deliveryLog int) (*loaded, error) {
	base := apps.BandwidthCap(swapBase)
	c := ctrl.New(base.Topo, ctrl.Options{Workers: 1, DeliveryLog: deliveryLog})
	if err := c.Load(base.Name, base.Prog); err != nil {
		c.Close()
		return nil, err
	}
	l := &loaded{c: c, eng: c.Engine()}
	stream := dataplane.NewLoadGen(c.Current().NES, base.Topo, seed).Injections(swapBatch * engineBatches)
	for i := 0; i < engineBatches; i++ {
		l.batches = append(l.batches, stream[i*swapBatch:(i+1)*swapBatch])
	}
	return l, nil
}

// inject admits one batch at an engine barrier (the engine is serving).
func (l *loaded) inject(i int64, k *track, parent int32) {
	b := l.batches[i%int64(len(l.batches))]
	s := k.begin("dataplane.InjectBatch", parent, i)
	l.eng.Do(func() {
		_, errs := l.eng.InjectBatch(b)
		l.failed.Add(injectErrs(errs))
	})
	k.end(s)
	l.sent.Add(int64(len(b)))
}

// feed keeps batches in flight until stop closes: a swap's drain ends at
// a generation boundary, and generations only turn while traffic flows.
func (l *loaded) feed(stop <-chan struct{}) {
	for i := int64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		k := l.feedTrack.Load()
		root := k.begin("bench.feed", -1, i)
		l.inject(i, k, root)
		k.end(root)
	}
}

// startFeeder runs feed in the background; the returned function stops
// it, waits for it, and drains the engine.
func (l *loaded) startFeeder() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.feed(quit)
	}()
	return func() {
		close(quit)
		<-done
		l.eng.Quiesce()
	}
}

// swapSample is one timed ctrl.Swap: ms is the call's time on the CPU
// clock (the feeder and the engine keep the core busy throughout, so it
// is the call's wall time less whatever the host took away); the report's
// own times are wall-clock.
type swapSample struct {
	ms     float64
	t0, t1 time.Time
	rep    ctrl.SwapReport
}

// atReferenceSpeed restates the times of swaps bracketed by readings of
// c (harness.go, "Reference speed").
func (s *swapSample) atReferenceSpeed(c *refClock) {
	k := c.scale(s.t0, s.t1)
	s.ms *= k
	s.rep.CompileMS *= k
	s.rep.LatencyMS *= k
	s.rep.TransitionMS *= k
}

// swapOnce stages a full batch, then swaps, recording the spans the
// SwapReport lets the bench reconstruct from outside: the compile at the
// front of the call and the stage→retire window at its end.
func (l *loaded) swapOnce(op int64, a apps.App, k *track) (swapSample, error) {
	root := k.begin("bench.swap", -1, op)
	l.inject(op, k, root)
	s := k.begin("ctrl.Swap", root, op)
	t0, c0 := time.Now(), cpuTime()
	rep, err := l.c.Swap(a.Name, a.Prog)
	took := cpuTime() - c0
	t1 := time.Now()
	k.end(s)
	if err == nil && k != nil {
		// A memoized program reports the compile time of its first build;
		// nothing was compiled inside this call.
		if compile := time.Duration(rep.CompileMS * float64(time.Millisecond)); compile < t1.Sub(t0)-time.Duration(rep.LatencyMS*float64(time.Millisecond)) {
			k.add("ctrl.Swap.compile", s, op, t0, t0.Add(compile))
		}
		k.add("ctrl.Swap.stage_to_retire", s, op, t1.Add(-time.Duration(rep.LatencyMS*float64(time.Millisecond))), t1)
	}
	k.end(root)
	return swapSample{ms: float64(took.Nanoseconds()) / 1e6, t0: t0, t1: t1, rep: rep}, err
}

func field(ss []swapSample, f func(swapSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// swapAudit is the audited pass: an unlimited delivery log, a unique id
// on every packet, a free-running feeder, and a fixed swap sequence
// (base → 201 novel, then 200 ↔ 201 memoized). Every delivery is checked
// against netkat.Eval of the program generation its stamp names.
func swapAudit(seed int64) (auditCounts, int, error) {
	l, err := loadController(seed, 0)
	if err != nil {
		return auditCounts{}, 0, err
	}
	defer l.c.Close()
	progs := []*ctrl.Program{l.c.Current()}
	// sent and id are only touched inside Do, which the engine runs
	// serially at barriers, so the feeder and the swap loop cannot race.
	var sent []sentPacket
	id := 0
	inject := func() {
		l.eng.Do(func() {
			src := l.batches[(id/swapBatch)%len(l.batches)]
			ins := make([]dataplane.Injection, len(src))
			for j, in := range src {
				f := in.Fields.Clone()
				f["id"] = id + j
				ins[j] = dataplane.Injection{Host: in.Host, Fields: f}
			}
			stamps, errs := l.eng.InjectBatch(ins)
			l.failed.Add(injectErrs(errs))
			for j, in := range src {
				f, _, _ := splitID(in.Fields)
				sent = append(sent, sentPacket{Host: in.Host, Fields: f, Stamp: stamps[j]})
			}
			id += len(src)
		})
	}
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
			inject()
		}
	}()
	targets := []apps.App{apps.BandwidthCap(swapBase + 1), apps.BandwidthCap(swapBase)}
	staged := 0
	for i := 0; i < swapAuditSwap && err == nil; i++ {
		inject()
		var rep ctrl.SwapReport
		if rep, err = l.c.Swap(targets[i%2].Name, targets[i%2].Prog); err == nil {
			progs = append(progs, l.c.Current())
			if i == 0 {
				staged = rep.StagedRules
			}
		}
	}
	close(stop)
	<-done
	if err != nil {
		return auditCounts{}, 0, err
	}
	l.eng.Quiesce()
	if n := l.failed.Load(); n != 0 {
		return auditCounts{}, 0, fmt.Errorf("audited pass: %d packets rejected", n)
	}
	return newAuditor(l.c.Topology(), progs).audit(sent, l.eng.CopyDeliveries(0)), staged, nil
}

func runSwapUnderLoad(x *runCtx) error {
	var l *loaded
	var novel []apps.App
	var setupErr error
	setup := x.medianSetup(func() time.Duration {
		if l != nil {
			l.c.Close()
		}
		novel = novelRevisions(x.seed)
		l, setupErr = loadController(x.seed, engineDeliveries)
		return 0
	})
	if setupErr != nil {
		return setupErr
	}
	defer func() { l.c.Close() }()
	x.res.Inputs = digestInjections(l.batches) + fmt.Sprintf("/%s", novel[0].Name)
	k, kFeed := x.tr.track("main"), x.tr.track("feeder")

	usage := beginSelfUsage()
	reg := x.clk.beginRegion()
	t0, c0 := reg.t0, cpuTime()-x.clk.spent
	l.feedTrack.Store(kFeed)
	stopFeeder := l.startFeeder()
	var swapErr error
	next := int64(0)
	// phase swaps to target(i) until budget is spent (at least min times) or
	// the targets run out. traced(i) false turns recording off around that
	// swap, in the swap loop and the feeder both.
	phase := func(budget time.Duration, min int, traced func(i int) bool, target func(i int) (apps.App, bool)) (on, off []swapSample, offWall time.Duration) {
		start := time.Now()
		for i := 0; swapErr == nil && (i < min || time.Since(start) < budget); i++ {
			a, ok := target(i)
			if !ok {
				break
			}
			x.clk.tick()
			var s swapSample
			if traced(i) {
				s, swapErr = l.swapOnce(next, a, k)
				on = append(on, s)
			} else {
				l.feedTrack.Store(nil)
				o0 := time.Now()
				s, swapErr = l.swapOnce(next, a, nil)
				offWall += time.Since(o0)
				l.feedTrack.Store(kFeed)
				off = append(off, s)
			}
			next++
		}
		return on, off, offWall
	}
	always := func(int) bool { return true }
	// memo first: with only the two ping-pong programs memoized, the
	// swap measures flip + drain, not the controller's memo lookup over
	// whatever revisions the novel phase happened to leave behind. One
	// untimed cycle compiles cap-201 and stages both directions.
	//
	// A traced run goes there and back traced, then there and back
	// untraced; the untraced swaps are the base of bench.trace_overhead_pct.
	// The memoized swap is the shortest operation a span is recorded
	// around, so it is where tracing costs the largest share.
	ab := []apps.App{apps.BandwidthCap(swapBase + 1), apps.BandwidthCap(swapBase)}
	pingPong := func(i int) (apps.App, bool) { return ab[i%2], true }
	phase(0, 2, always, pingPong)
	memoShare, memoMin, memoTraced := 0.45, x.atLeast(5), always
	if x.traced() {
		memoShare, memoMin = 0.60, 4*x.atLeast(5)
		memoTraced = func(i int) bool { return i%4 < 2 }
	}
	memoSwaps, refSwaps, refWall := phase(x.share(memoShare), memoMin, memoTraced, pingPong)
	novelSwaps, _, _ := phase(x.share(0.55), x.atLeast(5), always, func(i int) (apps.App, bool) {
		if i >= len(novel) {
			return apps.App{}, false
		}
		return novel[i], true
	})
	stopFeeder()
	t1, timed, busy := time.Now(), reg.elapsed(), cpuTime()-x.clk.spent-c0
	x.sut = usage.end()
	if swapErr != nil {
		return swapErr
	}
	x.clk.read()
	for _, ss := range [][]swapSample{memoSwaps, refSwaps, novelSwaps} {
		for i := range ss {
			ss[i].atReferenceSpeed(x.clk)
		}
	}

	x.res.Attempted += l.sent.Load() + int64(len(novelSwaps)+len(refSwaps)+len(memoSwaps)+2)
	x.res.Failed += l.failed.Load()
	took := func(s swapSample) float64 { return s.ms }
	x.res.e2e("setup_s", "s", value(setup))
	// The rate is over the CPU time of the whole region less the readings':
	// swaps, feeder and engine share the one core, so that is the time the
	// packets and the swaps took between them.
	x.res.e2e("swap_fwd_pps", "packets/s", value(float64(l.sent.Load())/(busy.Seconds()*x.clk.scale(t0, t1))))
	x.res.e2e("swap_novel_p50_ms", "ms", summarize(field(novelSwaps, took)))
	x.res.e2e("swap_memo_p50_ms", "ms", summarize(field(memoSwaps, took)))

	audit, staged, err := swapAudit(x.seed)
	if err != nil {
		return err
	}
	x.res.check("audit.swap", audit.clean() && audit.Checked > 0, "checked %d mixed %d dropped %d", audit.Checked, audit.Mixed, audit.Dropped)

	if !x.traced() {
		return nil
	}
	// Two goroutines record roots (swap loop and feeder); coverage is of
	// the swap loop's own wall clock, less the untraced swaps.
	var mainRoots int64
	for _, s := range k.Spans {
		if s.Parent < 0 && s.End >= 0 {
			mainRoots += s.End - s.Start
		}
	}
	refP50 := summarize(field(refSwaps, took)).Value
	x.res.layer("bench.span_coverage_pct", "%", value(pct(float64(mainRoots), float64((timed-refWall).Nanoseconds()))))
	x.res.layer("bench.trace_overhead_pct", "%", value(pct(summarize(field(memoSwaps, took)).Value-refP50, refP50)))
	x.res.layer("ctrl.compile_p50_ms", "ms", summarize(field(novelSwaps, func(s swapSample) float64 { return s.rep.CompileMS })))
	x.res.layer("ctrl.stage_to_retire_p50_ms", "ms", summarize(field(novelSwaps, func(s swapSample) float64 { return s.rep.LatencyMS })))
	x.res.layer("ctrl.transition_p50_ms", "ms", summarize(field(memoSwaps, func(s swapSample) float64 { return s.rep.TransitionMS })))
	x.res.layer("ctrl.swap_p90_ms_novel", "ms", value(percentile(field(novelSwaps, took), 0.9)))
	x.res.layer("ctrl.swap_p90_ms_memo", "ms", value(percentile(field(memoSwaps, took), 0.9)))
	x.res.layer("ctrl.staged_rules", "count", value(float64(staged)))
	x.res.layer("ctrl.audit_checked", "count", value(float64(audit.Checked)))
	x.res.layer("ctrl.audit_mixed", "count", value(float64(audit.Mixed)))
	x.res.layer("ctrl.audit_dropped", "count", value(float64(audit.Dropped)))

	// Layer sub-phases: the three staging steps of a novel swap timed on
	// their own (cap-200 → cap-201), and the steady forwarding rate the
	// transition windows are compared with.
	k2 := x.tr.track("layers")
	cur, err := compileApp(apps.BandwidthCap(swapBase))
	if err != nil {
		return err
	}
	nxt, err := compileApp(apps.BandwidthCap(swapBase + 1))
	if err != nil {
		return err
	}
	direct := func(name string, f func()) summary {
		return summarize(timedSamples(x.clk, x.share(0.02), 5, func(i int) bool {
			s := k2.begin(name, -1, int64(i))
			f()
			k2.end(s)
			return true
		}))
	}
	x.res.layer("ctrl.eventmapping_ms", "ms", direct("ctrl.EventMapping", func() { ctrl.EventMapping(cur.nes(), nxt.nes()) }))
	x.res.layer("dataplane.mergedpair_ms", "ms", direct("dataplane.MergedPair", func() { dataplane.MergedPair(cur.nes(), nxt.nes()) }))
	x.res.layer("dataplane.planfor_ms", "ms", direct("dataplane.PlanFor", func() {
		dataplane.Invalidate(nxt.nes())
		dataplane.PlanFor(nxt.nes())
	}))

	// Steady base of ctrl.transition_ratio: the same controller and
	// feeder, no swaps, hops per second.
	l.feedTrack.Store(nil)
	stopFeeder = l.startFeeder()
	x.clk.read()
	h0, s0 := l.eng.Snapshot().Processed, time.Now()
	time.Sleep(x.share(0.08))
	hops, s1 := l.eng.Snapshot().Processed-h0, time.Now()
	x.clk.read()
	steady := float64(hops) / (s1.Sub(s0).Seconds() * x.clk.scale(s0, s1))
	stopFeeder()
	var windows []float64
	for _, s := range memoSwaps {
		if s.rep.TransitionMS > 0 {
			windows = append(windows, float64(s.rep.TransitionHops)/(s.rep.TransitionMS/1000))
		}
	}
	x.res.layer("ctrl.transition_ratio", "%", value(pct(summarize(windows).Value, steady)))
	return nil
}

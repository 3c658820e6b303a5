package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
)

// Frozen sizes of wire-inject (see README "Frozen sizes").
const (
	wireOpenConns = 2    // connections of the open-loop phase (the closed-loop phases use one)
	wireBatch     = 64   // packets per /inject-batch body
	wireBodies    = 256  // distinct pre-encoded bodies per phase, cycled
	wireOpenRate  = 1000 // open-loop requests per second (64-packet batches): about a third of what the one core carries
	wireScrapes   = 3    // sequential GET /metrics at each phase boundary (17 boundaries: 51 scrapes)
	// wireInstances is how many daemons, one after the other, the closed-loop
	// phases are spread over. The same binary costs up to 14 % more CPU per
	// packet in one process than in the next (where its pages land; the
	// counters of work done are identical), and stays that way for the
	// process's life: on a single daemon three runs in ten read 165-170 k
	// packets/s and the rest 190-200 k. Pooled over five daemons the median
	// slice is in the slow mode only when three of them are.
	wireInstances = 5
	// wireWarmShare of the budget is spent, untimed, on each fresh daemon
	// before its slices: the bounded delivery log, the heap and the caches
	// fill in the first second, and a daemon that is still growing costs
	// more per packet.
	wireWarmShare   = 0.025
	wireVerifyBatch = 256 // batches of the untimed /watch verification pass
	wireCap         = 200 // the daemon starts on bandwidth-cap-200
)

var netdArgs = []string{"-app", "bandwidth-cap", "-cap", fmt.Sprint(wireCap), "-workers", "1"}

type wirePacket struct {
	Host   string        `json:"host"`
	Fields netkat.Packet `json:"fields"`
}

func encodeBatch(ins []dataplane.Injection) []byte {
	ps := make([]wirePacket, len(ins))
	for i, in := range ins {
		ps[i] = wirePacket{Host: in.Host, Fields: in.Fields}
	}
	b, _ := json.Marshal(map[string]any{"packets": ps})
	return b
}

// wireClient is the load generator's HTTP side.
type wireClient struct {
	base   string
	hc     *http.Client
	sent   atomic.Int64 // packets in request bodies
	acked  atomic.Int64 // Σ "injected" in 200 responses
	non200 atomic.Int64
	bytes  atomic.Int64 // request body bytes
	ops    atomic.Int64
}

func newWireClient(base string) *wireClient {
	return &wireClient{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: wireOpenConns + 1, DisableCompression: true,
	}}}
}

// reqTimes is what one request returned: the body, and on a traced run
// the time from request written to first response byte (µs).
type reqTimes struct {
	serve float64
	body  []byte
}

// do issues one request. packets is how many packets the body carries
// (for the conservation count). On a traced run it records the request
// span and, from httptrace hooks, its write / serve / read children.
func (c *wireClient) do(method, path string, body []byte, packets int, k *track) (reqTimes, error) {
	var rt reqTimes
	op := c.ops.Add(1)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return rt, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var wrote, first time.Time
	if k != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	root := k.begin("client.request", -1, op)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return rt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	rt.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	k.end(root)
	if err != nil {
		return rt, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if k != nil && !wrote.IsZero() && !first.IsZero() {
		k.add("client.write", root, op, t0, wrote)
		k.add("netd.serve", root, op, wrote, first)
		k.add("client.read", root, op, first, t1)
		rt.serve = float64(first.Sub(wrote).Nanoseconds()) / 1e3
	}
	c.sent.Add(int64(packets))
	c.bytes.Add(int64(len(body)))
	if resp.StatusCode != http.StatusOK {
		c.non200.Add(1)
		return rt, nil
	}
	if packets > 0 {
		var ack struct {
			Injected int64 `json:"injected"`
		}
		if json.Unmarshal(rt.body, &ack) == nil {
			c.acked.Add(ack.Injected)
		}
	}
	return rt, nil
}

// closedPhase is a closed-loop phase: one connection sends its next
// request when the previous one completed.
type closedPhase struct {
	segs  []segment
	serve []float64 // µs, traced runs
	err   error
}

// closedLoop runs the closed-loop client for budget. With paired set it
// alternates traced and untraced slices (runPaired) and the untraced ones
// come back as ref, the base of bench.trace_overhead_pct.
//
// Each request is timed on the wall clock. A slice is timed on the CPU
// clocks of both processes together: generator and daemon share one core
// and the loop is serial, so that sum is the time the slice's requests
// took between them, without what a neighbour took from the core. (A
// request's own time does not say that: the engine forwards a batch after
// its response has gone out, into the next request's time or not, as the
// scheduler has it.)
func (c *wireClient) closedLoop(child int, path string, bodies [][]byte, packets int, budget time.Duration, tr *tracer, paired bool) (ph, ref closedPhase) {
	i := 0
	request := func(k *track) func() float64 {
		return func() float64 {
			rt, err := c.do("POST", path, bodies[i%len(bodies)], packets, k)
			i++
			if err != nil {
				ph.err = err
			}
			if rt.serve > 0 {
				ph.serve = append(ph.serve, rt.serve)
			}
			return 1
		}
	}
	k := tr.track("conn0" + path)
	clk := newRefClock(wallTime)
	clk.slice = func() time.Duration {
		d, err := taskCPUTime(child)
		if err != nil && ph.err == nil {
			ph.err = err
		}
		return cpuTime() + d
	}
	if paired {
		ph.segs, ref.segs = runPaired(clk, budget, request(k), request(nil))
	} else {
		ph.segs = runSegments(clk, budget, request(k))
	}
	return ph, ref
}

// add pools another daemon's share of the phase.
func (p *closedPhase) add(q closedPhase) {
	p.segs = append(p.segs, q.segs...)
	p.serve = append(p.serve, q.serve...)
}

// fast is what a request of the phase takes when no neighbour's time slice
// lands in it (µs at reference speed).
func (p *closedPhase) fast() summary { return fastQuartile(allSamples(p.segs)) }

// openLoop sends batches on a fixed schedule regardless of completions.
// Latency is timed from when a request was due; lateness is how far
// behind its schedule the generator ran.
func (c *wireClient) openLoop(bodies [][]byte, budget time.Duration, tr *tracer) (latency, lateness []float64, err error) {
	n := int64(budget.Seconds() * wireOpenRate)
	if n < wireOpenConns {
		n = wireOpenConns
	}
	interval := time.Second / wireOpenRate
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	for ci := 0; ci < wireOpenConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			k := tr.track(fmt.Sprintf("conn%d/open", ci))
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sentAt := time.Now()
				_, e := c.do("POST", "/inject-batch", bodies[i%int64(len(bodies))], wireBatch, k)
				done := time.Now()
				mu.Lock()
				if e != nil {
					err = e
				}
				latency = append(latency, float64(done.Sub(due).Nanoseconds())/1e3)
				lateness = append(lateness, float64(sentAt.Sub(due).Nanoseconds())/1e3)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	return
}

// boundary is the state read at a phase boundary: wireScrapes
// sequential scrapes (first and last kept) and the child's /proc.
type boundary struct {
	first, last map[string]float64
	proc        procStat
	at          time.Time
	scrapeMS    []float64
}

func (c *wireClient) boundaryRead(n *netdChild, k *track) (boundary, error) {
	var b boundary
	for i := 0; i < wireScrapes; i++ {
		t0 := time.Now()
		rt, err := c.do("GET", "/metrics", nil, 0, k)
		if err != nil {
			return b, err
		}
		b.scrapeMS = append(b.scrapeMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if i != 0 && i != wireScrapes-1 {
			continue // only the first and last scrape of a boundary are read
		}
		m, err := parseMetrics(bytes.NewReader(rt.body))
		if err != nil {
			return b, err
		}
		if i == 0 {
			b.first = m
		}
		b.last = m
	}
	var err error
	b.proc, err = n.proc()
	b.at = time.Now()
	return b, err
}

// phaseDelta is what a phase added, summed over the daemons it ran on:
// to every counter (from the last scrape before it to the first scrape
// after it), to the daemon's CPU time and to the wall clock (seconds).
type phaseDelta struct {
	m         map[string]float64
	cpu, wall float64
}

func (d *phaseDelta) add(before, after boundary) {
	if d.m == nil {
		d.m = map[string]float64{}
	}
	for name, v := range after.first {
		d.m[name] += v - before.last[name]
	}
	d.cpu += after.proc.CPUSeconds - before.proc.CPUSeconds
	d.wall += after.at.Sub(before.at).Seconds()
}

// wireSetup is everything the timed region needs.
type wireSetup struct {
	n        *netdChild
	c        *wireClient
	b64, b1  [][]byte
	revs     []wireRev
	verify   []dataplane.Injection
	digest   string
	baseProg *compiled
}

type wireRev struct {
	app     apps.App
	program []byte // POST /program body
}

func wireSetUp(bin string, seed int64) (*wireSetup, error) {
	n, err := startNetd(bin, netdArgs...)
	if err != nil {
		return nil, err
	}
	s := &wireSetup{n: n, c: newWireClient(n.url)}
	base, err := compileApp(apps.BandwidthCap(wireCap))
	if err != nil {
		n.kill()
		return nil, err
	}
	s.baseProg = base
	lg := dataplane.NewLoadGen(base.nes(), base.app.Topo, seed)
	batches := lg.Injections(wireBatch * wireBodies)
	singles := lg.Injections(wireBodies * 16)
	for i := 0; i < wireBodies; i++ {
		s.b64 = append(s.b64, encodeBatch(batches[i*wireBatch:(i+1)*wireBatch]))
	}
	for _, in := range singles {
		b, _ := json.Marshal(wirePacket{Host: in.Host, Fields: in.Fields})
		s.b1 = append(s.b1, b)
	}
	s.verify = lg.Injections(wireVerifyBatch * wireBatch)
	for i := range s.verify {
		s.verify[i].Fields["id"] = i
	}
	for _, a := range novelRevisions(seed)[:32] {
		body, _ := json.Marshal(map[string]any{"name": a.Name, "source": a.Prog.Cmd.String(), "init": []int(a.Prog.Init)})
		s.revs = append(s.revs, wireRev{app: a, program: body})
	}
	s.digest = digestInjections([][]dataplane.Injection{batches, singles, s.verify})
	return s, nil
}

// watchDeliveries subscribes to the daemon's sampled delivery feed and
// collects it until stop is called.
func watchDeliveries(base string) (stop func() ([]dataplane.Delivery, error), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/watch?kinds=delivery&buf=65536", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /watch: %s", resp.Status)
	}
	var mu sync.Mutex
	var out []dataplane.Delivery
	var last atomic.Int64
	last.Store(time.Now().UnixNano())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var ev struct {
				Kind    string        `json:"kind"`
				Epoch   int           `json:"epoch"`
				Version int           `json:"version"`
				Host    string        `json:"host"`
				Fields  netkat.Packet `json:"fields"`
			}
			if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Kind != "delivery" {
				continue
			}
			mu.Lock()
			out = append(out, dataplane.Delivery{Host: ev.Host, Fields: ev.Fields, Stamp: dataplane.Stamp{Epoch: ev.Epoch, Version: ev.Version}})
			mu.Unlock()
			last.Store(time.Now().UnixNano())
		}
	}()
	return func() ([]dataplane.Delivery, error) {
		// The feed is flushed at engine boundaries; it is complete once it
		// has been silent for a while after /quiesce returned.
		for time.Since(time.Unix(0, last.Load())) < 300*time.Millisecond {
			time.Sleep(20 * time.Millisecond)
		}
		cancel()
		resp.Body.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		return out, nil
	}, nil
}

func runWireInject(x *runCtx) error {
	// Generator and daemon share one CPU (onecore.go). Where the host does
	// not allow that the run goes on, only noisier.
	if err := confineToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: wire-inject runs unconfined: %v\n", err)
	}
	bin := x.netd
	if bin == "" {
		var err error
		if bin, err = buildNetd(filepath.Join(benchDir(), "out", "bin")); err != nil {
			return err
		}
	}
	var s *wireSetup
	var setupErr error
	stopped := true // no daemon is running
	defer func() {
		if !stopped {
			s.n.kill()
		}
	}()
	// restart replaces the running daemon, if any, with a fresh one; it
	// returns the CPU time the new one spent starting up.
	restart := func() time.Duration {
		if !stopped {
			stopped = true
			if err := s.n.stop(); err != nil && setupErr == nil {
				setupErr = err
			}
		}
		fresh, err := wireSetUp(bin, x.seed)
		if err != nil {
			if setupErr == nil {
				setupErr = err
			}
			return 0
		}
		s, stopped = fresh, false
		child, _ := taskCPUTime(s.n.pid())
		return child
	}
	setup := x.medianSetup(restart)
	if setupErr != nil {
		return setupErr
	}
	x.res.Inputs = s.digest
	kMain := x.tr.track("main")
	quiesce := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := s.c.do("POST", "/quiesce", nil, 0, kMain)
		return time.Since(t0), err
	}
	var scrapes []float64
	mark := func() (boundary, error) {
		b, err := s.c.boundaryRead(s.n, kMain)
		scrapes = append(scrapes, b.scrapeMS...)
		return b, err
	}
	// stats reads the daemon's backlog and epoch.
	type daemonStats struct {
		Pending int64 `json:"pending"`
		Epoch   int   `json:"epoch"`
	}
	stats := func() (st daemonStats, err error) {
		rt, err := s.c.do("GET", "/stats", nil, 0, nil)
		if err == nil {
			if err = json.Unmarshal(rt.body, &st); err != nil {
				err = fmt.Errorf("GET /stats: %w", err)
			}
		}
		return st, err
	}

	// ---- timed region -------------------------------------------------
	// The closed-loop phases run on wireInstances daemons, one after the
	// other, and their slices and requests are pooled (see wireInstances).
	// A traced run alternates traced and untraced slices of the headline
	// phase. An untraced run reports b64 and b1 only, so they get most of
	// its budget; open and ctl, whose numbers are layer metrics, still run
	// (on the last daemon) but briefly.
	b64Share, b1Share, sideShare := 0.42, 0.42, 0.08
	if x.traced() {
		b64Share, b1Share, sideShare = 0.55, 0.30, 0.15
	}
	instances := x.atLeast(wireInstances)
	var (
		b64, ref, b1       closedPhase
		b64D, b1D, sideD   phaseDelta
		cons               conservation
		ops                int64
		peaks              []float64
		timed              time.Duration
		b64Bytes           int64
		finalQuiesce       time.Duration
		programMS, swapMS  []float64
		openLat, openLate  []float64
		swapped, lastEpoch int
	)
	last := s.baseProg.app
	// account closes the books of a daemon before it is stopped (or, the
	// last one, verified): its share of the conservation sums, counted from
	// the boundary after its warm-up, where sent0 and acked0 were read.
	var sent0, acked0 int64
	account := func(first, end boundary) error {
		st, err := stats()
		if err != nil {
			return err
		}
		cons.Sent += s.c.sent.Load() - sent0
		cons.Acked += s.c.acked.Load() - acked0
		cons.Admitted += int64(end.last["eventnet_injections_total"] - first.last["eventnet_injections_total"])
		cons.Pending += st.Pending
		cons.Non200 += s.c.non200.Load()
		ops += s.c.ops.Load()
		peaks = append(peaks, end.proc.PeakRSSMiB)
		lastEpoch = st.Epoch
		return nil
	}
	for inst := 0; inst < instances; inst++ {
		if inst > 0 {
			restart()
			if setupErr != nil {
				return setupErr
			}
		}
		c, n := s.c, s.n
		share := func(f float64) time.Duration { return x.share(f) / time.Duration(instances) }
		// Untimed: a fresh daemon's delivery log, heap and caches fill first.
		if warm, _ := c.closedLoop(n.pid(), "/inject-batch", s.b64, wireBatch, x.share(wireWarmShare), nil, false); warm.err != nil {
			return warm.err
		}
		if _, err := quiesce(); err != nil {
			return err
		}
		sent0, acked0 = c.sent.Load(), c.acked.Load()
		first, err := mark()
		if err != nil {
			return err
		}
		t0, bytes0 := time.Now(), c.bytes.Load()
		ph, rf := c.closedLoop(n.pid(), "/inject-batch", s.b64, wireBatch, share(b64Share), x.tr, x.traced())
		if ph.err != nil {
			return ph.err
		}
		b64.add(ph)
		ref.add(rf)
		b64Bytes += c.bytes.Load() - bytes0
		if _, err := quiesce(); err != nil {
			return err
		}
		mid, err := mark()
		if err != nil {
			return err
		}
		b64D.add(first, mid)

		ph, _ = c.closedLoop(n.pid(), "/inject", s.b1, 1, share(b1Share), x.tr, false)
		if ph.err != nil {
			return ph.err
		}
		b1.add(ph)
		if _, err := quiesce(); err != nil {
			return err
		}
		end, err := mark()
		if err != nil {
			return err
		}
		b1D.add(mid, end)
		timed += time.Since(t0)
		if inst < instances-1 {
			if err := account(first, end); err != nil {
				return err
			}
			continue
		}

		// The last daemon goes on to the side phases.
		t0 = time.Now()
		if openLat, openLate, err = c.openLoop(s.b64, x.share(sideShare), x.tr); err != nil {
			return err
		}
		if _, err := quiesce(); err != nil {
			return err
		}
		// ctl: novel revisions as source text, POST /program then POST /swap,
		// while one connection keeps injecting.
		stopInject := make(chan struct{})
		injectDone := make(chan error, 1)
		go func() {
			k := x.tr.track("conn0/ctl")
			var err error
			for i := 0; ; i++ {
				select {
				case <-stopInject:
					injectDone <- err
					return
				default:
				}
				if _, e := c.do("POST", "/inject-batch", s.b64[i%len(s.b64)], wireBatch, k); e != nil {
					err = e
				}
			}
		}()
		var ctlErr error
		for start := time.Now(); ctlErr == nil && swapped < len(s.revs) && (swapped < x.atLeast(3) || time.Since(start) < x.share(sideShare)); swapped++ {
			r := s.revs[swapped]
			t := time.Now()
			if _, ctlErr = c.do("POST", "/program", r.program, 0, kMain); ctlErr != nil {
				break
			}
			programMS = append(programMS, float64(time.Since(t).Nanoseconds())/1e6)
			t = time.Now()
			_, ctlErr = c.do("POST", "/swap", nil, 0, kMain)
			swapMS = append(swapMS, float64(time.Since(t).Nanoseconds())/1e6)
			last = r.app
		}
		close(stopInject)
		if err := <-injectDone; err != nil && ctlErr == nil {
			ctlErr = err
		}
		if ctlErr != nil {
			return ctlErr
		}
		if finalQuiesce, err = quiesce(); err != nil {
			return err
		}
		atEnd, err := mark()
		if err != nil {
			return err
		}
		sideD.add(end, atEnd)
		timed += time.Since(t0)
		if err := account(first, atEnd); err != nil {
			return err
		}
	}
	// ---- end of timed region -------------------------------------------

	wall := b64D.wall + b1D.wall + sideD.wall
	x.sut = sutUsage{
		CPUCores:    (b64D.cpu + b1D.cpu + sideD.cpu) / wall,
		AllocMBPerS: (b64D.m["eventnet_go_heap_allocs_bytes_total"] + b1D.m["eventnet_go_heap_allocs_bytes_total"] + sideD.m["eventnet_go_heap_allocs_bytes_total"]) / (1 << 20) / wall,
		GCCycles:    b64D.m["eventnet_go_gc_cycles_total"] + b1D.m["eventnet_go_gc_cycles_total"] + sideD.m["eventnet_go_gc_cycles_total"],
		PeakRSSMiB:  summarize(peaks).Value,
	}

	// Conservation over the timed pass, every daemon counted.
	x.res.Attempted += ops + cons.Sent
	x.res.Failed += cons.Non200 + (cons.Sent - min(cons.Sent, cons.Acked))
	x.res.check("wire.conservation", cons.verdict() == "", "%s", cons.verdict())
	x.res.check("wire.epoch", lastEpoch == swapped, "daemon at epoch %d after %d swaps", lastEpoch, swapped)

	// Untimed verification: audit the sampled delivery feed against Eval
	// of a bench-side compile of the program the last daemon now runs.
	audit, err := wireVerify(s, last, lastEpoch)
	if err != nil {
		return err
	}
	x.res.Attempted += int64(len(s.verify))
	x.res.check("wire.audit", audit.Mixed == 0 && audit.Checked > 0, "checked %d sampled deliveries, %d contradict Eval", audit.Checked, audit.Mixed)

	stopped = true
	stopErr := s.n.stop()
	x.res.check("netd.clean_exit", stopErr == nil && setupErr == nil, "%v %v", stopErr, setupErr)

	b64Reqs, _, _ := totals(b64.segs)
	b1Reqs, _, _ := totals(b1.segs)
	x.res.e2e("setup_s", "s", value(setup))
	x.res.e2e("wire_pps", "packets/s", rate(b64.segs).times(wireBatch))
	x.res.e2e("wire_req_p25_us", "us", b64.fast())
	x.res.e2e("wire_rps_b1", "requests/s", rate(b1.segs))
	if !x.traced() {
		return nil
	}

	_, _, roots := x.tr.selfTimes()
	// Root spans are requests.
	refWall := rawWall(ref.segs)
	refFast := ref.fast().Value
	refReqs, _, _ := totals(ref.segs)
	b64Reqs += refReqs // the b64 counter deltas below cover both kinds of slice
	x.res.layer("bench.span_coverage_pct", "%", value(pct(float64(roots), float64((timed-refWall).Nanoseconds()))))
	x.res.layer("bench.trace_overhead_pct", "%", value(pct(b64.fast().Value-refFast, refFast)))
	x.res.layer("client.req_p99_us_b64", "us", value(percentile(allSamples(b64.segs), 0.99)))
	x.res.layer("client.req_p99_us_b1", "us", value(percentile(allSamples(b1.segs), 0.99)))
	x.res.layer("client.req_p50_us_b1", "us", summarize(allSamples(b1.segs)))
	x.res.layer("client.open_p50_us", "us", value(percentile(openLat, 0.5)))
	x.res.layer("client.open_p99_us", "us", value(percentile(openLat, 0.99)))
	x.res.layer("client.lateness_p99_us", "us", value(percentile(openLate, 0.99)))
	x.res.layer("client.body_bytes_per_pkt", "B", value(float64(b64Bytes)/(b64Reqs*wireBatch)))
	x.res.layer("netd.serve_p50_us_b64", "us", value(percentile(b64.serve, 0.5)))
	x.res.layer("netd.serve_p50_us_b1", "us", value(percentile(b1.serve, 0.5)))
	x.res.layer("netd.cpu_us_per_pkt_b64", "us", value(b64D.cpu*1e6/(b64Reqs*wireBatch)))
	x.res.layer("netd.cpu_us_per_req_b1", "us", value(b1D.cpu*1e6/b1Reqs))
	x.res.layer("netd.cpu_util", "cores", value(b64D.cpu/b64D.wall))
	inj := b64D.m["eventnet_injections_total"]
	x.res.layer("netd.alloc_bytes_per_pkt", "B", value(b64D.m["eventnet_go_heap_allocs_bytes_total"]/inj))
	x.res.layer("netd.gc_cycles", "count", value(b64D.m["eventnet_go_gc_cycles_total"]))
	x.res.layer("netd.quiesce_tail_ms", "ms", value(float64(finalQuiesce.Nanoseconds())/1e6))
	x.res.layer("netd.program_p50_ms", "ms", summarize(programMS))
	x.res.layer("netd.swap_p50_ms", "ms", summarize(swapMS))
	x.res.layer("netd.scrape_p50_ms", "ms", summarize(scrapes))
	x.res.layer("dataplane.wire_pkts_per_gen", "ratio", value(inj/b64D.m["eventnet_generations_total"]))
	x.res.layer("dataplane.wire_hops_per_pkt", "ratio", value(b64D.m["eventnet_hops_total"]/inj))
	x.res.layer("dataplane.wire_hop_busy_share", "%", value(pct(b64D.m["eventnet_hop_ns_sum"]/1e9, b64D.wall)))
	return nil
}

// wireVerify sends uniquely numbered packets while subscribed to the
// daemon's delivery feed and audits every sampled delivery.
func wireVerify(s *wireSetup, current apps.App, epoch int) (auditCounts, error) {
	prog, err := compileApp(current)
	if err != nil {
		return auditCounts{}, err
	}
	stop, err := watchDeliveries(s.n.url)
	if err != nil {
		return auditCounts{}, err
	}
	sent := make([]sentPacket, len(s.verify))
	for i, in := range s.verify {
		f, _, _ := splitID(in.Fields)
		sent[i] = sentPacket{Host: in.Host, Fields: f}
	}
	var sendErr error
	for i := 0; i < wireVerifyBatch && sendErr == nil; i++ {
		_, sendErr = s.c.do("POST", "/inject-batch", encodeBatch(s.verify[i*wireBatch:(i+1)*wireBatch]), wireBatch, nil)
	}
	if sendErr == nil {
		_, sendErr = s.c.do("POST", "/quiesce", nil, 0, nil)
	}
	deliveries, _ := stop()
	if sendErr != nil {
		return auditCounts{}, sendErr
	}
	progs := make([]*ctrl.Program, epoch+1)
	progs[epoch] = prog.prog
	return newAuditor(prog.app.Topo, progs).auditSampled(sent, deliveries), nil
}

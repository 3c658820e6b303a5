package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/exp"
	"eventnet/internal/netkat"
	"eventnet/internal/runtime"
	"eventnet/internal/sim"
	"eventnet/internal/trace"
)

// Frozen sizes of oracle-check (see README "Frozen sizes").
const (
	oraclePackets = 24  // LoadGen packets injected per machine run
	simBulkSecs   = 0.2 // simulated seconds of ring bulk traffic per pass
)

// fig16Diameters are the ring sizes of the digested Figure 16a rows.
var fig16Diameters = []int{3}

// oracleSet is the paper's five applications plus ring(4).
func oracleSet() []apps.App { return append(apps.All(), apps.Ring(4)) }

// machineRun is one Figure 7 execution checked by the Definition 6
// oracle: new machine, inject, run to quiescence, CheckNES.
type machineRun struct {
	steps, traceLen int
	stepNs, checkNs int64
	violation       error
}

func oneMachineRun(c *compiled, hosts map[netkat.Location]bool, ins []dataplane.Injection, seed, op int64, k *track) (machineRun, error) {
	var r machineRun
	root := k.begin("bench.oracle", -1, op)
	defer k.end(root)
	s := k.begin("runtime.New", root, op)
	m := runtime.New(c.nes(), c.app.Topo, seed, seed%2 == 0)
	k.end(s)
	s = k.begin("runtime.Inject", root, op)
	for _, in := range ins {
		if err := m.Inject(in.Host, in.Fields); err != nil {
			return r, err
		}
	}
	k.end(s)
	s = k.begin("runtime.Step", root, op)
	t0 := time.Now()
	for m.Step() {
		r.steps++
		if r.steps > 1_000_000 {
			return r, fmt.Errorf("%s: machine did not quiesce", c.app.Name)
		}
	}
	r.stepNs = time.Since(t0).Nanoseconds()
	k.end(s)
	s = k.begin("runtime.NetTrace", root, op)
	nt := m.NetTrace()
	k.end(s)
	r.traceLen = len(nt.Packets)
	s = k.begin("trace.CheckNES", root, op)
	t0 = time.Now()
	r.violation = trace.CheckNES(nt, c.nes(), hosts)
	r.checkNs = time.Since(t0).Nanoseconds()
	k.end(s)
	return r, nil
}

// countingPlane counts the packet-hops a simulated plane processes.
type countingPlane struct {
	sim.Plane
	hops *int64
}

func (p countingPlane) Process(s *sim.Sim, sw, inPort int, fields netkat.Packet, meta sim.Meta) []sim.Out {
	*p.hops++
	return p.Plane.Process(s, sw, inPort, fields, meta)
}

// simSetup is one of the paper's simulator set-ups, compiled once.
type simSetup struct {
	c        *compiled
	procTime float64 // switch processing time; 0 keeps the default
	run      func(s *sim.Sim)
}

// simSetups mirrors the Figure 11 (firewall pings), Figure 14 (cap-10
// pings) and Figure 16 (ring bulk transfer) experiments of internal/exp.
func simSetups() ([]simSetup, error) {
	var out []simSetup
	for _, su := range []struct {
		app      apps.App
		procTime float64
		run      func(s *sim.Sim)
	}{
		{apps.Firewall(), 0, func(s *sim.Sim) {
			sim.EnableEcho(s, "H1")
			sim.EnableEcho(s, "H4")
			sim.StartPings(s, "H4", "H1", 0.5, 0.25, 4, 1000)
			sim.StartPings(s, "H1", "H4", 2.0, 0.25, 4, 2000)
			sim.StartPings(s, "H4", "H1", 3.5, 0.25, 4, 3000)
			s.Run(8)
		}},
		{apps.BandwidthCap(10), 0, func(s *sim.Sim) {
			sim.EnableEcho(s, "H4")
			sim.StartPings(s, "H1", "H4", 0.5, 0.25, 18, 0)
			s.Run(10)
		}},
		// Software switches are CPU-bound, as in exp.Fig16a.
		{apps.Ring(3), 120e-6, func(s *sim.Sim) {
			sim.StartBulk(s, "H1", "H2", 0.1, simBulkSecs, 1.05/s.Params.SwitchProcTime, 0)
			s.Run(0.2 + simBulkSecs)
		}},
	} {
		c, err := compileApp(su.app)
		if err != nil {
			return nil, err
		}
		out = append(out, simSetup{c: c, procTime: su.procTime, run: su.run})
	}
	return out, nil
}

// simPass runs every set-up under both planes and returns the hops
// processed and the packets delivered.
func simPass(setups []simSetup, seed, op int64, k *track) (hops int64, delivered int) {
	root := k.begin("bench.sim", -1, op)
	defer k.end(root)
	for _, su := range setups {
		for _, kind := range []sim.PlaneKind{sim.PlaneKindTagged, sim.PlaneKindUncoord} {
			p := sim.DefaultParams()
			p.InstallDelay = 2.0
			if su.procTime > 0 {
				p.SwitchProcTime = su.procTime
			}
			s0 := k.begin("sim.New", root, op)
			s := sim.New(su.c.app.Topo, countingPlane{Plane: sim.NewPlane(kind, su.c.nes()), hops: &hops}, p, seed)
			k.end(s0)
			s0 = k.begin("sim.Run", root, op)
			su.run(s)
			k.end(s0)
			delivered += len(s.Delivered)
		}
	}
	return hops, delivered
}

// figures regenerates the three digested figures.
func figures(op int64, k *track) map[string]string {
	root := k.begin("bench.figures", -1, op)
	defer k.end(root)
	out := map[string]string{}
	digest := func(name string, render func() string) {
		s := k.begin("exp."+name, root, op)
		sum := sha256.Sum256([]byte(render()))
		k.end(s)
		out[name] = hex.EncodeToString(sum[:])
	}
	digest("Fig11", func() string { return exp.Fig11().String() })
	digest("Fig14", func() string { return exp.Fig14().String() })
	digest("Fig16a", func() string { return exp.Fig16a(fig16Diameters).String() })
	return out
}

// loadDigests reads the checked-in figure digests.
func loadDigests() (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(benchDir(), "digests.json"))
	if err != nil {
		return nil, err
	}
	var m map[string]string
	return m, json.Unmarshal(b, &m)
}

func runOracleCheck(x *runCtx) error {
	var set []*compiled
	var sims []simSetup
	var setupErr error
	setup := x.medianSetup(func() time.Duration {
		set = set[:0]
		for _, a := range oracleSet() {
			c, err := compileApp(a)
			if err != nil {
				setupErr = err
				return 0
			}
			set = append(set, c)
		}
		sims, setupErr = simSetups()
		return 0
	})
	if setupErr != nil {
		return setupErr
	}
	want, err := loadDigests()
	if err != nil {
		return err
	}
	hosts := make([]map[netkat.Location]bool, len(set))
	for i, c := range set {
		hosts[i] = c.app.Topo.HostLocs()
	}
	k := x.tr.track("main")

	// One machine operation is a pass over the whole application set, so
	// the mix per segment is fixed; the scheduler seed and the injected
	// packets advance with every pass.
	var runs []machineRun
	var runErr error
	var inputs []dataplane.Injection
	machinePass := func(k *track, record bool) func() float64 {
		pass := int64(0)
		return func() float64 {
			for i, c := range set {
				seed := x.seed*1_000_003 + pass
				ins := dataplane.NewLoadGen(c.nes(), c.app.Topo, seed).Injections(oraclePackets)
				if record && pass == 0 {
					inputs = append(inputs, ins...)
				}
				r, err := oneMachineRun(c, hosts[i], ins, seed, pass*int64(len(set))+int64(i), k)
				if err != nil && runErr == nil {
					runErr = err
				}
				if record {
					runs = append(runs, r)
				} else if r.violation != nil && runErr == nil {
					runErr = r.violation
				}
			}
			pass++
			return float64(len(set))
		}
	}

	// A traced run alternates traced and untraced slices of the machine
	// phase (the same passes, in the same order); the untraced ones are the
	// base of bench.trace_overhead_pct.
	usage := beginSelfUsage()
	reg := x.clk.beginRegion()
	var machineSegs, refSegs []segment
	if x.traced() {
		machineSegs, refSegs = runPaired(x.clk, x.share(0.65), machinePass(k, true), machinePass(nil, false))
	} else {
		machineSegs = runSegments(x.clk, x.share(0.50), machinePass(k, true))
	}
	if runErr != nil {
		return runErr
	}
	var simHops int64
	simOp := int64(0)
	simDelivered := 0
	simSegs := runSegments(x.clk, x.share(0.30), func() float64 {
		h, d := simPass(sims, x.seed+simOp, simOp, k)
		simOp++
		simHops += h
		simDelivered += d
		return float64(h)
	})
	digestsOK := true
	var figMS []float64
	got := map[string]string{}
	figMS = timedSamples(x.clk, x.share(0.20), x.atLeast(3), func(i int) bool {
		got = figures(int64(i), k)
		for name, d := range got {
			if want[name] != d {
				digestsOK = false
			}
		}
		return true
	})
	timed := reg.elapsed()
	x.sut = usage.end()
	x.res.Inputs = digestInjections([][]dataplane.Injection{inputs})

	violations := 0
	var firstViolation error
	var steps, traceLen int
	var stepNs, checkNs int64
	for _, r := range runs {
		if r.violation != nil {
			violations++
			if firstViolation == nil {
				firstViolation = r.violation
			}
		}
		steps += r.steps
		stepNs += r.stepNs
		checkNs += r.checkNs
	}
	// The first pass's inputs depend on the seed alone, so its trace
	// length repeats exactly.
	for _, r := range runs[:len(set)] {
		traceLen += r.traceLen
	}
	x.res.Attempted += int64(len(runs)) + simOp + int64(len(figMS))
	x.res.Failed += int64(violations)
	x.res.check("trace.CheckNES", violations == 0, "%d of %d runs violate Definition 6 (first: %v)", violations, len(runs), firstViolation)
	x.res.check("sim.delivers", simDelivered > 0 && simHops > 0, "simulator delivered %d packets over %d hops", simDelivered, simHops)
	x.res.check("figures.digest", digestsOK && len(got) == len(want), "regenerated digests %v, checked in %v", got, want)

	x.res.e2e("setup_s", "s", value(setup))
	x.res.e2e("oracle_runs_per_s", "runs/s", rate(machineSegs))
	x.res.e2e("sim_pkts_per_s", "packets/s", rate(simSegs))
	x.res.both("sim.fig_regen_ms", "ms", summarize(figMS))
	if !x.traced() {
		return nil
	}
	_, _, roots := x.tr.selfTimes()
	_, simBusy, _ := totals(simSegs)
	refRuns, _, _ := totals(refSegs)
	x.res.Attempted += int64(refRuns)
	refRate := rate(refSegs).Value
	x.res.layer("bench.span_coverage_pct", "%", value(pct(float64(roots), float64((timed-rawWall(refSegs)).Nanoseconds()))))
	x.res.layer("bench.trace_overhead_pct", "%", value(pct(refRate-rate(machineSegs).Value, refRate)))
	x.res.layer("runtime.step_ns", "ns", value(float64(stepNs)/float64(steps)))
	x.res.layer("runtime.trace_len", "count", value(float64(traceLen)))
	x.res.layer("trace.check_ms_per_run", "ms", value(float64(checkNs)/1e6/float64(len(runs))))
	x.res.layer("trace.violations", "count", value(float64(violations)))
	x.res.layer("sim.ns_per_hop", "ns", value(float64(simBusy.Nanoseconds())/float64(simHops)))
	x.res.layer("sim.fig_digest_ok", "0/1", value(b2f(digestsOK)))
	return nil
}

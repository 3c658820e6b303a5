// Package exp regenerates every table and figure of the paper's
// evaluation (Section 5). Each Fig*/Table* function runs the workload on
// the simulator (or the compiler/optimizer) and returns the same rows or
// series the paper plots; cmd/experiments prints them, together with the
// sampled-journey demonstration (Trace) and the chaos audit (Chaos). How
// fast this implementation runs is not measured here: bench/ is the one
// benchmark (docs/BENCHMARKS.md).
package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
	"eventnet/internal/optimize"
	"eventnet/internal/sim"
)

// parallelFor runs f(0..n-1) on a bounded worker pool (at most one worker
// per CPU). The experiment sweeps are embarrassingly parallel — each
// point builds its own simulator seeded deterministically — so results
// are identical to the sequential run.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Table is a generic result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig10 sweeps the uncoordinated install delay on the stateful firewall
// and counts incorrectly-dropped packets, with the correct (tagged)
// implementation as the baseline (always 0). `runs` executions per delay
// point, delays from 0 to maxDelayMs in stepMs increments.
func Fig10(maxDelayMs, stepMs, runs int) *Table {
	t := &Table{
		Title:   "Figure 10: Stateful Firewall — impact of delay (total incorrectly-dropped packets)",
		Columns: []string{"delay_ms", "uncoordinated_drops", "correct_drops"},
	}
	a := apps.Firewall()
	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		panic(err)
	}
	points := maxDelayMs/stepMs + 1
	rows := make([][]string, points)
	parallelFor(points, func(i int) {
		d := i * stepMs
		uncoord := 0
		correct := 0
		for r := 0; r < runs; r++ {
			uncoord += firewallDrops(a, n, sim.PlaneKindUncoord, float64(d)/1000, int64(r+1))
			correct += firewallDrops(a, n, sim.PlaneKindTagged, float64(d)/1000, int64(r+1))
		}
		rows[i] = []string{fmt.Sprint(d), fmt.Sprint(uncoord), fmt.Sprint(correct)}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// firewallDrops runs the Figure 10/11 workload: H1 pings H4; replies
// dropped at s4 are the incorrect drops.
func firewallDrops(a apps.App, n *nes.NES, kind sim.PlaneKind, installDelay float64, seed int64) int {
	p := sim.DefaultParams()
	p.InstallDelay = installDelay
	s := sim.New(a.Topo, sim.NewPlane(kind, n), p, seed)
	sim.EnableEcho(s, "H4")
	st := sim.StartPings(s, "H1", "H4", 0.5, 0.1, 20, 0)
	s.Run(installDelay + 6)
	return st.Dropped()
}

// TimelinePoint is one ping outcome in a Figure 11-15 timeline.
type TimelinePoint struct {
	Time float64
	Flow string
	OK   bool
}

// Timeline is a Figure 11-15 style result: ping outcomes over time for
// the correct and uncoordinated planes.
type Timeline struct {
	Title            string
	Correct, Uncoord []TimelinePoint
}

// String renders the timeline compactly.
func (tl *Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", tl.Title)
	render := func(name string, pts []TimelinePoint) {
		fmt.Fprintf(&b, "-- %s --\n", name)
		for _, p := range pts {
			mark := "OK"
			if !p.OK {
				mark = "drop"
			}
			fmt.Fprintf(&b, "t=%5.2fs  %-8s %s\n", p.Time, p.Flow, mark)
		}
	}
	render("correct (event-driven consistent)", tl.Correct)
	render("uncoordinated", tl.Uncoord)
	return b.String()
}

// pingScript describes one scripted ping burst.
type pingScript struct {
	src, dst string
	start    float64
	count    int
	flow     string
}

// runTimeline executes the scripted pings under both planes.
func runTimeline(a apps.App, title string, echoHosts []string, scripts []pingScript, horizon float64) *Timeline {
	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		panic(err)
	}
	run := func(kind sim.PlaneKind) []TimelinePoint {
		p := sim.DefaultParams()
		p.InstallDelay = 2.0 // the few-seconds controller delay of Section 5.1
		s := sim.New(a.Topo, sim.NewPlane(kind, n), p, 1)
		for _, h := range echoHosts {
			sim.EnableEcho(s, h)
		}
		var stats []*sim.PingStats
		for i, sc := range scripts {
			stats = append(stats, sim.StartPings(s, sc.src, sc.dst, sc.start, 0.25, sc.count, 1000*(i+1)))
		}
		s.Run(horizon)
		var pts []TimelinePoint
		for i, st := range stats {
			for _, pg := range st.Pings {
				pts = append(pts, TimelinePoint{Time: pg.SentAt, Flow: scripts[i].flow, OK: pg.Replied})
			}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
		return pts
	}
	return &Timeline{Title: title, Correct: run(sim.PlaneKindTagged), Uncoord: run(sim.PlaneKindUncoord)}
}

// Fig11 is the stateful firewall timeline.
func Fig11() *Timeline {
	return runTimeline(apps.Firewall(),
		"Figure 11: Stateful Firewall — correct vs uncoordinated",
		[]string{"H1", "H4"},
		[]pingScript{
			{src: "H4", dst: "H1", start: 0.5, count: 4, flow: "H4-H1"},
			{src: "H1", dst: "H4", start: 2.0, count: 4, flow: "H1-H4"},
			{src: "H4", dst: "H1", start: 3.5, count: 4, flow: "H4-H1"},
		}, 8)
}

// Fig12 is the learning switch: packets delivered to H1/H2 over time.
func Fig12() *Table {
	t := &Table{
		Title:   "Figure 12: Learning Switch — packets sent to H1 and H2",
		Columns: []string{"plane", "to_H1", "to_H2(flood)"},
	}
	a := apps.LearningSwitch()
	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		panic(err)
	}
	run := func(kind sim.PlaneKind) (int, int) {
		p := sim.DefaultParams()
		p.InstallDelay = 2.0
		s := sim.New(a.Topo, sim.NewPlane(kind, n), p, 1)
		sim.EnableEcho(s, "H1")
		sim.StartPings(s, "H4", "H1", 0.5, 0.25, 10, 0)
		s.Run(6)
		return len(s.DeliveredTo("H1")), len(s.DeliveredTo("H2"))
	}
	h1c, h2c := run(sim.PlaneKindTagged)
	h1u, h2u := run(sim.PlaneKindUncoord)
	t.Rows = append(t.Rows,
		[]string{"correct", fmt.Sprint(h1c), fmt.Sprint(h2c)},
		[]string{"uncoordinated", fmt.Sprint(h1u), fmt.Sprint(h2u)})
	return t
}

// Fig13 is the authentication timeline.
func Fig13() *Timeline {
	return runTimeline(apps.Authentication(),
		"Figure 13: Authentication — correct vs uncoordinated",
		[]string{"H1", "H2", "H3", "H4"},
		[]pingScript{
			{src: "H4", dst: "H3", start: 0.5, count: 2, flow: "H4-H3"},
			{src: "H4", dst: "H2", start: 1.5, count: 2, flow: "H4-H2"},
			{src: "H4", dst: "H1", start: 2.5, count: 2, flow: "H4-H1"},
			{src: "H4", dst: "H3", start: 3.5, count: 2, flow: "H4-H3"},
			{src: "H4", dst: "H2", start: 4.5, count: 2, flow: "H4-H2"},
			{src: "H4", dst: "H3", start: 5.5, count: 2, flow: "H4-H3"},
		}, 10)
}

// Fig14 is the bandwidth cap: successful pings under cap n=10.
func Fig14() *Table {
	t := &Table{
		Title:   "Figure 14: Bandwidth Cap (n=10) — successful H1-H4 pings",
		Columns: []string{"plane", "pings_sent", "pings_succeeded"},
	}
	a := apps.BandwidthCap(10)
	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		panic(err)
	}
	run := func(kind sim.PlaneKind) int {
		p := sim.DefaultParams()
		p.InstallDelay = 2.0
		s := sim.New(a.Topo, sim.NewPlane(kind, n), p, 1)
		sim.EnableEcho(s, "H4")
		st := sim.StartPings(s, "H1", "H4", 0.5, 0.25, 18, 0)
		s.Run(10)
		return st.Succeeded()
	}
	t.Rows = append(t.Rows,
		[]string{"correct", "18", fmt.Sprint(run(sim.PlaneKindTagged))},
		[]string{"uncoordinated", "18", fmt.Sprint(run(sim.PlaneKindUncoord))})
	return t
}

// Fig15 is the IDS timeline.
func Fig15() *Timeline {
	return runTimeline(apps.IDS(),
		"Figure 15: Intrusion Detection — correct vs uncoordinated",
		[]string{"H1", "H2", "H3", "H4"},
		[]pingScript{
			{src: "H4", dst: "H3", start: 0.5, count: 2, flow: "H4-H3"},
			{src: "H4", dst: "H2", start: 1.5, count: 2, flow: "H4-H2"},
			{src: "H4", dst: "H1", start: 2.5, count: 2, flow: "H4-H1"},
			{src: "H4", dst: "H3", start: 3.5, count: 2, flow: "H4-H3"},
			{src: "H4", dst: "H2", start: 4.5, count: 2, flow: "H4-H2"},
			{src: "H4", dst: "H3", start: 5.5, count: 2, flow: "H4-H3"},
		}, 10)
}

// Fig16a measures ring bandwidth vs diameter for the tagged plane against
// the untagged reference (the paper's unmodified OpenFlow switches).
func Fig16a(diameters []int) *Table {
	t := &Table{
		Title:   "Figure 16a: Ring bandwidth vs diameter",
		Columns: []string{"diameter", "ref_MBps", "tagged_MBps", "overhead_pct", "udp_loss_pct"},
	}
	rows := make([][]string, len(diameters))
	// Build the NESs on the caller's goroutine so a compile failure
	// panics where callers can recover; only the sims run on the pool.
	nesses := make([]*nes.NES, len(diameters))
	for i, d := range diameters {
		a := apps.Ring(d)
		_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
		if err != nil {
			panic(err)
		}
		nesses[i] = n
	}
	parallelFor(len(diameters), func(i int) {
		d := diameters[i]
		a := apps.Ring(d)
		n := nesses[i]
		run := func(tagBytes int, extraProc float64) (float64, float64) {
			pl := sim.NewTaggedPlane(n)
			pl.TagBytes = tagBytes
			pl.ExtraProc = extraProc
			p := sim.DefaultParams()
			p.SwitchProcTime = 120e-6 // software switches are CPU-bound
			s := sim.New(a.Topo, pl, p, 1)
			rate := 1.05 / p.SwitchProcTime // mild overload: small UDP loss, as in the paper
			b := sim.StartBulk(s, "H1", "H2", 0.1, 2.0, rate, 0)
			s.Run(3)
			return b.Goodput(), b.LossPct()
		}
		refGp, _ := run(0, 0)
		tagGp, loss := run(12, 0.05)
		rows[i] = []string{
			fmt.Sprint(d),
			fmt.Sprintf("%.2f", refGp/1e6),
			fmt.Sprintf("%.2f", tagGp/1e6),
			fmt.Sprintf("%.1f", 100*(refGp-tagGp)/refGp),
			fmt.Sprintf("%.1f", loss),
		}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// Fig16b measures event-discovery time on the ring, with and without
// controller assistance.
func Fig16b(diameters []int) *Table {
	t := &Table{
		Title:   "Figure 16b: Ring event discovery time vs diameter",
		Columns: []string{"diameter", "max_s", "avg_s", "max_ctrl_s", "avg_ctrl_s"},
	}
	rows := make([][]string, len(diameters))
	nesses := make([]*nes.NES, len(diameters))
	for i, d := range diameters {
		a := apps.Ring(d)
		_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
		if err != nil {
			panic(err)
		}
		nesses[i] = n
	}
	parallelFor(len(diameters), func(i int) {
		d := diameters[i]
		row := []string{fmt.Sprint(d)}
		for _, assist := range []bool{false, true} {
			a := apps.Ring(d)
			n := nesses[i]
			p := sim.DefaultParams()
			p.CtrlAssist = assist
			pl := sim.NewTaggedPlane(n)
			s := sim.New(a.Topo, pl, p, 1)
			sim.EnableEcho(s, "H2")
			sim.StartPings(s, "H1", "H2", 0, 0.05, 400, 0)
			s.At(1.0, func() { s.Send("H1", netkat.Packet{apps.FieldSig: 1, sim.FieldSrc: apps.H(1)}) })
			s.Run(25)
			max, sum, cnt := 0.0, 0.0, 0
			for _, sw := range a.Topo.Switches {
				if at, ok := pl.DiscoveryTime(sw, 0); ok {
					delay := at - 1.0
					sum += delay
					cnt++
					if delay > max {
						max = delay
					}
				}
			}
			avg := 0.0
			if cnt > 0 {
				avg = sum / float64(cnt)
			}
			row = append(row, fmt.Sprintf("%.4f", max), fmt.Sprintf("%.4f", avg))
		}
		rows[i] = row
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// Fig17 runs the rule-sharing heuristic on random configuration sets
// (64 configurations drawn from a 20-rule universe) and reports original
// vs optimized rule counts.
func Fig17(trials int, seed int64) *Table {
	t := &Table{
		Title:   "Figure 17: rule-sharing heuristic on 64 random configurations",
		Columns: []string{"trial", "original_rules", "heuristic_rules", "saved_pct"},
	}
	rng := rand.New(rand.NewSource(seed))
	totalOrig, totalOpt := 0, 0
	for trial := 0; trial < trials; trial++ {
		configs := make([]optimize.RuleSet, 64)
		for i := range configs {
			configs[i] = optimize.RuleSet{}
			for id := 0; id < 20; id++ {
				if rng.Intn(10) < 3 {
					configs[i][id] = true
				}
			}
		}
		orig := optimize.Naive(configs)
		g, err := optimize.Greedy(configs)
		if err != nil {
			panic(err)
		}
		opt := g.TotalRules()
		totalOrig += orig
		totalOpt += opt
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(trial), fmt.Sprint(orig), fmt.Sprint(opt),
			fmt.Sprintf("%.1f", 100*float64(orig-opt)/float64(orig)),
		})
	}
	t.Rows = append(t.Rows, []string{
		"avg", fmt.Sprint(totalOrig / trials), fmt.Sprint(totalOpt / trials),
		fmt.Sprintf("%.1f", 100*float64(totalOrig-totalOpt)/float64(totalOrig)),
	})
	return t
}

// TableCompile reproduces the in-text compilation table of Section 5.1:
// compile time and total rules for each application.
func TableCompile() *Table {
	t := &Table{
		Title:   "Section 5.1 (in text): compile time and rule counts",
		Columns: []string{"app", "states", "events", "compile_s", "rules"},
	}
	for _, a := range apps.All() {
		start := time.Now()
		e, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start).Seconds()
		t.Rows = append(t.Rows, []string{
			a.Name, fmt.Sprint(len(e.Vertices)), fmt.Sprint(len(e.Events)),
			fmt.Sprintf("%.4f", elapsed), fmt.Sprint(n.TotalRules()),
		})
	}
	return t
}

// Trace demonstrates sampled packet journey tracing: a seeded workload
// runs with every packet traced, and each sampled journey is flattened
// to one row per hop record — the exact canonical order the engine
// stitches at merge time. `experiments -only trace` prints it; the same
// records stream live on netd's /watch feed (docs/OBSERVABILITY.md).
func Trace(packets int) *Table {
	t := &Table{
		Title:   "Sampled packet journeys (firewall, every injection traced)",
		Columns: []string{"trace", "inject_host", "gen", "seq", "kind", "switch", "rank", "out", "to_host"},
	}
	a := apps.Firewall()
	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		panic(err)
	}
	o := &obs.Obs{Metrics: obs.NewMetrics(2), Bus: obs.NewBus(), Trace: obs.NewTracer(1, 2)}
	sub := o.Bus.Subscribe(4096, obs.KindTrace)
	eng := dataplane.NewEngine(n, a.Topo, dataplane.Options{Workers: 2, Obs: o})
	lg := dataplane.NewLoadGen(n, a.Topo, 23)
	for _, in := range lg.Injections(packets) {
		if err := eng.Inject(in.Host, in.Fields); err != nil {
			panic(err)
		}
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	sub.Close()
	for ev := range sub.C {
		j := ev.Trace
		if j == nil {
			continue
		}
		for _, h := range j.Hops {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(j.ID), j.Host, fmt.Sprint(h.Gen), fmt.Sprint(h.Seq),
				h.Kind, fmt.Sprint(h.Switch), fmt.Sprint(h.Rank), fmt.Sprint(h.Out), h.Host,
			})
		}
	}
	return t
}

// TableOptimize reproduces the in-text optimization results of
// Section 5.3: per-application rule counts before and after the trie
// heuristic (the paper's 18->16, 43->27, 72->46, 158->101, 152->133).
func TableOptimize() *Table {
	t := &Table{
		Title:   "Section 5.3 (in text): rule reduction per application",
		Columns: []string{"app", "original", "optimized", "saved_pct"},
	}
	for _, a := range apps.All() {
		e, err := ets.Build(a.Prog, a.Topo)
		if err != nil {
			panic(err)
		}
		var tabs []flowtable.Tables
		for _, v := range e.Vertices {
			tabs = append(tabs, v.Tables)
		}
		configs, _ := optimize.FromTables(tabs)
		orig := optimize.Naive(configs)
		g, err := optimize.Greedy(configs)
		if err != nil {
			panic(err)
		}
		opt := g.TotalRules()
		t.Rows = append(t.Rows, []string{
			a.Name, fmt.Sprint(orig), fmt.Sprint(opt),
			fmt.Sprintf("%.1f", 100*float64(orig-opt)/float64(orig)),
		})
	}
	return t
}

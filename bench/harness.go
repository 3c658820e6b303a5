package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sliceLen is the length of one slice of a rate phase. A phase is cut into
// slices and the reported value is the median slice, so slices hit by a
// noisy neighbour or a stolen vCPU do not move the number. A slice is long
// enough to hold several cycles of the work's own rhythm (engine-forward
// collects garbage every ~120 ms, and a 40 ms slice is either inside a
// cycle or not: the median of such slices sits on the edge between two
// populations). minSlices is the floor for a small budget.
const (
	sliceLen  = 500 * time.Millisecond
	minSlices = 5
)

// Reference speed.
//
// The hosts this runs on share physical cores, and what the neighbours do
// shows in two ways. The core's clock has modes: the same vCPU runs a
// fixed piece of ALU work in 263 µs at one moment and 322 µs a second
// later, and stays in either mode for anything from 100 ms to many
// minutes. And the caches are shared: 16 384 lookups in a 4 096-entry Go
// map take 190 µs in a calm minute and 570 µs in a bad one while the ALU
// work does not move at all. Every workload here follows both (an
// engine-forward round: 1.20x against the ALU kernel's 1.22x between the
// clock modes, and 0.87x..1.19x over ten minutes in which the map kernel
// read 0.74x..1.66x, correlation 0.97), so raw wall-clock medians moved by
// 10-30 % from one run to the next and by more from hour to hour.
//
// Every timed interval is therefore bracketed by readings of the two
// kernels (refClock) and stated at reference speed: its time divided by
// the mean reading around it, a reading being
//
//	(alu / refNominal)^(1-refMapShare) x (map / refNominal)^refMapShare
//
// i.e. the time the interval would have taken on a host that runs either
// kernel in refNominal. refMapShare was fitted once, over 15 rounds of all
// five workloads in a noisy half hour: 0.4 minimises the run-to-run spread
// of nearly every phase (0.3-0.5 are all within a point of it), cutting it
// to between a fifth and two thirds of the raw spread. What the kernels
// cannot see is what the stopwatch must not see either: a vCPU held by a
// neighbour. So the kernels, and every operation that runs inside this
// process, are timed on the process's CPU clock (cpuTime), which stands
// still while the process is off the core; with GOMAXPROCS=1 (onecore.go)
// some goroutine of a workload is always runnable, so between two readings
// of that clock lies exactly the work done, whoever else wanted the core.
// Only requests to the netd child are timed on the wall clock (wallTime):
// they are short, and a neighbour's time slice lands in some of them and
// not in others, so the lower quartile of many (fastQuartile) is what a
// request costs when nothing intervenes.
const (
	refWords    = 4 << 10 // the ALU kernel's buffer: 32 KiB, L1-resident
	refPasses   = 64
	refKeys     = 4 << 10                // the map kernel's table
	refLookups  = 4                      // passes over the keys per reading
	refNominal  = 250 * time.Microsecond // either kernel's time on the reference host
	refMapShare = 0.4
	refEvery    = 20 * time.Millisecond // how stale a reading tick tolerates
)

// refKeysTable is the map kernel's read-only table, shared by every clock.
var refKeysTable, refTable = func() ([]string, map[string]int) {
	keys := make([]string, refKeys)
	table := make(map[string]int, refKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("field-%d-%d", i%17, i)
		table[keys[i]] = i
	}
	return keys, table
}()

// stopwatch is a clock operations are timed on: cpuTime or wallTime.
type stopwatch func() time.Duration

var processStart = time.Now()

func wallTime() time.Duration { return time.Since(processStart) }

// refClock is one goroutine's stopwatch and its log of reference readings.
type refClock struct {
	watch stopwatch // times each operation
	// slice, when set, times a slice of operations as a whole on a CPU
	// clock that includes this process (the readings' share is taken off);
	// without it a slice's time is the sum of its operations'.
	slice stopwatch
	buf   []uint64
	sink  int
	at    []time.Time
	r     []float64     // dimensionless: 1 on the reference host, larger on a slower one
	spent time.Duration // CPU time the readings themselves took
}

func newRefClock(watch stopwatch) *refClock {
	return &refClock{watch: watch, buf: make([]uint64, refWords)}
}

func (c *refClock) aluKernel() {
	h := uint64(1469598103934665603)
	for p := 0; p < refPasses; p++ {
		for i, v := range c.buf {
			h = (h ^ v) * 1099511628211
			c.buf[i] = h
		}
	}
}

func (c *refClock) mapKernel() {
	for p := 0; p < refLookups; p++ {
		for _, k := range refKeysTable {
			c.sink += refTable[k]
		}
	}
}

// read takes one reading (about 1.2 ms of CPU time): the fastest of three
// runs of the ALU kernel and one run of the map kernel, whose first pass
// finds the caches as the workload left them.
func (c *refClock) read() {
	start := cpuTime()
	alu := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := cpuTime()
		c.aluKernel()
		alu = math.Min(alu, float64(cpuTime()-t0))
	}
	t0 := cpuTime()
	c.mapKernel()
	end := cpuTime()
	mp := float64(end - t0)
	c.spent += end - start
	c.at = append(c.at, time.Now())
	c.r = append(c.r, math.Pow(alu/float64(refNominal), 1-refMapShare)*math.Pow(mp/float64(refNominal), refMapShare))
}

// region is a workload's timed region as span coverage sees it: its wall
// time less what the clock's own readings took, which is the harness's
// time, not the workload's.
type region struct {
	c      *refClock
	t0     time.Time
	spent0 time.Duration
}

func (c *refClock) beginRegion() region { return region{c, time.Now(), c.spent} }

func (r region) elapsed() time.Duration { return time.Since(r.t0) - (r.c.spent - r.spent0) }

// tick takes a reading unless one was taken within refEvery. Loops over
// short operations call it between operations.
func (c *refClock) tick() {
	if n := len(c.at); n == 0 || time.Since(c.at[n-1]) >= refEvery {
		c.read()
	}
}

// scale is the factor that states wall time spent in [t0, t1] at
// reference speed: one over the mean of the readings from the last one
// before t0 to the first one after t1.
func (c *refClock) scale(t0, t1 time.Time) float64 {
	if len(c.at) == 0 {
		return 1
	}
	lo := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t0) })
	hi := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t1) })
	lo, hi = max(lo-1, 0), min(hi, len(c.at)-1)
	sum := 0.0
	for _, r := range c.r[lo : hi+1] {
		sum += r
	}
	return float64(hi+1-lo) / sum
}

// medianScale is the median reading's factor: divide a reference-speed
// time by it to get back this run's raw time.
func (c *refClock) medianScale() float64 {
	if len(c.r) == 0 {
		return 1
	}
	return 1 / summarize(c.r).Value
}

// Metric is one reported number. Q1/Q3/N describe the sample the value
// is the median of (segments of a rate phase, or per-operation samples
// of a latency phase); N is 0 for counts and single measurements.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// Check is one correctness verdict; a run is correct when all are OK.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one workload process reports. An untraced run
// fills EndToEnd, a traced run fills Layer (plus Busy, the per-span
// self-time shares); both fill the counts and checks.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []Check            `json:"checks"`
	EndToEnd  []Metric           `json:"end_to_end,omitempty"`
	Layer     []Metric           `json:"layer,omitempty"`
	Busy      map[string]float64 `json:"busy_pct,omitempty"`
	Inputs    string             `json:"inputs_digest"`
}

func (r *Result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// check records a verdict; a failed check also counts as a failed
// operation so the contract's `failed` is never 0 on an incorrect run.
func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Failed++
	}
	r.Attempted++
	r.Checks = append(r.Checks, c)
}

func (r *Result) e2e(name, unit string, s summary) {
	r.EndToEnd = append(r.EndToEnd, Metric{Name: name, Unit: unit, Value: s.Value, Q1: s.Q1, Q3: s.Q3, N: s.N})
}

func (r *Result) layer(name, unit string, s summary) {
	r.Layer = append(r.Layer, Metric{Name: name, Unit: unit, Value: s.Value, Q1: s.Q1, Q3: s.Q3, N: s.N})
}

// both reports a layer metric that also fills a cost slot (see
// workloadDef.Headline): one name, one measurement, kept by either run.
func (r *Result) both(name, unit string, s summary) {
	r.e2e(name, unit, s)
	r.layer(name, unit, s)
}

// value wraps a single measurement (a count, a ratio of totals).
func value(v float64) summary { return summary{Value: v} }

// metricValue looks a metric up by name (NaN when absent).
func metricValue(ms []Metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// summary is a sample's reported estimate (its median from summarize, its
// lower quartile from fastQuartile) and its quartiles.
type summary struct {
	Value, Q1, Q3 float64
	N             int
}

// quantile is the linear-interpolation quantile of a sorted sample (the
// "inclusive" method), 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	return summary{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func percentile(xs []float64, q float64) float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// fastQuartile summarizes wall-clock samples of a short operation by
// their lower quartile: what the operation takes when no neighbour's time
// slice lands in it (harness.go, "Reference speed"). The sample's median
// and upper quartile ride along.
func fastQuartile(xs []float64) summary {
	s := summarize(xs)
	return summary{Value: s.Q1, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

func (s summary) times(k float64) summary {
	return summary{Value: s.Value * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// segment is one slice of a rate phase: units of work completed, the
// time its operations took on the clock's stopwatch at reference speed,
// and each operation's own time, at reference speed too.
type segment struct {
	units   float64
	busy    time.Duration
	wall    time.Duration // raw wall time of the operations: what spans are compared with
	samples []float64     // microseconds
}

// runSlice drives op for d of wall time. op performs one operation and
// returns the units of work it completed (packets, requests); its time on
// the stopwatch is recorded as a sample, and the slice's time is the sum
// of them (or, with a slice stopwatch, the slice as a whole): between
// operations the clock takes its readings (tick), which are not the
// workload's time. A slice runs at least one operation, so a
// tiny budget (the smoke test) still exercises the whole path.
func runSlice(c *refClock, d time.Duration, op func() float64) segment {
	var s segment
	var busy, slice0 time.Duration
	if c.slice != nil {
		slice0 = c.slice() - c.spent
	}
	start := time.Now()
	for {
		c.tick()
		t0, w0 := time.Now(), c.watch()
		s.units += op()
		dt := c.watch() - w0
		now := time.Now()
		busy += dt
		s.wall += now.Sub(t0)
		s.samples = append(s.samples, float64(dt.Nanoseconds())/1e3)
		if now.Sub(start) >= d {
			if c.slice != nil {
				busy = c.slice() - c.spent - slice0
			}
			c.read()
			k := c.scale(start, now)
			s.busy = time.Duration(float64(busy) * k)
			for i := range s.samples {
				s.samples[i] *= k
			}
			return s
		}
	}
}

// sliceCount is how many slices a budget is cut into.
func sliceCount(budget time.Duration) int {
	return max(minSlices, int(budget/sliceLen))
}

// runSegments drives op for budget, cut into equal slices.
func runSegments(c *refClock, budget time.Duration, op func() float64) []segment {
	segs := make([]segment, sliceCount(budget))
	c.read()
	for i := range segs {
		segs[i] = runSlice(c, budget/time.Duration(len(segs)), op)
	}
	return segs
}

// runPaired drives two operations for budget in alternating slices
// (A/B/A/B…), so that whatever drifts on the host during the phase hits
// both alike. It is how every "X relative to Y" metric is measured:
// tracing overhead, obs overhead, worker scaling.
func runPaired(c *refClock, budget time.Duration, a, b func() float64) (as, bs []segment) {
	n := sliceCount(budget / 2)
	c.read()
	for i := 0; i < n; i++ {
		as = append(as, runSlice(c, budget/time.Duration(2*n), a))
		bs = append(bs, runSlice(c, budget/time.Duration(2*n), b))
	}
	return as, bs
}

// rate summarizes units per second across segments.
func rate(segs []segment) summary {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = s.units / s.busy.Seconds()
	}
	return summarize(xs)
}

func allSamples(segs []segment) []float64 {
	var out []float64
	for _, s := range segs {
		out = append(out, s.samples...)
	}
	return out
}

// rawWall is the wall time the operations of segs took, as measured.
func rawWall(segs []segment) (d time.Duration) {
	for _, s := range segs {
		d += s.wall
	}
	return d
}

func totals(segs []segment) (units float64, busy time.Duration, ops int) {
	for _, s := range segs {
		units += s.units
		busy += s.busy
		ops += len(s.samples)
	}
	return
}

// timedSamples runs op repeatedly until budget is spent (at least min
// times) or op reports that it has nothing left to do, and returns each
// completed call's time on the stopwatch in milliseconds at reference
// speed. It is the shape of the slow-operation phases (swaps, compiles),
// where each operation is its own sample instead of a slice's worth.
func timedSamples(c *refClock, budget time.Duration, min int, op func(i int) bool) []float64 {
	type span struct {
		t0, t1 time.Time
		took   time.Duration
	}
	var spans []span
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		c.tick()
		t0, w0 := time.Now(), c.watch()
		if !op(i) {
			break
		}
		spans = append(spans, span{t0, time.Now(), c.watch() - w0})
	}
	c.read()
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.took.Nanoseconds()) / 1e6 * c.scale(s.t0, s.t1)
	}
	return out
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
// The driver's contract asks for this ("set up several times in a run and
// report the median"): a single 6–130 ms set-up read ±30 % run to run,
// and the median of five still ±13 %.
const setupReps = 15

// medianSetup repeats a set-up routine (twice on a smoke-sized budget)
// and reports the median CPU time in seconds at reference speed: what this
// process spent in it plus what the routine says a child process spent. The
// last repetition's products are the ones used.
func (x *runCtx) medianSetup(setup func() (child time.Duration)) float64 {
	c := x.clk
	xs := make([]float64, min(setupReps, x.atLeast(setupReps)+1))
	c.read()
	for i := range xs {
		t0, c0 := time.Now(), cpuTime()
		child := setup()
		took := cpuTime() - c0 + child
		t1 := time.Now()
		c.read()
		xs[i] = took.Seconds() * c.scale(t0, t1)
	}
	return summarize(xs).Value
}

// procStat reads a process's peak resident set (MiB) and CPU time
// (seconds, all threads) from /proc. pid 0 means this process.
type procStat struct {
	PeakRSSMiB float64
	CPUSeconds float64
}

func readProc(pid int) (procStat, error) {
	if pid == 0 {
		pid = os.Getpid()
	}
	var ps procStat
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				ps.PeakRSSMiB = kb / 1024
			}
		}
	}
	cpu, err := taskCPUTime(pid)
	ps.CPUSeconds = cpu.Seconds()
	return ps, err
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

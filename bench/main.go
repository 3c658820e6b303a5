// Command bench is the repository's one committed benchmark: five
// workloads, each its own process, reporting wire-to-delivery and
// submit-to-swap numbers decomposed by layer, every timed number next
// to an independent correctness check. See README.md in this directory.
//
//	bash bench/run.sh --workload engine-forward --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -all -repeat 2
//	bash bench/run.sh compare old.ndjson new.ndjson
//
// All traffic is host loopback or in-process; link rates are not
// measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eventnet/internal/dataplane"
)

// defaultSeed is the seed of the ledger rows and the README numbers.
const defaultSeed = 1

// runCtx is what a workload needs to run once.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer   // nil on an untraced run
	clk     *refClock // the main goroutine's stopwatch (the CPU clock) and reference-speed readings
	res     *Result
	netd    string // prebuilt netd binary; "" builds one
	sut     sutUsage
}

func (x *runCtx) traced() bool { return x.tr != nil }

// atLeast is the minimum number of slow operations a phase runs even
// when its budget is already spent: n, or 1 on a smoke-sized budget.
func (x *runCtx) atLeast(n int) int {
	if x.seconds < 1 {
		return 1
	}
	return n
}

// share returns a fraction of the run's timed budget.
func (x *runCtx) share(f float64) time.Duration {
	return time.Duration(f * x.seconds * float64(time.Second))
}

// sutUsage is the resource use of the system under test over the timed
// region: this process for the in-process workloads, the netd child for
// wire-inject.
type sutUsage struct {
	CPUCores    float64
	AllocMBPerS float64
	GCCycles    float64
	PeakRSSMiB  float64
}

// selfUsage measures this process between two points.
type selfUsage struct {
	t0  time.Time
	cpu float64
	mem runtime.MemStats
}

func beginSelfUsage() *selfUsage {
	u := &selfUsage{t0: time.Now()}
	ps, _ := readProc(0)
	u.cpu = ps.CPUSeconds
	runtime.ReadMemStats(&u.mem)
	return u
}

func (u *selfUsage) end() sutUsage {
	wall := time.Since(u.t0).Seconds()
	ps, _ := readProc(0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sutUsage{
		CPUCores:    (ps.CPUSeconds - u.cpu) / wall,
		AllocMBPerS: float64(m.TotalAlloc-u.mem.TotalAlloc) / (1 << 20) / wall,
		GCCycles:    float64(m.NumGC - u.mem.NumGC),
		PeakRSSMiB:  ps.PeakRSSMiB,
	}
}

// digestInjections fingerprints generated traffic, so a test can show
// that the seed (and nothing else) decides the inputs.
func digestInjections(sets ...[][]dataplane.Injection) string {
	h := fnv.New64a()
	for _, set := range sets {
		for _, b := range set {
			for _, in := range b {
				fmt.Fprintf(h, "%s|%s;", in.Host, in.Fields.Key())
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func main() {
	oneCore() // before anything reports GOMAXPROCS
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (README.md lists them)")
		seed    = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "timed budget of the run, split over the workload's phases")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		all     = flag.Bool("all", false, "run every workload, untraced and traced, each as its own process")
		repeat  = flag.Int("repeat", 1, "with -all: number of full sets; 2 prints the agreement table")
		ledger  = flag.Bool("ledger", false, "with -all: append the first set to bench/ledger.ndjson")
		netd    = flag.String("netd", "", "prebuilt netd binary for wire-inject (default: build one)")
	)
	flag.Parse()
	if *all {
		os.Exit(runAll(*seed, *seconds, *repeat, *ledger, *netd))
	}
	os.Exit(runOne(*name, *seed, *seconds, *trace != 0, *netd))
}

// runOne runs one workload in this process and prints its metrics; the
// last line of standard output is the driver's JSON object.
func runOne(name string, seed int64, seconds float64, traced bool, netd string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("# bench %s seed=%d seconds=%g traced=%v gomaxprocs=%d (host loopback / in-process; link rates not measured)\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	x, err := execute(w, seed, seconds, traced, netd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	res := x.res
	out := filepath.Join(benchDir(), "out")
	if traced {
		fmt.Printf("# trace written to %s\n", filepath.Join(out, "trace-"+name+".json"))
	}
	if err := writeResult(out, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(res)

	line, err := contractLine(w, bj, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !res.correct() {
		return 1
	}
	return 0
}

// execute runs one workload in this process and finishes its Result: an
// untraced run keeps the end-to-end metrics, a traced run the per-layer
// ones (its end-to-end values carry the cost of tracing), the busy shares
// and the trace file.
func execute(w *workloadDef, seed int64, seconds float64, traced bool, netd string) (*runCtx, error) {
	oneCore()
	x := &runCtx{
		seed: seed, seconds: seconds, netd: netd, clk: newRefClock(cpuTime),
		res: &Result{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced},
	}
	if traced {
		x.tr = newTracer()
	}
	if err := w.Run(x); err != nil {
		return nil, err
	}
	if !traced {
		x.res.Layer = nil
		x.res.e2e("peak_rss_mb", "MiB", value(x.sut.PeakRSSMiB))
		return x, nil
	}
	x.res.EndToEnd = nil
	x.res.layer("sut.cpu_cores", "cores", value(x.sut.CPUCores))
	x.res.layer("sut.alloc_mb_per_s", "MiB/s", value(x.sut.AllocMBPerS))
	x.res.layer("sut.gc_cycles", "count", value(x.sut.GCCycles))
	x.res.layer("bench.ref_scale", "ratio", value(x.clk.medianScale()))
	x.res.Busy = busyShares(x.tr)
	if _, err := x.tr.write(filepath.Join(benchDir(), "out"), w.Name, seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return x, nil
}

// busyShares is each span name's self time as a share of all recorded
// root-span time.
func busyShares(t *tracer) map[string]float64 {
	self, _, roots := t.selfTimes()
	out := map[string]float64{}
	for name, ns := range self {
		out[name] = pct(float64(ns), float64(roots))
	}
	return out
}

func resultPath(dir string, workload string, traced bool) string {
	suffix := ""
	if traced {
		suffix = "-trace"
	}
	return filepath.Join(dir, "result-"+workload+suffix+".json")
}

func writeResult(dir string, r *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, r.Workload, r.Traced), b, 0o644)
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printResult(r *Result) {
	show := func(kind string, ms []Metric) {
		for _, m := range ms {
			if m.N > 0 {
				fmt.Printf("%-10s %-34s %16.6g %-10s q1=%.6g q3=%.6g n=%d\n", kind, m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
			} else {
				fmt.Printf("%-10s %-34s %16.6g %s\n", kind, m.Name, m.Value, m.Unit)
			}
		}
	}
	show("end-to-end", r.EndToEnd)
	show("layer", r.Layer)
	for _, name := range sortedKeys(r.Busy) {
		fmt.Printf("%-10s %-34s %16.4f %% of traced time (self)\n", "busy", name, r.Busy[name])
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Printf("%-10s %-34s %s\n", "check", c.Name, verdict)
	}
	fmt.Printf("%-10s attempted=%d failed=%d inputs=%s\n", "ops", r.Attempted, r.Failed, r.Inputs)
}

// contractLine renders the driver's JSON object: every declared
// end-to-end metric (the cost slots) on an untraced run, every declared
// per-layer metric on a traced one. The driver wants the whole per-layer
// set from every workload, so a layer metric of another workload reads 0
// there: not measured, the layer is not on this workload's path.
func contractLine(w *workloadDef, bj *benchmarkJSON, res *Result) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if !res.Traced {
		for _, m := range res.EndToEnd {
			slot := w.slotOf(m.Name)
			v := m.Value
			if slot != m.Name {
				var err error
				if v, err = toMicros(m.Value, m.Unit); err != nil {
					return "", fmt.Errorf("%s: %w", m.Name, err)
				}
			}
			metrics[slot] = mv{Value: v}
		}
		for _, d := range bj.EndToEnd {
			m, ok := metrics[d.Name]
			if !ok {
				return "", fmt.Errorf("workload %s did not measure %s", w.Name, d.Name)
			}
			m.Unit = d.Unit
			metrics[d.Name] = m
		}
		if len(metrics) != len(bj.EndToEnd) {
			return "", fmt.Errorf("workload %s measured %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(metrics), len(bj.EndToEnd))
		}
	} else {
		for _, d := range bj.PerLayer {
			metrics[d.Name] = mv{Unit: d.Unit}
		}
		for _, m := range res.Layer {
			if _, ok := metrics[m.Name]; !ok {
				return "", fmt.Errorf("per-layer metric %s is not declared in BENCHMARK.json", m.Name)
			}
			metrics[m.Name] = mv{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	return string(b), err
}

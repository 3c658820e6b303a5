package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"eventnet/internal/apps"
)

var (
	netdOnce sync.Once
	netdBin  string
	netdErr  error
)

// smokeSeconds is the timed budget of the smoke runs: small enough that
// every phase runs its minimum number of operations and nothing more.
// No test here asserts on a timing.
const smokeSeconds = 0.05

// testNetd builds the daemon once for the whole test binary.
func testNetd(t *testing.T) string {
	t.Helper()
	netdOnce.Do(func() { netdBin, netdErr = buildNetd(filepath.Join(benchDir(), "out", "bin")) })
	if netdErr != nil {
		t.Fatal(netdErr)
	}
	return netdBin
}

func names(ds []def) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func metricNames(ms []Metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// contractKeys runs contractLine and returns the metric names of the
// driver's JSON object.
func contractKeys(t *testing.T, w *workloadDef, bj *benchmarkJSON, res *Result) []string {
	t.Helper()
	line, err := contractLine(w, bj, res)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var obj struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("%s: contract line is not JSON: %v\n%s", w.Name, err, line)
	}
	if obj.Correct == nil || !*obj.Correct || obj.Attempted < 1 || obj.Failed != 0 {
		t.Errorf("%s: contract line reports correct=%v attempted=%d failed=%d", w.Name, obj.Correct, obj.Attempted, obj.Failed)
	}
	var keys []string
	for k, m := range obj.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("%s: contract metric %s lacks a value or a unit", w.Name, k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contractNames(ms []contractMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// declaredPerLayer is the per_layer list BENCHMARK.json must hold: every
// native layer metric of the catalog, once, in catalog order.
func declaredPerLayer() []contractMetric {
	var out []contractMetric
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, d := range w.Layer {
			if !seen[d.Name] {
				seen[d.Name] = true
				out = append(out, contractMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
			}
		}
	}
	return out
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalog from drifting.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, bench has %d", len(bj.Workloads), len(workloads))
	}
	slotBound := map[string]float64{}
	for _, m := range bj.EndToEnd {
		slotBound[m.Name] = m.Bound
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q, bench has %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		// The driver's gate on a slot is never tighter than the bound of a
		// native metric behind it.
		for _, d := range workloads[i].endToEnd() {
			if slot := workloads[i].slotOf(d.Name); !(d.Bound > 0 && d.Bound <= slotBound[slot]) {
				t.Errorf("%s: bound of %s is %v, of its slot %s %v", w.Name, d.Name, d.Bound, slot, slotBound[slot])
			}
		}
	}
	want := declaredPerLayer()
	if len(bj.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the catalog %d", len(bj.PerLayer), len(want))
	}
	for i, m := range bj.PerLayer {
		if m != want[i] {
			t.Errorf("per_layer[%d] is %+v, the catalog has %+v", i, m, want[i])
		}
	}
}

// TestWorkloads runs every workload at the smoke budget (including the
// netd child): traced with seed 1, then untraced with seed 2. It asserts
// that all checks pass, that the native metric names equal the catalog
// exactly and the driver's JSON names equal BENCHMARK.json exactly
// (catalog drift fails), and that another seed changes the generated
// inputs. Exact counts repeating for a seed is `-all -repeat 2`'s check.
func TestWorkloads(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	netd := testNetd(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed int64, traced bool) *Result {
				x, err := execute(w, seed, smokeSeconds, traced, netd)
				if err != nil {
					t.Fatalf("seed %d traced %v: %v", seed, traced, err)
				}
				for _, c := range x.res.Checks {
					if !c.OK {
						t.Errorf("seed %d traced %v: check %s failed: %s", seed, traced, c.Name, c.Detail)
					}
				}
				if x.res.Failed != 0 || x.res.Attempted < 1 {
					t.Errorf("seed %d traced %v: attempted %d failed %d", seed, traced, x.res.Attempted, x.res.Failed)
				}
				return x.res
			}
			traced := run(1, true)
			if got, want := metricNames(traced.Layer), names(w.Layer); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			units := map[string]string{}
			for _, d := range w.Layer {
				units[d.Name] = d.Unit
			}
			for _, m := range traced.Layer {
				if units[m.Name] != m.Unit {
					t.Errorf("per-layer metric %s has unit %q, catalog says %q", m.Name, m.Unit, units[m.Name])
				}
			}
			if got, want := contractKeys(t, w, bj, traced), contractNames(bj.PerLayer); !slices.Equal(got, want) {
				t.Errorf("driver per-layer names\n got %v\nwant %v", got, want)
			}
			if _, err := os.Stat(filepath.Join(benchDir(), "out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}

			plain := run(2, false)
			if got, want := metricNames(plain.EndToEnd), names(w.endToEnd()); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			if got, want := contractKeys(t, w, bj, plain), contractNames(bj.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("driver end-to-end names\n got %v\nwant %v", got, want)
			}
			for _, m := range plain.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; must never be 0", m.Name, m.Value)
				}
			}
			if traced.Inputs == "" || plain.Inputs == traced.Inputs {
				t.Errorf("seeds 1 and 2 generated the same inputs (%q)", traced.Inputs)
			}
		})
	}
}

// TestSeedDecidesInputs: the generators every workload draws from give
// the same inputs for the same seed.
func TestSeedDecidesInputs(t *testing.T) {
	c, err := compileApp(oracleSet()[0])
	if err != nil {
		t.Fatal(err)
	}
	if a, b := digestInjections(batchesOf(c, 1, 8)), digestInjections(batchesOf(c, 1, 8)); a != b {
		t.Errorf("LoadGen streams of seed 1 differ: %s vs %s", a, b)
	}
	if a, b := novelRevisions(1), novelRevisions(1); !slices.EqualFunc(a, b, func(x, y apps.App) bool { return x.Name == y.Name }) {
		t.Errorf("revision orders of seed 1 differ")
	}
	seen := map[string]bool{}
	for _, a := range novelRevisions(1) {
		seen[a.Name] = true
	}
	if len(seen) != 1<<novelBits {
		t.Errorf("revision order covers %d of %d programs", len(seen), 1<<novelBits)
	}
}

// TestReadmeCatalog keeps README.md's catalogs from drifting: every
// native metric and every workload must be mentioned there.
func TestReadmeCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(benchDir(), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for i := range workloads {
		w := &workloads[i]
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
		for _, d := range append(w.endToEnd(), w.Layer...) {
			name := d.Name
			if strings.HasPrefix(name, "compile.cold_ms.") {
				name = "compile.cold_ms."
			}
			if !strings.Contains(readme, name) {
				t.Errorf("README.md does not mention metric %s of %s", d.Name, w.Name)
			}
		}
	}
}

// TestCompareVerdicts pins the classification rule of `bench compare`.
func TestCompareVerdicts(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	loose := func(v float64) summary { return summary{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 10} }
	for _, c := range []struct {
		old, new summary
		better   string
		want     string
	}{
		{tight(100), tight(103), "lower", "unchanged"},
		{tight(100), tight(120), "lower", "REGRESSION"},
		{tight(100), tight(80), "lower", "improved"},
		{tight(100), tight(80), "higher", "REGRESSION"},
		{tight(100), tight(125), "higher", "improved"},
		{loose(100), tight(103), "lower", "unresolved"},
		{tight(100), loose(97), "higher", "unresolved"},
	} {
		if got := verdict(c.old, c.new, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, better %s) = %s, want %s", c.old.Value, c.new.Value, c.better, got, c.want)
		}
	}
}

// TestSelfTime pins the tracer's arithmetic: self time is duration
// minus children, and roots add up.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	k := tr.track("t")
	k.Spans = []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 50, End: 70},
		{Name: "leaf", Parent: 1, Start: 15, End: 25},
		{Name: "open", Parent: -1, Start: 100, End: -1},
	}
	self, calls, roots := tr.selfTimes()
	if roots != 100 || self["root"] != 50 || self["child"] != 40 || self["leaf"] != 10 || calls["child"] != 2 || calls["open"] != 0 {
		t.Errorf("self %v calls %v roots %d", self, calls, roots)
	}
}

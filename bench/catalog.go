package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Native names, and the cost slots of the contract line.
//
// The workloads report *native* metrics under the names the issue fixed
// (wire_pps, swap_novel_p50_ms, ets.build_ms_cap200, ...), each only on
// the workload that measures it. The text output, bench/out/result-*.json,
// `bench compare`, `-all -repeat`, the ledger and the per-layer half of
// BENCHMARK.json all use these names.
//
// The end-to-end half cannot: the driver's contract reads "with --trace 0
// the metrics are every end_to_end metric" and "choose metrics that are
// never 0" — one set, emitted by every workload. So BENCHMARK.json
// declares setup_s, peak_rss_mb and three cost slots (time per unit of the
// workload's own headline work, lower is better), and Headline maps each
// workload's three gated natives onto them; a rate becomes its reciprocal
// (µs per unit — the median of reciprocals is the reciprocal of the
// median, so nothing is lost).

// costSlots are the contract names of the three headline slots.
var costSlots = [3]string{"cost_a_us", "cost_b_us", "cost_c_us"}

// def declares one native metric of a workload.
type def struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: the regression bound compare and -all apply
	Exact  bool    // must repeat exactly for a given seed
}

type workloadDef struct {
	Name     string
	Why      string
	Run      func(*runCtx) error
	Headline [3]def // the gated natives, in cost-slot order
	Layer    []def  // native per-layer metrics of a traced run
}

// Bounds are twice the largest run-to-run spread (interquartile distance
// over median, ten seeds) seen for the metric over the calibration rounds
// on the 2-vCPU host, calm and under a synthetic neighbour; never below
// 10 %, never above the contract's 25 %. README.md has the table.
var commonE2E = []def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// endToEnd lists a workload's native end-to-end metrics.
func (w *workloadDef) endToEnd() []def {
	return append(append([]def{}, commonE2E...), w.Headline[:]...)
}

// slotOf returns the contract slot a native end-to-end metric feeds.
func (w *workloadDef) slotOf(native string) string {
	for i, h := range w.Headline {
		if h.Name == native {
			return costSlots[i]
		}
	}
	return native // setup_s, peak_rss_mb
}

// toMicros converts a native headline value to the cost slots' unit:
// microseconds per unit of work.
func toMicros(v float64, unit string) (float64, error) {
	switch {
	case strings.HasSuffix(unit, "/s"):
		if v == 0 {
			return 0, fmt.Errorf("zero rate")
		}
		return 1e6 / v, nil
	case unit == "us":
		return v, nil
	case unit == "ms":
		return v * 1e3, nil
	case unit == "s":
		return v * 1e6, nil
	}
	return 0, fmt.Errorf("no conversion from %q to us", unit)
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchDir locates the benchmark's directory from the working directory:
// the repository root (how the driver and run.sh start it) or bench/
// itself (go run ., go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	path := filepath.Join(benchDir(), "..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

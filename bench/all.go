package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runsPerSet is how many untraced runs of a workload make a set; the
// set's value is their median. A single 10 s run is occasionally 30 % off
// on a shared host.
const runsPerSet = 3

// runAll runs `repeat` full sets. A set is every workload as its own
// process (so peak_rss_mb is per workload), runsPerSet times untraced and
// once traced; a set's end-to-end value is the median over its untraced runs,
// with the run-to-run quartiles. The sets are interleaved run by run, in
// alternating order (1 2, 2 1, 1 2, …): the host's speed moves by tens of
// percent over tens of minutes, and two sets measured one after the other
// would differ by that, not by anything in the code. It writes the sets to
// bench/out/sets.ndjson, prints them, and with two or more sets prints
// the agreement table and fails when an end-to-end metric differs between
// sets by more than its bound or an exact count differs at all.
func runAll(seed int64, seconds float64, repeat int, ledger bool, netd string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	out := filepath.Join(benchDir(), "out")
	if netd == "" {
		if netd, err = buildNetd(filepath.Join(out, "bin")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	sets := make([]setRow, repeat)
	for rep := range sets {
		sets[rep] = newSetRow(seed, seconds)
	}
	failed := false
	for _, w := range workloads {
		sws := make([]setWorkload, repeat)
		for rep := range sws {
			sws[rep].Correct = true
		}
		plain := make([][][]Metric, repeat)
		for i := 0; i <= runsPerSet; i++ {
			traced := i == runsPerSet // the untraced runs first, then one traced
			t := "0"
			if traced {
				t = "1"
			}
			for j := 0; j < repeat; j++ {
				rep := j
				if i%2 == 1 {
					rep = repeat - 1 - j
				}
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t, "-netd", netd)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				fmt.Printf("\n## set %d: %s trace=%s\n", rep+1, w.Name, t)
				runErr := cmd.Run()
				res, err := readResult(resultPath(out, w.Name, traced))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v (run: %v)\n", w.Name, err, runErr)
					return 1
				}
				sw := &sws[rep]
				sw.Correct = sw.Correct && runErr == nil && res.correct()
				sw.Attempted += res.Attempted
				sw.Failed += res.Failed
				if traced {
					sw.Layer = res.Layer
				} else {
					plain[rep] = append(plain[rep], res.EndToEnd)
				}
			}
		}
		for rep := range sets {
			sws[rep].EndToEnd = acrossRuns(plain[rep])
			failed = failed || !sws[rep].Correct
			sets[rep].Workloads[w.Name] = sws[rep]
		}
	}

	if err := writeSets(filepath.Join(out, "sets.ndjson"), sets, false); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printSets(sets)
	if len(sets) >= 2 && !agreement(sets[0], sets[1]) {
		failed = true
	}
	if failed {
		fmt.Println("\nbench -all: FAILED")
		return 1
	}
	if ledger {
		path := filepath.Join(benchDir(), "ledger.ndjson")
		if err := writeSets(path, sets[:1], true); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("\nappended set 1 to %s\n", path)
	}
	return 0
}

// acrossRuns folds the end-to-end metrics of a workload's untraced runs
// into one list: the median over runs with the run-to-run quartiles.
func acrossRuns(runs [][]Metric) []Metric {
	var out []Metric
	for _, m := range runs[0] {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = metricValue(r, m.Name)
		}
		s := summarize(xs)
		out = append(out, Metric{Name: m.Name, Unit: m.Unit, Value: s.Value, Q1: s.Q1, Q3: s.Q3, N: s.N})
	}
	return out
}

func newSetRow(seed int64, seconds float64) setRow {
	r := setRow{
		Commit: "unknown", Date: time.Now().UTC().Format("2006-01-02"), Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown",
		Seed: seed, Seconds: seconds, Workloads: map[string]setWorkload{},
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "-C", benchDir(), "rev-parse", "--short", "HEAD").Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				r.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return r
}

func writeSets(path string, sets []setRow, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range sets {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func printSets(sets []setRow) {
	for i, s := range sets {
		fmt.Printf("\n== set %d: commit %s, %s, %s, GOMAXPROCS %d, nproc %d, %s ==\n", i+1, s.Commit, s.Date, s.Go, s.GOMAXPROCS, s.NProc, s.CPU)
		for _, w := range workloads {
			sw := s.Workloads[w.Name]
			for _, m := range sw.EndToEnd {
				fmt.Printf("%-18s %-20s %14.6g %-10s [%.6g, %.6g]\n", w.Name, m.Name, m.Value, m.Unit, m.Q1, m.Q3)
			}
			fmt.Printf("%-18s attempted=%d failed=%d correct=%v\n", w.Name, sw.Attempted, sw.Failed, sw.Correct)
		}
	}
}

// agreement compares two sets of the same code: every end-to-end metric
// within its bound, every exact count identical.
func agreement(a, b setRow) bool {
	ok := true
	fmt.Printf("\n== agreement of set 1 and set 2 ==\n%-18s %-30s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i := range workloads {
		w := &workloads[i]
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		for _, d := range w.endToEnd() {
			va, vb := metricValue(wa.EndToEnd, d.Name), metricValue(wb.EndToEnd, d.Name)
			diff := math.Abs(vb-va) / va
			mark := ""
			if !(diff <= d.Bound) {
				mark, ok = "  DISAGREE", false
			}
			fmt.Printf("%-18s %-30s %14.6g %14.6g %8.2f%% %5.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
		for _, d := range w.Layer {
			if !d.Exact {
				continue
			}
			va, vb := metricValue(wa.Layer, d.Name), metricValue(wb.Layer, d.Name)
			mark := ""
			if va != vb {
				mark, ok = "  DIFFERS", false
			}
			fmt.Printf("%-18s %-30s %14.6g %14.6g %9s %6s%s\n", w.Name, d.Name, va, vb, "exact", "", mark)
		}
	}
	return ok
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// setRow is one full set of runs — every workload a few times untraced
// and once traced — with the machine it ran on. It is one line of an NDJSON file:
// bench/out/sets.ndjson (what -all writes) and bench/ledger.ndjson (the
// committed, append-only history) share the format, so `bench compare`
// reads either.
type setRow struct {
	Commit     string                 `json:"commit"`
	Date       string                 `json:"date"`
	Go         string                 `json:"go"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	CPU        string                 `json:"cpu_model"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Workloads  map[string]setWorkload `json:"workloads"`
}

type setWorkload struct {
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	EndToEnd  []Metric `json:"end_to_end"`
	Layer     []Metric `json:"layer"`
}

func readSets(path string) ([]setRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []setRow
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r setRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return rows, sc.Err()
}

// across summarizes one end-to-end metric over the rows of a file. With
// several rows it is the median and quartiles of the per-run values (the
// run-to-run spread); with one row it falls back to that run's own
// quartiles.
func across(rows []setRow, workload, metric string) (summary, bool) {
	var xs []float64
	var only Metric
	for _, r := range rows {
		for _, m := range r.Workloads[workload].EndToEnd {
			if m.Name == metric {
				xs = append(xs, m.Value)
				only = m
			}
		}
	}
	switch len(xs) {
	case 0:
		return summary{}, false
	case 1:
		return summary{Value: only.Value, Q1: only.Q1, Q3: only.Q3, N: only.N}, true
	}
	return summarize(xs), true
}

// spread is the interquartile distance as a share of the median (0 when
// the sample has no quartiles).
func (s summary) spread() float64 {
	if s.N == 0 || s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// verdict classifies new against old for a metric whose better direction
// and bound are known.
func verdict(old, new summary, better string, bound float64) string {
	worse := new.Value/old.Value - 1 // relative change in the worse direction
	if better == "higher" {
		worse = old.Value/new.Value - 1
	}
	switch {
	case worse > bound:
		return "REGRESSION"
	case -worse > bound:
		return "improved"
	case max(old.spread(), new.spread()) > bound:
		return "unresolved"
	}
	return "unchanged"
}

// compareMain implements `bench compare <old> <new>`: one row per
// workload and end-to-end metric, ratios stated with their base, each
// metric under its own bound from the catalog (workloads.go). It exits 1 on a regression.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <old.ndjson> <new.ndjson>")
		return 2
	}
	old, err := readSets(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	new, err := readSets(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("old: %s (%d sets, commit %s)   new: %s (%d sets, commit %s)\n",
		args[0], len(old), old[len(old)-1].Commit, args[1], len(new), new[len(new)-1].Commit)
	fmt.Printf("%-18s %-20s %-11s %28s %28s %14s %6s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "new/old", "bound", "verdict")
	regressed := 0
	for i := range workloads {
		w := &workloads[i]
		for _, d := range w.endToEnd() {
			o, ok1 := across(old, w.Name, d.Name)
			n, ok2 := across(new, w.Name, d.Name)
			if !ok1 || !ok2 {
				fmt.Printf("%-18s %-20s missing from %s\n", w.Name, d.Name, map[bool]string{true: args[1], false: args[0]}[ok1])
				regressed++
				continue
			}
			v := verdict(o, n, d.Better, d.Bound)
			if v == "REGRESSION" {
				regressed++
			}
			cell := func(s summary) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Value, s.Q1, s.Q3) }
			fmt.Printf("%-18s %-20s %-11s %28s %28s %7.3f x old %5.0f%%  %s\n",
				w.Name, d.Name, d.Unit, cell(o), cell(n), n.Value/o.Value, 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		fmt.Printf("%d end-to-end metrics regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}

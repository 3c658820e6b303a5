// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5) and prints them in order, plus the sampled
// journey trace and the chaos audit. Use -quick for a reduced Figure 10
// sweep and smaller ring diameters, and -json for machine-readable
// output (one JSON object per line). It measures nothing about this
// implementation's speed: bench/ is the one benchmark
// (docs/BENCHMARKS.md).
//
//	experiments                  # full reproduction (a few minutes)
//	experiments -quick           # seconds
//	experiments -only fig14,fig17
//	experiments -json -only chaos   # chaos audit; exit 1 on any violation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"eventnet/internal/exp"
)

// result is the machine-readable form of one experiment's output.
// RunSeq is a monotonic emission counter (ties rows of one invocation
// together and orders them).
type result struct {
	Kind    string     `json:"kind"` // "table" or "timeline"
	Name    string     `json:"name"`
	RunSeq  int64      `json:"run_seq"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Timelines flatten to rows of [series, time, flow, outcome].
}

var asJSON bool
var runSeq atomic.Int64

// emit prints a table or timeline either human-readably or as one JSON
// line.
func emit(name string, v any) {
	if !asJSON {
		fmt.Println(v)
		return
	}
	var r result
	switch t := v.(type) {
	case *exp.Table:
		r = result{Kind: "table", Name: name, Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	case *exp.Timeline:
		r = result{Kind: "timeline", Name: name, Title: t.Title, Columns: []string{"series", "time_s", "flow", "outcome"}}
		for _, series := range []struct {
			label string
			pts   []exp.TimelinePoint
		}{{"correct", t.Correct}, {"uncoordinated", t.Uncoord}} {
			for _, p := range series.pts {
				mark := "ok"
				if !p.OK {
					mark = "drop"
				}
				r.Rows = append(r.Rows, []string{series.label, fmt.Sprintf("%.2f", p.Time), p.Flow, mark})
			}
		}
	default:
		panic(fmt.Sprintf("experiments: unknown result type %T", v))
	}
	r.RunSeq = runSeq.Add(1)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	only := flag.String("only", "", "comma-separated subset: fig10..fig17, tables, chaos, trace")
	flag.BoolVar(&asJSON, "json", false, "emit one JSON object per experiment instead of text")
	flag.Parse()

	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[strings.ToLower(k)] = true
		}
	}
	// sel also ticks the name off, so that what is left in want afterwards
	// is what no experiment answered to (the removed timing experiments
	// among them) and does not pass for an empty, successful run.
	all := len(want) == 0
	sel := func(k string) bool {
		ok := all || want[k]
		delete(want, k)
		return ok
	}

	if sel("tables") {
		emit("table-compile", exp.TableCompile())
		emit("table-optimize", exp.TableOptimize())
	}
	if sel("trace") {
		packets := 48
		if *quick {
			packets = 12
		}
		emit("trace", exp.Trace(packets))
	}
	if sel("chaos") {
		rounds, seeds := 800, []int64{1, 2}
		if *quick {
			rounds, seeds = 200, []int64{1}
		}
		res, err := exp.Chaos(rounds, seeds, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: chaos: %v\n", err)
			os.Exit(1)
		}
		emit("chaos", res.Table)
		if res.Violations != 0 {
			fmt.Fprintf(os.Stderr, "experiments: chaos audit FAILED: %d violations over %d audited deliveries\n",
				res.Violations, res.Audited)
			for i, r := range res.Reproducers {
				fmt.Fprintf(os.Stderr, "reproducer: %s\n", r)
				if i < len(res.FlightDumps) && res.FlightDumps[i] != nil {
					d := res.FlightDumps[i]
					path := fmt.Sprintf("chaos-flight-%d.json", i)
					if b, err := json.Marshal(d); err == nil && os.WriteFile(path, b, 0o644) == nil {
						fmt.Fprintf(os.Stderr, "flight dump: %s (%d records)\n", path, len(d.Records))
					}
				}
			}
			os.Exit(1)
		}
	}
	if sel("fig10") {
		if *quick {
			emit("fig10", exp.Fig10(1000, 250, 3))
		} else {
			emit("fig10", exp.Fig10(5000, 100, 10))
		}
	}
	if sel("fig11") {
		emit("fig11", exp.Fig11())
	}
	if sel("fig12") {
		emit("fig12", exp.Fig12())
	}
	if sel("fig13") {
		emit("fig13", exp.Fig13())
	}
	if sel("fig14") {
		emit("fig14", exp.Fig14())
	}
	if sel("fig15") {
		emit("fig15", exp.Fig15())
	}
	if sel("fig16a") {
		ds := []int{2, 3, 4, 5, 6, 7, 8}
		if *quick {
			ds = []int{2, 4, 6}
		}
		emit("fig16a", exp.Fig16a(ds))
	}
	if sel("fig16b") {
		ds := []int{3, 4, 5, 6, 7, 8}
		if *quick {
			ds = []int{3, 5, 7}
		}
		emit("fig16b", exp.Fig16b(ds))
	}
	if sel("fig17") {
		trials := 20
		if *quick {
			trials = 5
		}
		emit("fig17", exp.Fig17(trials, 42))
	}
	for k := range want {
		fmt.Fprintf(os.Stderr, "experiments: no experiment named %q\n", k)
		os.Exit(2)
	}
}

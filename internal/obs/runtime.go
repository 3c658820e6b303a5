package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
)

// Go runtime exposition: a small curated slice of runtime/metrics
// rendered in Prometheus text form, appended to /metrics after the
// eventnet_ registry. Sampling happens at scrape time (runtime/metrics
// reads are cheap and allocation-light); nothing here touches the
// engine.

// runtimeSample is one exported runtime metric: the runtime/metrics
// name, the exposition name, and how to render it.
type runtimeSample struct {
	src  string
	name string
	help string
	typ  string // counter | gauge
}

var runtimeScalars = []runtimeSample{
	{"/memory/classes/heap/objects:bytes", "eventnet_go_heap_objects_bytes", "Bytes of live heap objects.", "gauge"},
	{"/memory/classes/total:bytes", "eventnet_go_memory_total_bytes", "Total bytes mapped by the Go runtime.", "gauge"},
	{"/sched/goroutines:goroutines", "eventnet_go_goroutines", "Live goroutines.", "gauge"},
	{"/gc/cycles/total:gc-cycles", "eventnet_go_gc_cycles_total", "Completed GC cycles.", "counter"},
	{"/gc/heap/allocs:bytes", "eventnet_go_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap.", "counter"},
}

var runtimeHists = []runtimeSample{
	{"/gc/pauses:seconds", "eventnet_go_gc_pause", "Stop-the-world GC pause latency.", ""},
	{"/sched/latencies:seconds", "eventnet_go_sched_latency", "Goroutine scheduling latency (runnable to running).", ""},
}

// WriteRuntimeMetrics renders the curated runtime metrics — heap and
// total memory, goroutines, GC cycles and allocation volume, and
// p50/p99 of GC pause and scheduler latency — in Prometheus text
// format. Metrics absent from the running Go version are skipped.
func WriteRuntimeMetrics(w io.Writer) error {
	samples := make([]metrics.Sample, 0, len(runtimeScalars)+len(runtimeHists))
	for _, s := range runtimeScalars {
		samples = append(samples, metrics.Sample{Name: s.src})
	}
	for _, s := range runtimeHists {
		samples = append(samples, metrics.Sample{Name: s.src})
	}
	metrics.Read(samples)
	for i, s := range runtimeScalars {
		v := samples[i].Value
		var n uint64
		switch v.Kind() {
		case metrics.KindUint64:
			n = v.Uint64()
		default:
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			s.name, s.help, s.name, s.typ, s.name, n); err != nil {
			return err
		}
	}
	for i, s := range runtimeHists {
		v := samples[len(runtimeScalars)+i].Value
		if v.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := v.Float64Histogram()
		edge := func(i int) float64 { return h.Buckets[i] }
		for _, q := range []struct {
			p    float64
			name string
		}{{0.50, "p50"}, {0.99, "p99"}} {
			name := fmt.Sprintf("%s_%s_seconds", s.name, q.name)
			if _, err := fmt.Fprintf(w, "# HELP %s %s (%s estimate)\n# TYPE %s gauge\n%s %g\n",
				name, s.help, q.name, name, name, quantile(h.Counts, edge, q.p, 0)); err != nil {
				return err
			}
		}
	}
	return nil
}

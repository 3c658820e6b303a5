package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"eventnet/internal/obs"
)

// snapshot is one parsed /metrics scrape. Histograms are de-cumulated
// back into the engine's power-of-two bucket layout so obs.Histogram's
// Sub/Quantile apply unchanged.
type snapshot struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*obs.Histogram
}

// parseMetrics reads a Prometheus text exposition and keeps everything
// under the eventnet_ prefix (names are stored with the prefix and the
// counter _total suffix stripped). It understands exactly the shape
// obs.WritePrometheus emits: power-of-two `le` bounds in ascending
// order, one +Inf terminator, `_sum`/`_count` trailers.
func parseMetrics(r io.Reader) (*snapshot, error) {
	s := &snapshot{
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		hists:    map[string]*obs.Histogram{},
	}
	types := map[string]string{} // bare name -> counter|gauge|histogram
	lastCum := map[string]int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, valStr := line[:sp], line[sp+1:]
		// Engine values are integers, read exactly; the runtime families'
		// %g gauges are truncated.
		val, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(valStr, 64)
			if ferr != nil {
				continue
			}
			val = int64(f)
		}
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		if !strings.HasPrefix(name, "eventnet_") {
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			hname := shortName(strings.TrimSuffix(name, "_bucket"))
			le := labelValue(labels, "le")
			if le == "+Inf" || le == "" {
				continue
			}
			bound, err := strconv.ParseInt(le, 10, 64)
			if err != nil || bound < 1 {
				continue
			}
			// Bounds are 1<<i, so the bucket index is the bit length - 1.
			idx := bits.Len64(uint64(bound)) - 1
			if idx >= obs.HistBuckets {
				continue
			}
			h := s.hists[hname]
			if h == nil {
				h = &obs.Histogram{}
				s.hists[hname] = h
			}
			h.Count[idx] = val - lastCum[hname]
			lastCum[hname] = val
		case strings.HasSuffix(name, "_sum"):
			hname := shortName(strings.TrimSuffix(name, "_sum"))
			if types[strings.TrimSuffix(name, "_sum")] == "histogram" || s.hists[hname] != nil {
				h := s.hists[hname]
				if h == nil {
					h = &obs.Histogram{}
					s.hists[hname] = h
				}
				h.Sum = val
			}
		case strings.HasSuffix(name, "_count"):
			// Recomputable from the buckets; skip.
		case types[name] == "counter" || strings.HasSuffix(name, "_total"):
			s.counters[shortName(strings.TrimSuffix(name, "_total"))] = val
		default:
			s.gauges[shortName(name)] = val
		}
	}
	return s, sc.Err()
}

// shortName strips the exposition prefix for display.
func shortName(name string) string { return strings.TrimPrefix(name, "eventnet_") }

// labelValue extracts one label from a {k="v",...} block.
func labelValue(labels, key string) string {
	i := strings.Index(labels, key+"=\"")
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// scrape fetches and parses one /metrics exposition.
func scrape(cl *http.Client, base string) (*snapshot, error) {
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// topHists is the display order of the latency table; histograms with
// no observations at all are elided.
var topHists = []string{"hop_ns", "delivery_latency_ns", "generation_occupancy", "queue_depth", "swap_drain_ns", "compile_ns"}

// topRates is the display order of the rate header.
var topRates = []string{"hops", "deliveries", "injections", "events_fired", "ttl_drops", "rule_drops"}

// renderTop writes one refresh of the top table: counter rates over the
// interval, then per-histogram interval quantiles (falling back to
// lifetime quantiles, marked "cum", when the interval saw nothing).
func renderTop(out io.Writer, prev, cur *snapshot, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	var hdr []string
	for _, name := range topRates {
		if _, ok := cur.counters[name]; !ok {
			continue
		}
		rate := float64(cur.counters[name]-prev.counters[name]) / secs
		hdr = append(hdr, fmt.Sprintf("%s/s %.0f", name, rate))
	}
	hdr = append(hdr, fmt.Sprintf("pending %d", cur.gauges["pending_packets"]))
	if n := cur.gauges["alerts_active"]; n > 0 {
		hdr = append(hdr, fmt.Sprintf("ALERTS %d", n))
	}
	fmt.Fprintln(out, strings.Join(hdr, "  "))

	// Compiler memory line: only once the controller has compiled something
	// (all three gauges stay zero until the first fresh build).
	if cur.gauges["compiler_fdd_nodes"] > 0 || cur.gauges["compiler_arena_bytes"] > 0 {
		fmt.Fprintf(out, "compiler: %d fdd nodes  %d interned  arena %s (hw %s)\n",
			cur.gauges["compiler_fdd_nodes"], cur.gauges["compiler_intern_entries"],
			fmtQ(float64(cur.gauges["compiler_arena_bytes"])),
			fmtQ(float64(cur.gauges["compiler_arena_high_water_bytes"])))
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "HISTOGRAM\tRATE/S\tP50\tP99\tMEAN\tWINDOW")
	for _, name := range topHists {
		ch := cur.hists[name]
		if ch == nil || ch.Total() == 0 {
			continue
		}
		window := "interval"
		d := *ch
		if ph := prev.hists[name]; ph != nil {
			d = ch.Sub(*ph)
		}
		if d.Total() == 0 {
			// Nothing this interval: show lifetime so the row stays useful.
			d, window = *ch, "cum"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%s\t%s\n",
			name, float64(d.Total())/secs,
			fmtQ(d.Quantile(0.50)), fmtQ(d.Quantile(0.99)), fmtQ(d.Mean()), window)
	}
	tw.Flush()
}

// fmtQ renders a quantile estimate compactly (the buckets are powers of
// two, so sub-integer precision would be noise).
func fmtQ(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// cmdTop scrapes /metrics on an interval and renders rate + quantile
// tables from the deltas. -once prints a single refresh (two scrapes,
// one interval apart); -count N stops after N refreshes.
func cmdTop(cl *http.Client, base string, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one refresh and exit")
	count := fs.Int("count", 0, "stop after N refreshes (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prev, err := scrape(cl, base)
	if err != nil {
		return err
	}
	for n := 0; ; {
		time.Sleep(*interval)
		cur, err := scrape(cl, base)
		if err != nil {
			return err
		}
		renderTop(out, prev, cur, *interval)
		prev = cur
		n++
		if *once || (*count > 0 && n >= *count) {
			return nil
		}
		fmt.Fprintln(out)
	}
}

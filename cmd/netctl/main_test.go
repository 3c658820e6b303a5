package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"eventnet/internal/obs"
)

func TestNormalizeAddr(t *testing.T) {
	for in, want := range map[string]string{
		":8080":          "http://127.0.0.1:8080",
		"box:9/":         "http://box:9",
		"http://box:9":   "http://box:9",
		"https://box/":   "https://box",
		"127.0.0.1:8080": "http://127.0.0.1:8080",
	} {
		if got := normalizeAddr(in); got != want {
			t.Errorf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseMetricsRoundTrip: what obs.Metrics writes, netctl reads back
// — counters, gauges, and de-cumulated histograms whose quantiles match
// the source's.
func TestParseMetricsRoundTrip(t *testing.T) {
	m := obs.NewMetrics(0)
	m.Add(obs.CtrHops, 1234)
	m.Add(obs.CtrDeliveries, 99)
	m.SetGauge(obs.GaugePending, 7)
	for i := 0; i < 900; i++ {
		m.Observe(obs.HistHopNs, 10)
	}
	for i := 0; i < 100; i++ {
		m.Observe(obs.HistHopNs, 1000)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := parseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.counters["hops"] != 1234 || s.counters["deliveries"] != 99 {
		t.Errorf("counters = %v", s.counters)
	}
	if s.gauges["pending_packets"] != 7 {
		t.Errorf("pending_packets = %d, want 7", s.gauges["pending_packets"])
	}
	h := s.hists["hop_ns"]
	if h == nil || h.Total() != 1000 {
		t.Fatalf("hop_ns round-trip lost mass: %+v", h)
	}
	want := m.Histogram(obs.HistHopNs)
	if h.Quantile(0.5) != want.Quantile(0.5) || h.Quantile(0.99) != want.Quantile(0.99) {
		t.Errorf("quantiles drifted: parsed p50/p99 %v/%v, source %v/%v",
			h.Quantile(0.5), h.Quantile(0.99), want.Quantile(0.5), want.Quantile(0.99))
	}
	if h.Sum != want.Sum {
		t.Errorf("sum = %d, want %d", h.Sum, want.Sum)
	}
}

// TestCmdTopOnce: one refresh against a live daemon-shaped /metrics;
// rates reflect the delta between the two scrapes.
func TestCmdTopOnce(t *testing.T) {
	m := obs.NewMetrics(0)
	var scrapes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		// Advance between scrapes so the delta is nonzero.
		if scrapes.Add(1) > 1 {
			m.Add(obs.CtrHops, 5000)
			for i := 0; i < 100; i++ {
				m.Observe(obs.HistHopNs, 100)
			}
		}
		m.WritePrometheus(w)
	}))
	defer ts.Close()

	var out bytes.Buffer
	if err := cmdTop(ts.Client(), ts.URL, &out, []string{"-once", "-interval", "10ms"}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "hops/s") {
		t.Errorf("top output missing the rate header:\n%s", got)
	}
	if !strings.Contains(got, "hop_ns") || !strings.Contains(got, "P99") {
		t.Errorf("top output missing the histogram table:\n%s", got)
	}
	if !strings.Contains(got, "interval") {
		t.Errorf("top output not marked as interval-windowed:\n%s", got)
	}
}

// TestTailLimitAndReconnect: the tail survives a dropped stream
// (reconnects and keeps counting) and stops at -n.
func TestTailLimitAndReconnect(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		fl := w.(http.Flusher)
		enc := json.NewEncoder(w)
		// Three events per connection, then the server hangs up.
		for i := 0; i < 3; i++ {
			enc.Encode(obs.Event{Kind: obs.KindStats, Gen: int64(i), Stats: &obs.StatsDelta{Hops: 1}})
		}
		fl.Flush()
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := tail(ts.Client(), ts.URL, &out, tailOptions{
		limit: 5,
		print: func(out io.Writer, _ []byte, ev obs.Event) bool {
			fmt.Fprintln(out, formatEvent(ev))
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("tail used %d connections for 5 events at 3/connection, want 2", got)
	}
	if got := strings.Count(out.String(), "stats"); got != 5 {
		t.Errorf("printed %d events, want 5:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "# disconnected") {
		t.Errorf("reconnect not surfaced:\n%s", out.String())
	}
}

// TestTailShutdownEvent: the daemon's terminal shutdown event ends the
// tail cleanly — no reconnect attempt, exit nil.
func TestTailShutdownEvent(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		enc := json.NewEncoder(w)
		enc.Encode(obs.Event{Kind: obs.KindDelivery, Host: "H4"})
		enc.Encode(obs.Event{Kind: obs.KindShutdown, Note: "server shutting down"})
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := tail(ts.Client(), ts.URL, &out, tailOptions{
		print: func(out io.Writer, _ []byte, ev obs.Event) bool {
			fmt.Fprintln(out, formatEvent(ev))
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if conns.Load() != 1 {
		t.Errorf("tail reconnected after shutdown (%d connections)", conns.Load())
	}
	if !strings.Contains(out.String(), "shutdown") {
		t.Errorf("shutdown event not printed:\n%s", out.String())
	}
}

// TestCmdWatchRaw: -raw passes NDJSON through untouched, the kinds
// filter reaches the query string, and a 4xx is fatal (no retry loop).
func TestCmdWatchRaw(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("kinds"); got != "swap,stats" {
			t.Errorf("kinds query = %q", got)
		}
		json.NewEncoder(w).Encode(obs.Event{Kind: obs.KindSwap, Phase: "flip", Seq: 42})
	}))
	defer ts.Close()
	var out bytes.Buffer
	if err := cmdWatch(ts.Client(), ts.URL, &out, []string{"-raw", "-n", "1", "-kinds", "swap,stats"}); err != nil {
		t.Fatal(err)
	}
	var ev obs.Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(out.String())), &ev); err != nil || ev.Seq != 42 {
		t.Fatalf("raw output not NDJSON passthrough: %q (%v)", out.String(), err)
	}

	notFound := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer notFound.Close()
	if err := cmdWatch(notFound.Client(), notFound.URL, &out, []string{"-n", "1"}); err == nil {
		t.Fatal("404 /watch did not fail fast")
	}
}

// TestCmdDump: the flight dump renders its header and canonical rows,
// and -json passes the wire form through.
func TestCmdDump(t *testing.T) {
	f := obs.NewFlight(16, 1)
	f.Add(obs.FlightRec{Kind: obs.FlightDeliver, Gen: 3, Seq: 7, Switch: 2, Host: "H4", Epoch: 1})
	f.Add(obs.FlightRec{Kind: obs.FlightDetect, Gen: 3, Seq: 7, Switch: 2, Bits: "\x04", Epoch: 1})
	f.Serial(obs.FlightRec{Kind: obs.FlightSwap, Phase: "flip", From: 0, To: 1, Gen: 4})
	d := f.Dump()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/flight" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(d)
	}))
	defer ts.Close()

	var out bytes.Buffer
	if err := cmdDump(ts.Client(), ts.URL, &out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"3 records", "ring cap 16", "detect", "host=H4", "phase=flip"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump output missing %q:\n%s", want, got)
		}
	}
	// Canonical order survives rendering: detect before deliver at equal
	// (gen, seq).
	if strings.Index(got, "detect") > strings.Index(got, "deliver") {
		t.Errorf("rows out of canonical order:\n%s", got)
	}

	out.Reset()
	if err := cmdDump(ts.Client(), ts.URL, &out, []string{"-json"}); err != nil {
		t.Fatal(err)
	}
	var rt obs.FlightDump
	if err := json.Unmarshal(out.Bytes(), &rt); err != nil || len(rt.Records) != 3 {
		t.Fatalf("-json round trip: %v (%d records)", err, len(rt.Records))
	}
}

// TestCmdStatusStats: plain passthrough commands against canned
// endpoints.
func TestCmdStatusStats(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/status":
			fmt.Fprint(w, `{"program":"firewall","epoch":2}`)
		case "/stats":
			fmt.Fprint(w, `{"uptime_s":1.5,"deliveries":42,"program":"firewall"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var out bytes.Buffer
	if err := cmdStatus(ts.Client(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"program": "firewall"`) {
		t.Errorf("status output: %s", out.String())
	}
	out.Reset()
	if err := cmdStats(ts.Client(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "deliveries") || !strings.Contains(got, "42") {
		t.Errorf("stats output: %s", got)
	}
	// Sorted, so diffable: deliveries before program before uptime_s.
	if !(strings.Index(got, "deliveries") < strings.Index(got, "program") && strings.Index(got, "program") < strings.Index(got, "uptime_s")) {
		t.Errorf("stats keys not sorted:\n%s", got)
	}
}

// TestFormatEventDeterministic: packet fields render in sorted order so
// operator diffs are stable.
func TestFormatEventDeterministic(t *testing.T) {
	ev := obs.Event{Kind: obs.KindDelivery, Host: "H4", Fields: map[string]int{"src": 101, "dst": 104, "id": 9}}
	want := formatEvent(ev)
	for i := 0; i < 20; i++ {
		if got := formatEvent(ev); got != want {
			t.Fatalf("formatEvent nondeterministic: %q vs %q", got, want)
		}
	}
	if !strings.Contains(want, "dst=104 id=9 src=101") {
		t.Errorf("fields not sorted: %q", want)
	}
}

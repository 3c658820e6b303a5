package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/obs"
)

// watchServer is a daemon with full observability attached, as main()
// builds it.
func watchServer(t *testing.T) (*httptest.Server, *server, *obs.Obs, *ctrl.Controller) {
	t.Helper()
	a := apps.Firewall()
	o := &obs.Obs{
		Metrics:        obs.NewMetrics(2),
		Bus:            obs.NewBus(),
		Trace:          obs.NewTracer(1, 2),
		Flight:         obs.NewFlight(0, 2),
		Watch:          obs.NewWatchdog(),
		DeliverySample: 1,
	}
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2, Obs: o})
	t.Cleanup(c.Close)
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	s, handler := newServer(c, o)
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts, s, o, c
}

// watchNDJSON attaches a line-decoding consumer to /watch and returns a
// snapshot function plus a cancel.
func watchNDJSON(t *testing.T, ts *httptest.Server, query string) (func() []obs.Event, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/watch"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/watch content type %q", ct)
	}
	var mu sync.Mutex
	var events []obs.Event
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ev obs.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				continue
			}
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}()
	snap := func() []obs.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Event{}, events...)
	}
	return snap, cancel
}

// waitFor polls a snapshot until the predicate holds or the deadline
// passes (the feed is asynchronous by design).
func waitFor(t *testing.T, snap func() []obs.Event, what string, pred func([]obs.Event) bool) []obs.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if evs := snap(); pred(evs) {
			return evs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; got %+v", what, snap())
	return nil
}

// TestNetdWatchFeed drives the NDJSON feed end to end: deliveries with
// materialized fields, swap phase events in order, and — after the old
// epoch retired — a fresh subscriber that must never see a stale-epoch
// delivery (the bus has no replay; only live traffic is published).
func TestNetdWatchFeed(t *testing.T) {
	ts, _, _, _ := watchServer(t)

	snap, cancel := watchNDJSON(t, ts, "?kinds=delivery,swap")
	defer cancel()

	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)
	waitFor(t, snap, "delivery event", func(evs []obs.Event) bool {
		for _, ev := range evs {
			if ev.Kind == obs.KindDelivery && ev.Host == "H4" && len(ev.Fields) > 0 && ev.Epoch == 0 {
				return true
			}
		}
		return false
	})

	call(t, ts, "POST", "/swap", map[string]any{"app": "bandwidth-cap", "cap": 5}, 200)
	evs := waitFor(t, snap, "swap retire", func(evs []obs.Event) bool {
		for _, ev := range evs {
			if ev.Kind == obs.KindSwap && ev.Phase == "retire" {
				return true
			}
		}
		return false
	})
	var phases []string
	for _, ev := range evs {
		if ev.Kind == obs.KindSwap {
			phases = append(phases, ev.Phase)
		}
	}
	if len(phases) < 3 || phases[0] != "stage" || phases[1] != "flip" || phases[len(phases)-1] != "retire" {
		t.Fatalf("swap phases on /watch = %v, want stage, flip, ..., retire", phases)
	}
	cancel()

	// A subscriber attached after the retire sees only the new epoch:
	// every delivery it observes must carry epoch 1. This is the no-stale-
	// epoch property across StageSwap.
	snap2, cancel2 := watchNDJSON(t, ts, "?kinds=delivery")
	defer cancel2()
	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H4", "fields": map[string]int{"dst": apps.H(1), "src": apps.H(4)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)
	evs = waitFor(t, snap2, "post-swap delivery", func(evs []obs.Event) bool {
		return len(evs) > 0
	})
	for _, ev := range evs {
		if ev.Kind == obs.KindDelivery && ev.Epoch != 1 {
			t.Fatalf("stale-epoch delivery on post-swap subscription: %+v", ev)
		}
	}
}

// TestNetdWatchSlowConsumer pins the backpressure contract: a /watch
// client that never reads cannot stall the engine — injections and
// quiesce complete promptly, overflow is dropped and counted.
func TestNetdWatchSlowConsumer(t *testing.T) {
	ts, _, o, _ := watchServer(t)

	// Subscribe with a 1-event buffer and never read the body.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/watch?buf=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Open the return path, then flood: every delivery is published at
		// sample rate 1, far outrunning the unread subscriber.
		call(t, ts, "POST", "/inject", map[string]any{
			"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)},
		}, 200)
		call(t, ts, "POST", "/quiesce", nil, 200)
		for i := 0; i < 20; i++ {
			call(t, ts, "POST", "/inject", map[string]any{
				"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)}, "count": 50,
			}, 200)
		}
		call(t, ts, "POST", "/quiesce", nil, 200)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine stalled behind an unread /watch subscriber")
	}
	if o.Bus.Dropped() == 0 {
		t.Fatal("no drops counted; the flood should have overrun the 1-event buffer")
	}
	if got := o.Metrics.Counter(obs.CtrDeliveries); got < 1000 {
		t.Fatalf("CtrDeliveries = %d, want >= 1000 (traffic kept flowing)", got)
	}
}

// TestNetdWatchSSE checks the SSE framing with nothing but a plain
// bufio.Scanner: "event:" and "data:" lines separated by blanks, every
// data payload valid JSON, heartbeats carrying the subscriber's
// cumulative drop count.
func TestNetdWatchSSE(t *testing.T) {
	ts, s, _, _ := watchServer(t)
	s.heartbeat = 50 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)

	sc := bufio.NewScanner(resp.Body)
	var sawDelivery, sawHeartbeat bool
	var lastEvent string
	deadline := time.AfterFunc(10*time.Second, cancel)
	defer deadline.Stop()
	for sc.Scan() && !(sawDelivery && sawHeartbeat) {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev obs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("SSE data is not JSON: %v in %q", err, line)
			}
			if ev.Kind != lastEvent {
				t.Fatalf("SSE event name %q but payload kind %q", lastEvent, ev.Kind)
			}
			switch ev.Kind {
			case obs.KindDelivery:
				sawDelivery = true
			case obs.KindMeta:
				sawHeartbeat = true
			}
		case line != "":
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if !sawDelivery || !sawHeartbeat {
		t.Fatalf("SSE stream ended early: delivery=%v heartbeat=%v", sawDelivery, sawHeartbeat)
	}
}

// TestNetdMetricsAndHealth covers the scrape surface: /metrics exposes
// the engine counters in Prometheus text form, /stats carries the v2
// schema fields, and /healthz degrades to 503 once the engine stops.
func TestNetdMetricsAndHealth(t *testing.T) {
	ts, _, _, c := watchServer(t)

	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	resp.Body.Close()
	body := sb.String()
	for _, want := range []string{
		"# TYPE eventnet_hops_total counter",
		"eventnet_deliveries_total 1",
		"eventnet_compiles_total 1",
		"# TYPE eventnet_hop_ns histogram",
		"eventnet_watch_subscribers 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	stats := call(t, ts, "GET", "/stats", nil, 200)
	if stats["schema_version"].(float64) != statsSchemaVersion {
		t.Fatalf("stats schema_version: %v", stats)
	}
	if stats["version"] != "dev" || stats["gomaxprocs"].(float64) < 1 || stats["num_cpu"].(float64) < 1 {
		t.Fatalf("stats build/runtime info: %v", stats)
	}
	if _, ok := stats["uptime_s"].(float64); !ok {
		t.Fatalf("stats uptime: %v", stats)
	}

	if out := call(t, ts, "GET", "/healthz", nil, 200); out["ok"] != true {
		t.Fatalf("healthz while serving: %v", out)
	}
	c.Close()
	if out := call(t, ts, "GET", "/healthz", nil, 503); out["reason"] != "engine stopped" {
		t.Fatalf("healthz after close: %v", out)
	}
}

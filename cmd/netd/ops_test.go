package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"eventnet/internal/obs"
)

// TestWatchShutdownEvent is the graceful-shutdown contract of the feed:
// a tailing client observes the terminal {"kind":"shutdown"} event when
// the daemon begins shutting down (what the SIGTERM path triggers via
// beginShutdown), and the stream ends — no unexplained EOF.
func TestWatchShutdownEvent(t *testing.T) {
	ts, s, _, c := watchServer(t)
	snap, cancel := watchNDJSON(t, ts, "")
	defer cancel()

	// Traffic first, so the terminal event demonstrably arrives after a
	// live feed (not on an idle stream).
	call(t, ts, "POST", "/inject", injectRequest{Host: "H1", Fields: map[string]int{"dst": 104, "src": 101}}, 200)
	c.Engine().Quiesce()
	waitFor(t, snap, "a delivery before shutdown", func(evs []obs.Event) bool {
		for _, ev := range evs {
			if ev.Kind == obs.KindDelivery {
				return true
			}
		}
		return false
	})

	s.beginShutdown()
	evs := waitFor(t, snap, "the terminal shutdown event", func(evs []obs.Event) bool {
		return len(evs) > 0 && evs[len(evs)-1].Kind == obs.KindShutdown
	})
	last := evs[len(evs)-1]
	if last.Note == "" {
		t.Errorf("shutdown event carries no note: %+v", last)
	}
	for _, ev := range evs[:len(evs)-1] {
		if ev.Kind == obs.KindShutdown {
			t.Fatalf("shutdown event published twice: %v", evs)
		}
	}

	// A subscriber attaching *after* shutdown began is told immediately.
	snap2, cancel2 := watchNDJSON(t, ts, "?kinds=trace")
	defer cancel2()
	waitFor(t, snap2, "immediate shutdown for a late subscriber", func(evs []obs.Event) bool {
		return len(evs) == 1 && evs[0].Kind == obs.KindShutdown
	})
}

// TestDebugFlightEndpoint: /debug/flight serves the recorder dump with
// the traffic the daemon just forwarded, and repeated fetches agree on
// a quiescent engine (the dump is non-consuming).
func TestDebugFlightEndpoint(t *testing.T) {
	ts, _, _, c := watchServer(t)
	call(t, ts, "POST", "/inject", injectRequest{Host: "H1", Fields: map[string]int{"dst": 104, "src": 101}, Count: 5}, 200)
	c.Engine().Quiesce()

	fetch := func() *obs.FlightDump {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/debug/flight")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/flight status %d", resp.StatusCode)
		}
		var d obs.FlightDump
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	d := fetch()
	if len(d.Records) == 0 {
		t.Fatal("flight dump empty after traffic")
	}
	if d.RingCap != obs.DefaultFlightCap {
		t.Errorf("ring_cap = %d, want the default", d.RingCap)
	}
	delivers := 0
	for _, r := range d.Records {
		if r.Kind == "deliver" {
			delivers++
		}
	}
	if delivers == 0 {
		t.Fatalf("no deliver records among %d", len(d.Records))
	}
	a, _ := json.Marshal(d)
	b, _ := json.Marshal(fetch())
	if string(a) != string(b) {
		t.Fatal("repeated quiescent dumps differ; /debug/flight consumed the recorder")
	}
}

// TestHealthzAlerts: an active watchdog alert degrades /healthz (200,
// degraded: true, the alert listed) without failing liveness.
func TestHealthzAlerts(t *testing.T) {
	ts, _, o, _ := watchServer(t)
	if out := call(t, ts, "GET", "/healthz", nil, 200); out["degraded"] != false {
		t.Fatalf("fresh daemon degraded: %v", out)
	}
	// Drive the watchdog directly (the engine runs Check at boundaries;
	// the daemon is idle here, so nothing races this).
	o.Metrics.SetGauge(obs.GaugePending, 1<<20)
	o.Watch.Check(1, o.Metrics, o.Bus)
	out := call(t, ts, "GET", "/healthz", nil, 200)
	if out["ok"] != true || out["degraded"] != true {
		t.Fatalf("alerting daemon: %v, want ok but degraded", out)
	}
	alerts, ok := out["alerts"].([]any)
	if !ok || len(alerts) != 1 {
		t.Fatalf("alerts = %v, want one", out["alerts"])
	}
	if a := alerts[0].(map[string]any); a["name"] != obs.AlertQueueSaturation {
		t.Fatalf("alert = %v, want queue_saturation", a)
	}
	o.Metrics.SetGauge(obs.GaugePending, 0)
	o.Watch.Check(2, o.Metrics, o.Bus)
	if out := call(t, ts, "GET", "/healthz", nil, 200); out["degraded"] != false {
		t.Fatalf("cleared daemon still degraded: %v", out)
	}
}

// TestMetricsIncludesRuntime: /metrics carries the Go runtime families
// and the new recorder/watchdog gauges alongside the engine's, on one
// scrape.
func TestMetricsIncludesRuntime(t *testing.T) {
	ts, _, _, _ := watchServer(t)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{"eventnet_hops_total", "eventnet_go_goroutines", "eventnet_go_gc_pause_p99_seconds", "eventnet_flight_evicted_records", "eventnet_alerts_active"} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

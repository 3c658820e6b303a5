package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
)

// call drives one API request and decodes the JSON response.
func call(t *testing.T, ts *httptest.Server, method, path string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d (want %d): %v", method, path, resp.StatusCode, wantCode, out)
	}
	return out
}

// TestNetdSmoke is the daemon's end-to-end lifecycle: start, inject
// traffic, submit a program, hot-swap to it, verify knowledge carried and
// traffic kept flowing, reject invalid submissions, and shut down
// cleanly.
func TestNetdSmoke(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	_, handler := newServer(c, nil)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	if out := call(t, ts, "GET", "/healthz", nil, 200); out["ok"] != true {
		t.Fatalf("healthz: %v", out)
	}

	// Open the firewall's return path.
	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)

	// Submit a bandwidth cap; compilation is validated at submission.
	out := call(t, ts, "POST", "/program", map[string]any{"app": "bandwidth-cap", "cap": 3}, 200)
	if out["staged"] != "bandwidth-cap-3" || out["states"].(float64) != 5 {
		t.Fatalf("program submission: %v", out)
	}

	// Hot-swap to the staged program; the firewall's event maps over.
	rep := call(t, ts, "POST", "/swap", nil, 200)
	if rep["to"] != "bandwidth-cap-3" || rep["carried_events"].(float64) != 1 {
		t.Fatalf("swap report: %v", rep)
	}

	// The carried knowledge keeps the return path open under the cap.
	call(t, ts, "POST", "/inject", map[string]any{
		"host": "H4", "fields": map[string]int{"dst": apps.H(1), "src": apps.H(4)},
	}, 200)
	call(t, ts, "POST", "/quiesce", nil, 200)
	stats := call(t, ts, "GET", "/stats", nil, 200)
	if stats["deliveries"].(float64) != 2 || stats["pending"].(float64) != 0 {
		t.Fatalf("stats after swap: %v", stats)
	}

	status := call(t, ts, "GET", "/status", nil, 200)
	if status["program"] != "bandwidth-cap-3" || status["epoch"].(float64) != 1 {
		t.Fatalf("status: %v", status)
	}

	// Source submission over the daemon's topology, then swap inline.
	src := "pt=2 & dst=H4; pt<-1; (1:1)=>(4:1); pt<-2"
	call(t, ts, "POST", "/program", map[string]any{"name": "oneway", "source": src, "init": []int{0}}, 200)
	rep2 := call(t, ts, "POST", "/swap", nil, 200)
	if rep2["to"] != "oneway" {
		t.Fatalf("source swap: %v", rep2)
	}

	// Invalid submissions are rejected without disturbing the program.
	call(t, ts, "POST", "/program", map[string]any{"app": "no-such-app"}, 400)
	call(t, ts, "POST", "/program", map[string]any{"app": "ids"}, 400) // star topology != firewall topology
	call(t, ts, "POST", "/program", map[string]any{"source": "pt=2; ("}, 400)
	call(t, ts, "POST", "/swap", nil, 400) // nothing staged
	call(t, ts, "POST", "/inject", map[string]any{"host": "H9"}, 400)

	if st := call(t, ts, "GET", "/status", nil, 200); st["program"] != "oneway" {
		t.Fatalf("bad submissions disturbed the running program: %v", st)
	}

	// Graceful shutdown is idempotent.
	c.Close()
	c.Close()
}

// TestNetdInjectBatch covers the batched ingress endpoint: one boundary
// admits the whole batch, bad packets are rejected per index without
// sinking the rest, and an all-bad batch is a client error.
func TestNetdInjectBatch(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	_, handler := newServer(c, nil)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	out := call(t, ts, "POST", "/inject-batch", map[string]any{
		"packets": []map[string]any{
			{"host": "H1", "fields": map[string]int{"dst": apps.H(4), "src": apps.H(1)}, "count": 3},
			{"host": "H9", "fields": map[string]int{"dst": apps.H(1)}},
			{"host": "H4", "fields": map[string]int{"dst": apps.H(1), "src": apps.H(4)}},
		},
	}, 200)
	if out["injected"].(float64) != 4 {
		t.Fatalf("batch: %v", out)
	}
	rej := out["rejected"].([]any)
	// The index is the packet's position in "packets", whatever the
	// counts before it expanded to.
	if len(rej) != 1 || rej[0].(map[string]any)["index"].(float64) != 1 {
		t.Fatalf("rejects: %v", rej)
	}
	call(t, ts, "POST", "/quiesce", nil, 200)
	stats := call(t, ts, "GET", "/stats", nil, 200)
	// The three H1->H4 packets deliver and open the firewall's return
	// path, but the H4->H1 packet shares their admission boundary — it is
	// forwarded before the outgoing-arrival event is known, so it drops,
	// exactly as four sequential Injects without a drain between would.
	if stats["deliveries"].(float64) != 3 {
		t.Fatalf("stats after batch: %v", stats)
	}

	call(t, ts, "POST", "/inject-batch", map[string]any{
		"packets": []map[string]any{{"host": "H9"}},
	}, 400)
	call(t, ts, "POST", "/inject-batch", map[string]any{"packets": []map[string]any{}}, 400)
}

// TestSwapKeepsNewerStagedProgram: a /swap consumes the staged program it
// took, not whatever is staged under the same name when it finishes. A
// program submitted while the swap ran — under the same name, as every
// unnamed source submission is — stays staged for its own /swap.
func TestSwapKeepsNewerStagedProgram(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 1})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	s, handler := newServer(c, nil)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	call(t, ts, "POST", "/program", map[string]any{"name": "p", "app": "bandwidth-cap", "cap": 8}, 200)
	taken := s.stagedNow()
	call(t, ts, "POST", "/program", map[string]any{"name": "p", "app": "bandwidth-cap", "cap": 9}, 200)
	s.consumeStaged(taken) // the first swap finishes after the resubmission
	if s.stagedNow() == nil {
		t.Fatal("finishing a swap dropped the program staged after it began")
	}
	if rep := call(t, ts, "POST", "/swap", nil, 200); rep["states"] != float64(11) {
		t.Fatalf("the swap installed a %v-configuration program, want bandwidth-cap-9's 11", rep["states"])
	}
	if s.stagedNow() != nil {
		t.Fatal("a successful /swap left its staged program behind")
	}
}

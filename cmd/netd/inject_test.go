package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
)

// injectRequest and injectBatchRequest are the reflective decoder's
// view of the inject bodies — what netd decoded into before the strict
// scanner. They survive as typed request bodies for the tests and as
// the oracle of FuzzInjectDecode; nothing outside _test.go uses them.
type injectRequest struct {
	Host   string         `json:"host"`
	Fields map[string]int `json:"fields"`
	Count  int            `json:"count"`
}

type injectBatchRequest struct {
	Packets []injectRequest `json:"packets"`
}

// oracleDecode is encoding/json on an /inject-batch body, configured to
// refuse what it can be told to refuse: unknown keys and trailing data.
func oracleDecode(body []byte) (*injectBatchRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req injectBatchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data")
	}
	return &req, nil
}

// scanBatch runs the strict scanner over an /inject-batch body and
// returns what it committed, in map form.
func scanBatch(c *ctrl.Controller, body []byte) (ins []dataplane.Injection, counts []int, rejects []reject, packets int, err error) {
	in := &ingest{body: body, b: c.Engine().NewBatch()}
	defer in.b.Release()
	var next atomic.Int64
	packets, err = in.batch(&next)
	ins, counts = in.b.Injections()
	return ins, counts, in.rejects, packets, err
}

// FuzzInjectDecode holds the strict scanner against encoding/json
// decoding the same /inject-batch body into injectBatchRequest: either
// both refuse it, or both accept it and agree on every packet's host,
// fields and count and on which packets are rejected (unknown host,
// value outside int32).
//
// The enumerated divergences — bodies the scanner refuses by a rule of
// its own (decodeError.strict) that encoding/json accepts, where the
// oracle's verdict is not compared:
//
//   - keys matched exactly: encoding/json also takes "Host", "PACKETS", …
//   - a key or field name given twice: encoding/json lets the last win
//   - backslash escapes in a host or field name: encoding/json decodes them
//   - invalid UTF-8 in a name: encoding/json substitutes U+FFFD
//   - null anywhere a value is expected: encoding/json leaves the zero value
//   - the limits: names over 64 bytes, over 256 distinct field names,
//     a request expanding to over 65 536 packets
//
// The scanner accepts nothing encoding/json refuses.
func FuzzInjectDecode(f *testing.F) {
	f.Add([]byte(`{"packets":[{"host":"H1","fields":{"dst":104,"src":101},"count":3},{"host":"H9"}]}`))
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{})
	f.Cleanup(c.Close)
	if err := c.Load(a.Name, a.Prog); err != nil {
		f.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, h := range a.Topo.Hosts {
		hosts[h.Name] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ins, counts, rejects, packets, err := scanBatch(c, body)
		want, oerr := oracleDecode(body)
		var de *decodeError
		if errors.As(err, &de) && de.strict {
			return // an enumerated divergence
		}
		if (err == nil) != (oerr == nil) {
			t.Fatalf("scanner: %v, encoding/json: %v", err, oerr)
		}
		if err != nil {
			return
		}
		if packets != len(want.Packets) {
			t.Fatalf("scanner saw %d packets, encoding/json %d", packets, len(want.Packets))
		}
		next, nextRej := 0, 0
		for i, p := range want.Packets {
			bad := !hosts[p.Host]
			for _, v := range p.Fields {
				bad = bad || int(int32(v)) != v // outside the flat-value domain
			}
			if bad {
				if nextRej >= len(rejects) || rejects[nextRej].index != i {
					t.Fatalf("packet %d (%+v) should be rejected; rejects %+v", i, p, rejects)
				}
				nextRej++
				continue
			}
			if next >= len(ins) {
				t.Fatalf("packet %d (%+v) missing from the batch", i, p)
			}
			got := ins[next]
			if got.Host != p.Host || counts[next] != max(p.Count, 1) || len(got.Fields) != len(p.Fields) {
				t.Fatalf("packet %d: scanner %+v x%d, encoding/json %+v", i, got, counts[next], p)
			}
			for name, v := range p.Fields {
				if gv, ok := got.Fields[name]; !ok || gv != v {
					t.Fatalf("packet %d field %q: scanner %v, encoding/json %d", i, name, got.Fields, v)
				}
			}
			next++
		}
		if next != len(ins) || nextRej != len(rejects) {
			t.Fatalf("scanner committed %d and rejected %d packets, encoding/json %d and %d", len(ins), len(rejects), next, nextRej)
		}
	})
}

// TestInjectStrictRefusals pins each enumerated divergence of
// FuzzInjectDecode as a strict refusal that encoding/json accepts.
func TestInjectStrictRefusals(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	manyNames := `"f0":1`
	for i := 1; i <= maxFieldNames; i++ {
		manyNames += fmt.Sprintf(`,"f%d":1`, i)
	}
	for name, body := range map[string]string{
		"case-insensitive key": `{"Packets":[{"host":"H1"}]}`,
		"duplicate key":        `{"packets":[{"host":"H1","host":"H2"}]}`,
		"duplicate field":      `{"packets":[{"host":"H1","fields":{"a":1,"a":2}}]}`,
		"escaped name":         `{"packets":[{"host":"H\u0031"}]}`,
		"invalid UTF-8":        "{\"packets\":[{\"host\":\"H\xff\"}]}",
		"null value":           `{"packets":[{"host":"H1","fields":null}]}`,
		"long name":            `{"packets":[{"host":"` + strings.Repeat("h", maxNameBytes+1) + `"}]}`,
		"many names":           `{"packets":[{"host":"H1","fields":{` + manyNames + `}}]}`,
		"over count":           `{"packets":[{"host":"H1","count":65537}]}`,
		"over total":           `{"packets":[{"host":"H1","count":40000},{"host":"H1","count":40000}]}`,
	} {
		_, _, _, _, err := scanBatch(c, []byte(body))
		var de *decodeError
		if !errors.As(err, &de) || !de.strict {
			t.Errorf("%s: scanner returned %v, want a strict refusal", name, err)
		}
		if _, err := oracleDecode([]byte(body)); err != nil {
			t.Errorf("%s: not a divergence, encoding/json refuses it too: %v", name, err)
		}
	}
}

// TestInjectNumbering: a count above 1 admits that many copies, each
// with its own "id" (overriding one the packet carried), numbered on
// from where the previous expansion stopped.
func TestInjectNumbering(t *testing.T) {
	a := apps.Firewall()
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 2})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	_, handler := newServer(c, nil)
	ts := httptest.NewServer(handler)
	defer ts.Close()
	out := call(t, ts, "POST", "/inject-batch", map[string]any{"packets": []injectRequest{
		{Host: "H1", Fields: map[string]int{"dst": apps.H(4), "src": apps.H(1), "id": 77, "tos": 5}, Count: 3},
		{Host: "H1", Fields: map[string]int{"dst": apps.H(4), "src": apps.H(1), "id": 77}},
		{Host: "H1", Fields: map[string]int{"dst": apps.H(4), "src": apps.H(1)}, Count: 2},
	}}, 200)
	if out["injected"].(float64) != 6 || out["rejected"] != nil {
		t.Fatalf("batch: %v", out)
	}
	call(t, ts, "POST", "/quiesce", nil, 200)
	var ids []int
	for _, d := range c.Engine().CopyDeliveries(0) {
		if d.Host != "H4" {
			continue
		}
		p := d.Fields
		ids = append(ids, p["id"])
		if p["id"] <= 3 && p["tos"] != 5 {
			t.Errorf("copy %v lost its inert field", p)
		}
	}
	sort.Ints(ids)
	if !reflect.DeepEqual(ids, []int{1, 2, 3, 4, 5, 77}) {
		t.Fatalf("delivered ids %v, want 1 2 3 (first expansion), 4 5 (second), 77 (as given)", ids)
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard struct {
	h    http.Header
	code int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { return len(b), nil }
func (w *discard) WriteHeader(code int)        { w.code = code }

// TestInjectBatchAllocs is the allocation gate of the flat ingress: a
// 64-packet /inject-batch of the benchmark's shape (dst, src and an
// inert id per packet) costs at most 16 allocations through the routed
// handler, admission and on to quiescence — not one per packet, let
// alone the ~16 per packet of decoding into maps. The packets address
// no host and are dropped at their first hop, which keeps the engine's
// own retention (one value array per delivered packet) out of the count.
func TestInjectBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	a := apps.BandwidthCap(20)
	c := ctrl.New(a.Topo, ctrl.Options{Workers: 1, DeliveryLog: 1 << 16})
	defer c.Close()
	if err := c.Load(a.Name, a.Prog); err != nil {
		t.Fatal(err)
	}
	_, handler := newServer(c, nil)
	var req injectBatchRequest
	for i, in := range dataplane.NewLoadGen(c.Current().NES, a.Topo, 1).Injections(64) {
		in.Fields["dst"] = 9999
		in.Fields["id"] = i
		req.Packets = append(req.Packets, injectRequest{Host: in.Host, Fields: in.Fields})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest("POST", "/inject-batch", nil)
	rc := io.NopCloser(rd)
	w := &discard{h: http.Header{}}
	cycle := func() {
		rd.Reset(body)
		r.Body = rc
		handler.ServeHTTP(w, r)
		c.Engine().Quiesce()
	}
	for i := 0; i < 8; i++ { // warm pools, rings and free lists
		cycle()
	}
	if st := c.Status().Engine; w.code != http.StatusOK || st.Processed != 8*64 || st.Deliveries != 0 {
		t.Fatalf("warm-up: status %d, %d hops, %d deliveries; want 200, one hop per packet, none delivered", w.code, st.Processed, st.Deliveries)
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 16 {
		t.Fatalf("a 64-packet /inject-batch costs %.1f allocations, want <= 16", avg)
	}
}

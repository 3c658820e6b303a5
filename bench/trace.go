package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the bench's own files, around the public
// calls into each layer (spans inside the program are a later issue).
// A span is (name, start, end, parent, operation id); spans of one
// request / round / swap / compile share the operation id of their root.
// Everything stays in memory until the workload ends.

// span is one recorded interval, times in ns since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index within the track, -1 for a root
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer owns the tracks of one traced run. A nil *tracer (and the nil
// *track it hands out) is tracing off: every method is a no-op, so the
// workloads run the same code traced and untraced.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	tracks []*track
}

// track is one goroutine's span log (no locking on the record path).
type track struct {
	origin time.Time
	Label  string `json:"label"`
	Spans  []span `json:"spans"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// track returns a new span log for one goroutine.
func (t *tracer) track(label string) *track {
	if t == nil {
		return nil
	}
	k := &track{origin: t.origin, Label: label}
	t.mu.Lock()
	t.tracks = append(t.tracks, k)
	t.mu.Unlock()
	return k
}

// begin opens a span and returns its index (-1 when tracing is off).
func (k *track) begin(name string, parent int32, op int64) int32 {
	if k == nil {
		return -1
	}
	k.Spans = append(k.Spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(k.origin)), End: -1})
	return int32(len(k.Spans) - 1)
}

// end closes a span.
func (k *track) end(i int32) {
	if k == nil {
		return
	}
	k.Spans[i].End = int64(time.Since(k.origin))
}

// add records a span whose interval was measured elsewhere (the phases a
// ctrl.SwapReport reports, the httptrace hooks of a request).
func (k *track) add(name string, parent int32, op int64, start, end time.Time) {
	if k == nil {
		return
	}
	k.Spans = append(k.Spans, span{Name: name, Parent: parent, Op: op, Start: int64(start.Sub(k.origin)), End: int64(end.Sub(k.origin))})
}

// selfTimes returns each span name's self time (duration minus the part
// its children cover) and the total root-span time, both in ns.
func (t *tracer) selfTimes() (self map[string]int64, calls map[string]int64, roots int64) {
	self = map[string]int64{}
	calls = map[string]int64{}
	if t == nil {
		return
	}
	for _, k := range t.tracks {
		child := make([]int64, len(k.Spans))
		for _, s := range k.Spans {
			if s.End < 0 {
				continue
			}
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			} else {
				roots += s.End - s.Start
			}
		}
		for i, s := range k.Spans {
			if s.End < 0 {
				continue
			}
			d := s.End - s.Start - child[i]
			if d < 0 {
				d = 0 // synthetic children may overhang a parent by clock skew
			}
			self[s.Name] += d
			calls[s.Name]++
		}
	}
	return
}

// maxSpansWritten bounds the span list of a trace file (the self-time
// table always covers every span).
const maxSpansWritten = 40000

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	OriginNs  int64              `json:"origin_unix_ns"`
	SelfMs    map[string]float64 `json:"self_ms"`
	Calls     map[string]int64   `json:"calls"`
	Spans     int                `json:"spans_recorded"`
	Truncated bool               `json:"truncated"`
	Tracks    []*track           `json:"tracks"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	self, calls, _ := t.selfTimes()
	f := traceFile{Workload: workload, Seed: seed, OriginNs: t.origin.UnixNano(), SelfMs: map[string]float64{}, Calls: calls}
	for n, ns := range self {
		f.SelfMs[n] = float64(ns) / 1e6
	}
	left := maxSpansWritten
	for _, k := range t.tracks {
		f.Spans += len(k.Spans)
		w := &track{Label: k.Label, Spans: k.Spans}
		if len(w.Spans) > left {
			w.Spans = w.Spans[:left]
			f.Truncated = true
		}
		left -= len(w.Spans)
		f.Tracks = append(f.Tracks, w)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// sortedKeys returns a map's keys in order (stable printing).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

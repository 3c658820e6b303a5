package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"eventnet/internal/obs"
)

// exposedNames lists the metric names of one exposition by type, in the
// order WritePrometheus emits them, which is enum order: the i-th
// counter is obs.Counter(i), and so on.
func exposedNames(text string) map[string][]string {
	names := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names[f[3]] = append(names[f[3]], f[2])
		}
	}
	return names
}

// fuzzMetrics fills a registry from data, 10 bytes an operation: a kind
// (counter add, gauge set, histogram observations), an index, and an
// int64 value; a histogram takes 1 + value%4096 observations of the
// value through a shard, so sums may wrap.
func fuzzMetrics(data []byte, n map[string][]string) *obs.Metrics {
	m := obs.NewMetrics(1)
	for ; len(data) >= 10; data = data[10:] {
		v := int64(binary.LittleEndian.Uint64(data[2:]))
		switch i := int(data[1]); data[0] % 3 {
		case 0:
			m.Add(obs.Counter(i%len(n["counter"])), v)
		case 1:
			m.SetGauge(obs.Gauge(i%len(n["gauge"])), v)
		default:
			m.Shard(0).ObserveN(obs.Hist(i%len(n["histogram"])), v, 1+int64(uint64(v)%4096))
		}
	}
	m.Fold()
	return m
}

// FuzzParseMetrics: netctl's scraper never panics, whatever it reads,
// and any exposition obs.WritePrometheus emits parses back to its exact
// counters, gauges, histogram buckets and sums.
func FuzzParseMetrics(f *testing.F) {
	var zero bytes.Buffer
	if err := obs.NewMetrics(0).WritePrometheus(&zero); err != nil {
		f.Fatal(err)
	}
	names := exposedNames(zero.String())
	if len(names["counter"]) == 0 || len(names["gauge"]) == 0 || len(names["histogram"]) == 0 {
		f.Fatalf("exposition lists %v", names)
	}
	m := obs.NewMetrics(0)
	m.Add(obs.CtrHops, 1234)
	m.SetGauge(obs.GaugePending, 7)
	m.Observe(obs.HistHopNs, 100)
	m.Observe(obs.HistDeliveryNs, 1<<40)
	var seed bytes.Buffer
	if err := m.WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(zero.Bytes())
	f.Add([]byte("eventnet_hop_ns_bucket{le=\"9223372036854775807\"} 1\neventnet_x_sum NaN\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		parseMetrics(bytes.NewReader(data)) // must not panic

		m := fuzzMetrics(data, names)
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := parseMetrics(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names["counter"] {
			name = strings.TrimSuffix(shortName(name), "_total")
			if got, want := s.counters[name], m.Counter(obs.Counter(i)); got != want {
				t.Errorf("counter %s = %d, want %d", name, got, want)
			}
		}
		for i, name := range names["gauge"] {
			if got, want := s.gauges[shortName(name)], m.Gauge(obs.Gauge(i)); got != want {
				t.Errorf("gauge %s = %d, want %d", shortName(name), got, want)
			}
		}
		for i, name := range names["histogram"] {
			want := m.Histogram(obs.Hist(i))
			got := s.hists[shortName(name)]
			if got == nil || got.Count != want.Count || got.Sum != want.Sum {
				t.Errorf("histogram %s = %+v, want %+v", shortName(name), got, want)
			}
		}
	})
}

package obs

import (
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 39, 39}, {1<<62 + 1, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		// The defining property: v fits under its bucket's bound, and (for
		// v > 1 below the clamp) not under the previous one.
		b := bucketOf(c.v)
		if c.v > 0 && c.v <= 1<<62 && c.v > BucketBound(b) {
			t.Errorf("bucketOf(%d) = %d but bound %d < v", c.v, b, BucketBound(b))
		}
	}
}

func TestShardFoldAndDirect(t *testing.T) {
	m := NewMetrics(2)
	m.Shard(1).Observe(HistHopNs, 100)
	m.Shard(0).ObserveN(HistHopNs, 100, 3)
	if got := m.HistCount(HistHopNs); got != 0 {
		t.Fatalf("histogram visible before fold: %d", got)
	}
	m.Fold()
	if got := m.HistCount(HistHopNs); got != 4 {
		t.Fatalf("HistHopNs count = %d, want 4", got)
	}
	if got := m.hist[HistHopNs].sum.Load(); got != 400 {
		t.Fatalf("HistHopNs sum = %d, want 400", got)
	}
	// Folding is a delta publish: a second fold adds nothing.
	m.Fold()
	if got := m.HistCount(HistHopNs); got != 4 {
		t.Fatalf("second fold changed the HistHopNs count to %d", got)
	}
	// Direct writes compose with folded ones.
	m.Observe(HistHopNs, 100)
	if got := m.hist[HistHopNs].sum.Load(); got != 500 {
		t.Fatalf("direct Observe: HistHopNs sum = %d, want 500", got)
	}
	m.Add(CtrHops, 5)
	if got := m.Counter(CtrHops); got != 5 {
		t.Fatalf("direct Add: CtrHops = %d, want 5", got)
	}
	m.SetGauge(GaugePending, 7)
	if got := m.Gauge(GaugePending); got != 7 {
		t.Fatalf("GaugePending = %d, want 7", got)
	}
}

func TestShardOpsDoNotAllocate(t *testing.T) {
	m := NewMetrics(1)
	s := m.Shard(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(HistHopNs, 120)
		s.ObserveN(HistDeliveryNs, 4096, 7)
	}); n != 0 {
		t.Fatalf("shard hot-path ops allocate %.3f times per run; want 0", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics(1)
	m.Add(CtrHops, 42)
	m.SetGauge(GaugeEpoch, 3)
	m.Observe(HistHopNs, 100) // bucket 7 (le 128)
	m.Observe(HistHopNs, 100)
	m.Observe(HistHopNs, 1)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE eventnet_hops_total counter",
		"eventnet_hops_total 42",
		"# TYPE eventnet_epoch gauge",
		"eventnet_epoch 3",
		"# TYPE eventnet_hop_ns histogram",
		"eventnet_hop_ns_bucket{le=\"1\"} 1",
		"eventnet_hop_ns_bucket{le=\"128\"} 3",
		"eventnet_hop_ns_bucket{le=\"+Inf\"} 3",
		"eventnet_hop_ns_sum 201",
		"eventnet_hop_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Cumulative buckets never decrease.
	if strings.Contains(out, "le=\"64\"} 3") && !strings.Contains(out, "le=\"128\"} 3") {
		t.Error("cumulative bucket ordering broken")
	}
}

func TestEnsureShardsKeepsIdentity(t *testing.T) {
	m := NewMetrics(1)
	s0 := m.Shard(0)
	s0.Observe(HistHopNs, 8)
	m.EnsureShards(4)
	if m.Shard(0) != s0 {
		t.Fatal("EnsureShards replaced an existing shard")
	}
	m.Fold()
	if got := m.HistCount(HistHopNs); got != 1 {
		t.Fatalf("HistHopNs count = %d after growth, want 1", got)
	}
}

func TestObsEnabled(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs reports enabled")
	}
	if (&Obs{}).Enabled() {
		t.Fatal("empty Obs reports enabled")
	}
	if !(&Obs{Metrics: NewMetrics(1)}).Enabled() {
		t.Fatal("metrics-only Obs reports disabled")
	}
}

package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter identifies one monotonic counter. Counters are enum-indexed
// (not name-keyed): the hot path increments a slot of a preallocated
// array, and names exist only at the exposition boundary.
type Counter int

const (
	CtrHops Counter = iota // switch-hops executed
	CtrGenerations
	CtrInjections
	CtrIngressShed // packets refused by a full served-mode inbox
	CtrDeliveries
	CtrRuleDrops   // packets dropped by a default-drop lookup
	CtrTTLDrops    // packets discarded by the forwarding-loop TTL
	CtrDrainedHops // old-epoch hops during swap transitions
	CtrEventsFired // event detections (events, not packets)
	CtrSwapFlips
	CtrSwapRetires
	CtrCompiles
	CtrCompileTableHits
	CtrCompileTableMisses
	CtrCompileSegHits
	CtrCompileSegMisses
	CtrCompileTemplateHits
	CtrCompileTemplateMisses
	CtrChaosRuns
	CtrChaosAudited
	CtrChaosMixed
	CtrChaosDropped
	CtrTraces          // stitched journeys emitted
	CtrTracesTruncated // journeys emitted incomplete (ring drop or age-out)
	CtrTraceRecDrops   // per-worker trace-ring overflow drops
	CtrAlerts          // watchdog alerts raised
	numCounters
)

var counterNames = [numCounters]string{
	CtrHops:                  "hops",
	CtrGenerations:           "generations",
	CtrInjections:            "injections",
	CtrIngressShed:           "ingress_shed",
	CtrDeliveries:            "deliveries",
	CtrRuleDrops:             "rule_drops",
	CtrTTLDrops:              "ttl_drops",
	CtrDrainedHops:           "drained_hops",
	CtrEventsFired:           "events_fired",
	CtrSwapFlips:             "swap_flips",
	CtrSwapRetires:           "swap_retires",
	CtrCompiles:              "compiles",
	CtrCompileTableHits:      "compile_table_hits",
	CtrCompileTableMisses:    "compile_table_misses",
	CtrCompileSegHits:        "compile_segment_hits",
	CtrCompileSegMisses:      "compile_segment_misses",
	CtrCompileTemplateHits:   "compile_template_hits",
	CtrCompileTemplateMisses: "compile_template_misses",
	CtrChaosRuns:             "chaos_runs",
	CtrChaosAudited:          "chaos_audited",
	CtrChaosMixed:            "chaos_mixed",
	CtrChaosDropped:          "chaos_dropped",
	CtrTraces:                "traces",
	CtrTracesTruncated:       "traces_truncated",
	CtrTraceRecDrops:         "trace_record_drops",
	CtrAlerts:                "alerts",
}

var counterHelp = [numCounters]string{
	CtrHops:                  "Switch-hops executed by the forwarding engine.",
	CtrGenerations:           "Bulk-synchronous generations executed.",
	CtrInjections:            "Packets admitted at ingress.",
	CtrIngressShed:           "Packets refused because the served-mode inbox was full (429 from netd).",
	CtrDeliveries:            "Packets delivered to hosts.",
	CtrRuleDrops:             "Packets dropped by a default-drop table lookup.",
	CtrTTLDrops:              "Packets discarded by the forwarding-loop TTL.",
	CtrDrainedHops:           "Old-epoch hops executed while a swap drained.",
	CtrEventsFired:           "Event detections (counted per event, not per packet).",
	CtrSwapFlips:             "Program swaps flipped at a generation barrier.",
	CtrSwapRetires:           "Program swaps fully drained and retired.",
	CtrCompiles:              "Program compilations through the controller.",
	CtrCompileTableHits:      "Whole-configuration compiler cache hits (nkc.CacheStats).",
	CtrCompileTableMisses:    "Whole-configuration compiler cache misses.",
	CtrCompileSegHits:        "Per-segment FDD cache hits.",
	CtrCompileSegMisses:      "Per-segment FDD cache misses.",
	CtrCompileTemplateHits:   "Event-edge template memo hits (strands whose Figure 6 walk was reused).",
	CtrCompileTemplateMisses: "Event-edge template memo misses (Figure 6 walks performed).",
	CtrChaosRuns:             "Chaos-audit runs recorded.",
	CtrChaosAudited:          "Chaos-audited deliveries (each checked against Eval).",
	CtrChaosMixed:            "Chaos audit violations: mis-stamped or unpredicted deliveries.",
	CtrChaosDropped:          "Chaos audit violations: predicted deliveries that never arrived.",
	CtrTraces:                "Sampled packet journeys stitched and emitted.",
	CtrTracesTruncated:       "Journeys emitted incomplete (trace-ring drop or age-out).",
	CtrTraceRecDrops:         "Trace hop records dropped to per-worker ring overflow.",
	CtrAlerts:                "Watchdog alerts raised (transitions to firing, not boundaries spent firing).",
}

// Gauge identifies one point-in-time value, set at engine boundaries or
// by the exposition handler.
type Gauge int

const (
	GaugePending            Gauge = iota // packets queued in rings
	GaugeEpoch                           // current ingress program epoch
	GaugePrograms                        // live program epochs (2 while draining)
	GaugeSwapDraining                    // 1 while a transition is draining
	GaugeDeliveryLog                     // retained deliveries (incl. unmerged tails)
	GaugeFDDNodes                        // compiler hash-consed node store size
	GaugeStrands                         // compiler distinct strand executions
	GaugeInternEntries                   // compiler interner entries (atoms + keys)
	GaugeArenaBytes                      // compiler FDD arena slab bytes
	GaugeArenaHighWater                  // largest arena across cache generations
	GaugeCompileCacheResets              // compiler cache generations dropped
	GaugeWatchSubscribers
	GaugeWatchDropped  // events dropped across all /watch subscribers
	GaugeTracePending  // journeys currently being stitched
	GaugeTraceOrphans  // hop records whose journey was already evicted
	GaugeFlightEvicted // flight records overwritten
	GaugeAlertsActive  // watchdog alerts currently firing
	numGauges
)

var gaugeNames = [numGauges]string{
	GaugePending:            "pending_packets",
	GaugeEpoch:              "epoch",
	GaugePrograms:           "live_programs",
	GaugeSwapDraining:       "swap_draining",
	GaugeDeliveryLog:        "delivery_log",
	GaugeFDDNodes:           "compiler_fdd_nodes",
	GaugeStrands:            "compiler_strands",
	GaugeInternEntries:      "compiler_intern_entries",
	GaugeArenaBytes:         "compiler_arena_bytes",
	GaugeArenaHighWater:     "compiler_arena_high_water_bytes",
	GaugeCompileCacheResets: "compile_cache_resets",
	GaugeWatchSubscribers:   "watch_subscribers",
	GaugeWatchDropped:       "watch_dropped",
	GaugeTracePending:       "trace_pending_journeys",
	GaugeTraceOrphans:       "trace_orphan_records",
	GaugeFlightEvicted:      "flight_evicted_records",
	GaugeAlertsActive:       "alerts_active",
}

var gaugeHelp = [numGauges]string{
	GaugePending:            "Packets currently queued in switch ingress rings.",
	GaugeEpoch:              "Current ingress program epoch.",
	GaugePrograms:           "Live program epochs (2 while a swap drains).",
	GaugeSwapDraining:       "1 while a program transition is draining, else 0.",
	GaugeDeliveryLog:        "Deliveries retained in the engine log.",
	GaugeFDDNodes:           "Hash-consed FDD node store size of the compiler cache.",
	GaugeStrands:            "Distinct symbolic strand executions in the compiler cache.",
	GaugeInternEntries:      "Dense-interner entries in the compiler cache (field/value atoms, segment shapes, strand prefixes, long truth vectors).",
	GaugeArenaBytes:         "FDD arena slab bytes allocated by the compiler cache.",
	GaugeArenaHighWater:     "Largest FDD arena observed across compiler cache generations.",
	GaugeCompileCacheResets: "Wholesale compiler-cache resets so far, one per 32 builds: the compile after one is cold.",
	GaugeWatchSubscribers:   "Active /watch stream subscribers.",
	GaugeWatchDropped:       "Events dropped to slow /watch consumers (cumulative).",
	GaugeTracePending:       "Sampled journeys currently being stitched.",
	GaugeTraceOrphans:       "Trace hop records arriving after their journey was evicted (cumulative).",
	GaugeFlightEvicted:      "Flight-recorder records overwritten (cumulative).",
	GaugeAlertsActive:       "Watchdog alerts currently firing.",
}

// Hist identifies one fixed-bucket histogram. All histograms share the
// same power-of-two bucket layout: bucket i counts observations
// v <= 2^i (see bucketOf), which makes observation a bits.Len64 away
// and keeps the shard a flat array.
type Hist int

const (
	HistHopNs        Hist = iota // per-hop forwarding latency
	HistDeliveryNs               // inject -> delivery latency
	HistGenOccupancy             // packets processed per generation
	HistQueueDepth               // ring depth at drain time
	HistSwapDrainNs              // swap flip -> retire duration
	HistCompileNs                // program compile duration
	numHists
)

var histNames = [numHists]string{
	HistHopNs:        "hop_ns",
	HistDeliveryNs:   "delivery_latency_ns",
	HistGenOccupancy: "generation_occupancy",
	HistQueueDepth:   "queue_depth",
	HistSwapDrainNs:  "swap_drain_ns",
	HistCompileNs:    "compile_ns",
}

var histHelp = [numHists]string{
	HistHopNs:        "Per-switch-hop forwarding latency in nanoseconds (per-worker drain time over hops drained).",
	HistDeliveryNs:   "Injection-to-delivery latency in nanoseconds.",
	HistGenOccupancy: "Packets processed per bulk-synchronous generation.",
	HistQueueDepth:   "Switch ingress ring depth at drain time.",
	HistSwapDrainNs:  "Swap flip-to-retire drain duration in nanoseconds.",
	HistCompileNs:    "Program compilation duration in nanoseconds.",
}

// HistBuckets is the bucket count of every histogram: bucket i counts
// observations v <= 2^i, so 40 buckets cover ~18 minutes in
// nanoseconds — far beyond any latency this system produces — while a
// whole shard histogram stays a few cache lines.
const HistBuckets = 40

// bucketOf returns the histogram bucket of an observation: the smallest
// i with v <= 2^i, clamped to the last bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the
// Prometheus `le` label value).
func BucketBound(i int) int64 { return int64(1) << uint(i) }

// histShard is one histogram's per-worker half: plain writes only.
type histShard struct {
	count [HistBuckets]int64
	sum   int64
}

// Shard is one worker's private histogram shard. All methods are plain
// writes with no synchronization: a shard must be written by exactly
// one goroutine between folds, and Fold must run with shard writers
// quiescent (the engine folds at chunk boundaries). No method
// allocates. Counters have no shard: the engine counts in its own set
// and adds the boundary's delta with Metrics.Add.
type Shard struct {
	hist [numHists]histShard
}

// Observe records one observation.
func (s *Shard) Observe(h Hist, v int64) {
	hs := &s.hist[h]
	hs.count[bucketOf(v)]++
	hs.sum += v
}

// ObserveN records n observations of value v with one bucket write —
// how the engine folds a drained batch's per-hop latency without
// touching the histogram once per hop.
func (s *Shard) ObserveN(h Hist, v, n int64) {
	hs := &s.hist[h]
	hs.count[bucketOf(v)] += n
	hs.sum += v * n
}

// histAtomic is one histogram's published half.
type histAtomic struct {
	count [HistBuckets]atomic.Int64
	sum   atomic.Int64
}

// Metrics is the process-wide registry: per-worker histogram shards
// written on the hot path and folded into atomics at engine boundaries,
// counters and gauges written at those boundaries, all scraped by
// WritePrometheus at any time. Direct methods (Add, Observe, SetGauge)
// write the atomics and are safe from any goroutine — they are for
// serial/boundary contexts (the engine's fold, controller, chaos
// harness, netd handlers), not the hop loop.
type Metrics struct {
	mu     sync.Mutex
	shards []*Shard

	ctr   [numCounters]atomic.Int64
	gauge [numGauges]atomic.Int64
	hist  [numHists]histAtomic
}

// NewMetrics builds a registry with the given number of preallocated
// shards (grown on demand by EnsureShards).
func NewMetrics(shards int) *Metrics {
	m := &Metrics{}
	m.EnsureShards(shards)
	return m
}

// EnsureShards grows the shard set to at least n (existing shards keep
// their identity, so an engine restart or hot-swap never loses counts).
func (m *Metrics) EnsureShards(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.shards) < n {
		m.shards = append(m.shards, &Shard{})
	}
}

// Shard returns worker i's shard (EnsureShards must have covered i).
func (m *Metrics) Shard(i int) *Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards[i]
}

// Fold publishes and zeroes every shard's histogram deltas. The caller
// must guarantee shard writers are quiescent (the engine calls it at
// chunk boundaries); concurrent readers are always safe.
func (m *Metrics) Fold() {
	m.mu.Lock()
	shards := m.shards
	m.mu.Unlock()
	for _, s := range shards {
		for h := Hist(0); h < numHists; h++ {
			hs := &s.hist[h]
			for b := 0; b < HistBuckets; b++ {
				if v := hs.count[b]; v != 0 {
					m.hist[h].count[b].Add(v)
					hs.count[b] = 0
				}
			}
			if hs.sum != 0 {
				m.hist[h].sum.Add(hs.sum)
				hs.sum = 0
			}
		}
	}
}

// Add adds n to a counter directly (atomic; serial-context use).
func (m *Metrics) Add(c Counter, n int64) { m.ctr[c].Add(n) }

// Inc adds one to a counter directly.
func (m *Metrics) Inc(c Counter) { m.ctr[c].Add(1) }

// Counter reads a counter's folded value.
func (m *Metrics) Counter(c Counter) int64 { return m.ctr[c].Load() }

// SetGauge sets a gauge.
func (m *Metrics) SetGauge(g Gauge, v int64) { m.gauge[g].Store(v) }

// Gauge reads a gauge.
func (m *Metrics) Gauge(g Gauge) int64 { return m.gauge[g].Load() }

// Observe records one observation directly (atomic; serial-context use).
func (m *Metrics) Observe(h Hist, v int64) {
	m.hist[h].count[bucketOf(v)].Add(1)
	m.hist[h].sum.Add(v)
}

// HistCount returns a histogram's folded observation count.
func (m *Metrics) HistCount(h Hist) int64 {
	var n int64
	for b := 0; b < HistBuckets; b++ {
		n += m.hist[h].count[b].Load()
	}
	return n
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (metric names are prefixed "eventnet_"; histograms
// emit cumulative buckets up to the highest populated bound plus +Inf).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	for c := Counter(0); c < numCounters; c++ {
		name := "eventnet_" + counterNames[c] + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, counterHelp[c], name, name, m.ctr[c].Load()); err != nil {
			return err
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		name := "eventnet_" + gaugeNames[g]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			name, gaugeHelp[g], name, name, m.gauge[g].Load()); err != nil {
			return err
		}
	}
	for h := Hist(0); h < numHists; h++ {
		name := "eventnet_" + histNames[h]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, histHelp[h], name); err != nil {
			return err
		}
		top := 0
		for b := 0; b < HistBuckets; b++ {
			if m.hist[h].count[b].Load() != 0 {
				top = b
			}
		}
		cum := int64(0)
		for b := 0; b <= top; b++ {
			cum += m.hist[h].count[b].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketBound(b), cum); err != nil {
				return err
			}
		}
		total := m.HistCount(h)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, total, name, m.hist[h].sum.Load(), name, total); err != nil {
			return err
		}
	}
	return nil
}

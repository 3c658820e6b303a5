// Package obs is the zero-dependency observability layer: counters and
// sharded fixed-bucket histograms (metrics.go), a bounded
// drop-counting event bus for the streaming ops feed (bus.go), and
// sampled packet journey tracing (trace.go).
//
// The package is designed around the engine's bulk-synchronous
// execution model, and its concurrency contract mirrors the engine's:
//
//   - Hot-path writes (Shard histogram updates, Tracer.Add) are plain
//     stores into preallocated per-worker shards — no locks, no
//     atomics, no maps, no interface boxing, and no allocation, so the
//     engine's zero-alloc hop-loop guarantee holds with metrics and
//     tracing enabled (CI-gated by TestEngineHopLoopZeroAllocObs).
//   - Folding (Metrics.Fold, Tracer.Flush) happens at the engine's
//     chunk boundaries, where workers are quiescent; the fold publishes
//     shard values into atomics that readers (the /metrics handler)
//     may scrape at any time. The engine counts in its own counters and
//     adds each boundary's delta with Metrics.Add.
//   - Bus.Publish never blocks: a slow consumer overflows its own
//     bounded buffer and the overflow is counted, never propagated back
//     into a generation barrier.
//
// Nothing in this package influences the delivery sequence: metrics are
// write-only from the engine's point of view, the bus is fed at
// boundaries, and trace records ride alongside packets without touching
// forwarding state. The determinism matrix and the chaos audit pass
// bit-identically with the full layer enabled (internal/dataplane's
// obs tests pin this).
//
// See docs/OBSERVABILITY.md for the metric catalog, the event and trace
// record formats, and the sampling semantics.
package obs

// Obs bundles the observability hooks an engine (or controller) is
// constructed with. Any nil component is disabled at zero cost; a nil
// *Obs disables the whole layer.
type Obs struct {
	// Metrics receives counters and histograms. Shared freely across
	// engine generations (a hot-swap keeps the same Metrics).
	Metrics *Metrics
	// Bus receives the streaming ops feed: sampled deliveries, event
	// detections, swap phase transitions, chunk-boundary stats deltas,
	// and stitched packet journeys.
	Bus *Bus
	// Trace samples packet journeys (nil = tracing off).
	Trace *Tracer
	// Flight is the always-on flight recorder: one bounded ring of
	// full-fidelity recent history, dumped on demand (nil = off).
	Flight *Flight
	// Watch derives alert events from metric deltas at chunk boundaries
	// (nil = no watchdog). Requires Metrics to do anything.
	Watch *Watchdog
	// DeliverySample publishes every Nth host delivery on the Bus
	// (0 = no delivery events). Sampling is counted over the merged
	// per-worker logs at boundaries, so it costs the hop loop nothing.
	DeliverySample int
}

// Enabled reports whether any component is live.
func (o *Obs) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Bus != nil || o.Trace != nil ||
		o.Flight != nil || o.Watch != nil)
}

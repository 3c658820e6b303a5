package obs

import "sync"

// Self-watchdog: alert derivation from metric deltas. Check runs in the
// engine's serial boundary context (flushObs), computes what moved
// since the previous boundary, and compares against thresholds; alerts
// are published on the bus as KindAlert events (phase "raise"/"clear",
// on transitions only, never per boundary) and exposed through Active
// for /healthz degradation reasons. The watchdog is an observer like
// everything else in this package: it reads folded atomics, touches no
// engine state, and a nil *Watchdog costs nothing.

// Alert names (the catalog; see docs/OPS.md).
const (
	AlertQueueSaturation  = "queue_saturation"   // pending packets over threshold
	AlertDropRate         = "drop_rate"          // bus + trace drops per window over threshold
	AlertSwapDrainOverrun = "swap_drain_overrun" // a swap draining past the generation budget
	AlertTTLSpike         = "ttl_spike"          // TTL drops per window over threshold
)

// Alert is one active (or just-transitioned) watchdog alert.
type Alert struct {
	Name      string `json:"name"`
	Value     int64  `json:"value"` // the measurement that crossed the threshold
	Threshold int64  `json:"threshold"`
	SinceGen  int64  `json:"since_gen"`
}

// Watchdog derives alerts from metric deltas at chunk boundaries.
// Check must be called from one goroutine at a time (the engine's
// serial boundary); Active and ActiveNames are safe from any goroutine.
type Watchdog struct {
	// The thresholds (docs/OPS.md lists them). pendingMax raises
	// queue_saturation when the pending-packets gauge reaches it.
	// dropWindowMax raises drop_rate when the drops accrued since the
	// previous boundary — bus-wide /watch drops, trace-ring overflow,
	// and truncated journeys — reach it. swapDrainGens raises
	// swap_drain_overrun when a swap stays draining across that many
	// generations. ttlWindowMax raises ttl_spike when the TTL drops
	// accrued since the previous boundary reach it.
	pendingMax, dropWindowMax, swapDrainGens, ttlWindowMax int64

	mu     sync.Mutex
	active map[string]*Alert

	// Previous-boundary snapshots for the windowed alerts.
	lastDrops int64
	lastTTL   int64
	drainGen  int64 // generation a drain was first observed at; -1 = none
}

// NewWatchdog builds a watchdog with the fixed thresholds.
func NewWatchdog() *Watchdog {
	return &Watchdog{
		pendingMax: 32768, dropWindowMax: 256, swapDrainGens: 65536, ttlWindowMax: 512,
		active: map[string]*Alert{}, drainGen: -1,
	}
}

// Active returns the currently-active alerts, sorted by name.
func (w *Watchdog) Active() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Alert, 0, len(w.active))
	for _, name := range []string{AlertDropRate, AlertQueueSaturation, AlertSwapDrainOverrun, AlertTTLSpike} {
		if a := w.active[name]; a != nil {
			out = append(out, *a)
		}
	}
	return out
}

// set raises or clears one alert, publishing the transition on the bus
// (phase "raise"/"clear") and counting raises into CtrAlerts.
func (w *Watchdog) set(m *Metrics, b *Bus, gen int64, name string, firing bool, value, threshold int64) {
	cur := w.active[name]
	switch {
	case firing && cur == nil:
		a := &Alert{Name: name, Value: value, Threshold: threshold, SinceGen: gen}
		w.active[name] = a
		if m != nil {
			m.Inc(CtrAlerts)
		}
		if b.Active() {
			b.Publish(Event{Kind: KindAlert, Phase: "raise", Gen: gen, Note: name, Alert: a})
		}
	case firing:
		cur.Value = value // refresh the measurement while it stays hot
	case cur != nil:
		delete(w.active, name)
		if b.Active() {
			b.Publish(Event{Kind: KindAlert, Phase: "clear", Gen: gen, Note: name,
				Alert: &Alert{Name: name, Value: value, Threshold: threshold, SinceGen: cur.SinceGen}})
		}
	}
}

// Check runs one boundary evaluation. m is required (deltas come from
// the folded atomics); b may be nil (no transition events, Active still
// tracks). Serial context only.
func (w *Watchdog) Check(gen int64, m *Metrics, b *Bus) {
	if m == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	pending := m.Gauge(GaugePending)
	w.set(m, b, gen, AlertQueueSaturation, pending >= w.pendingMax, pending, w.pendingMax)

	// Drop rate: everything the telemetry layer sheds under pressure —
	// /watch subscriber overflow (bus-wide), trace-ring overflow, and
	// journeys emitted truncated — as one per-window delta.
	drops := m.Gauge(GaugeWatchDropped) + m.Counter(CtrTraceRecDrops) + m.Counter(CtrTracesTruncated)
	d := drops - w.lastDrops
	w.lastDrops = drops
	w.set(m, b, gen, AlertDropRate, d >= w.dropWindowMax, d, w.dropWindowMax)

	// Swap drain overrun: generations observed draining, not wall time —
	// boundary cadence is the watchdog's clock.
	if m.Gauge(GaugeSwapDraining) != 0 {
		if w.drainGen < 0 {
			w.drainGen = gen
		}
		span := gen - w.drainGen
		w.set(m, b, gen, AlertSwapDrainOverrun, span >= w.swapDrainGens, span, w.swapDrainGens)
	} else {
		w.drainGen = -1
		w.set(m, b, gen, AlertSwapDrainOverrun, false, 0, w.swapDrainGens)
	}

	ttl := m.Counter(CtrTTLDrops)
	td := ttl - w.lastTTL
	w.lastTTL = ttl
	w.set(m, b, gen, AlertTTLSpike, td >= w.ttlWindowMax, td, w.ttlWindowMax)

	m.SetGauge(GaugeAlertsActive, int64(len(w.active)))
}

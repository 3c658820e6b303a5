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

// WatchOptions are the watchdog thresholds; zero values take defaults.
type WatchOptions struct {
	// PendingMax raises queue_saturation when the pending-packets gauge
	// reaches it. Default 32768.
	PendingMax int64
	// DropWindowMax raises drop_rate when the drops accrued since the
	// previous boundary — bus-wide /watch drops, trace-ring overflow,
	// and truncated journeys — reach it. Default 256.
	DropWindowMax int64
	// SwapDrainGens raises swap_drain_overrun when a swap stays draining
	// across this many generations. Default 65536.
	SwapDrainGens int64
	// TTLWindowMax raises ttl_spike when the TTL drops accrued since the
	// previous boundary reach it. Default 512.
	TTLWindowMax int64
}

func (o WatchOptions) withDefaults() WatchOptions {
	if o.PendingMax <= 0 {
		o.PendingMax = 32768
	}
	if o.DropWindowMax <= 0 {
		o.DropWindowMax = 256
	}
	if o.SwapDrainGens <= 0 {
		o.SwapDrainGens = 65536
	}
	if o.TTLWindowMax <= 0 {
		o.TTLWindowMax = 512
	}
	return o
}

// Watchdog derives alerts from metric deltas at chunk boundaries.
// Check must be called from one goroutine at a time (the engine's
// serial boundary); Active and ActiveNames are safe from any goroutine.
type Watchdog struct {
	opts WatchOptions

	mu     sync.Mutex
	active map[string]*Alert

	// Previous-boundary snapshots for the windowed alerts.
	lastDrops int64
	lastTTL   int64
	drainGen  int64 // generation a drain was first observed at; -1 = none
	fired     int64 // alerts raised, ever
}

// NewWatchdog builds a watchdog with the given thresholds.
func NewWatchdog(o WatchOptions) *Watchdog {
	return &Watchdog{opts: o.withDefaults(), active: map[string]*Alert{}, drainGen: -1}
}

// Options returns the effective (defaulted) thresholds.
func (w *Watchdog) Options() WatchOptions { return w.opts }

// Fired returns how many alerts have been raised over the watchdog's
// lifetime.
func (w *Watchdog) Fired() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
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
		w.fired++
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
	w.set(m, b, gen, AlertQueueSaturation, pending >= w.opts.PendingMax, pending, w.opts.PendingMax)

	// Drop rate: everything the telemetry layer sheds under pressure —
	// /watch subscriber overflow (bus-wide), trace-ring overflow, and
	// journeys emitted truncated — as one per-window delta.
	drops := m.Gauge(GaugeWatchDropped) + m.Counter(CtrTraceRecDrops) + m.Counter(CtrTracesTruncated)
	d := drops - w.lastDrops
	w.lastDrops = drops
	w.set(m, b, gen, AlertDropRate, d >= w.opts.DropWindowMax, d, w.opts.DropWindowMax)

	// Swap drain overrun: generations observed draining, not wall time —
	// boundary cadence is the watchdog's clock.
	if m.Gauge(GaugeSwapDraining) != 0 {
		if w.drainGen < 0 {
			w.drainGen = gen
		}
		span := gen - w.drainGen
		w.set(m, b, gen, AlertSwapDrainOverrun, span >= w.opts.SwapDrainGens, span, w.opts.SwapDrainGens)
	} else {
		w.drainGen = -1
		w.set(m, b, gen, AlertSwapDrainOverrun, false, 0, w.opts.SwapDrainGens)
	}

	ttl := m.Counter(CtrTTLDrops)
	td := ttl - w.lastTTL
	w.lastTTL = ttl
	w.set(m, b, gen, AlertTTLSpike, td >= w.opts.TTLWindowMax, td, w.opts.TTLWindowMax)

	m.SetGauge(GaugeAlertsActive, int64(len(w.active)))
}

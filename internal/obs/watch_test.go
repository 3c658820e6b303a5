package obs

import "testing"

// drainAlerts collects whatever alert events a subscriber has buffered.
func drainAlerts(sub *Sub) []Event {
	var out []Event
	for {
		select {
		case ev := <-sub.C:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestWatchdogQueueSaturation: raise on threshold, publish the
// transition once, refresh while hot, clear when the queue drains.
func TestWatchdogQueueSaturation(t *testing.T) {
	m := NewMetrics(0)
	b := NewBus()
	sub := b.Subscribe(16, KindAlert)
	defer sub.Close()
	w := NewWatchdog()
	w.pendingMax = 10

	m.SetGauge(GaugePending, 5)
	w.Check(1, m, b)
	if len(w.Active()) != 0 {
		t.Fatalf("below threshold: active = %v", w.Active())
	}

	m.SetGauge(GaugePending, 25)
	w.Check(2, m, b)
	act := w.Active()
	if len(act) != 1 || act[0].Name != AlertQueueSaturation {
		t.Fatalf("active = %v, want one queue_saturation", act)
	}
	if act[0].Value != 25 || act[0].Threshold != 10 || act[0].SinceGen != 2 {
		t.Errorf("alert = %+v, want value 25 threshold 10 since gen 2", act[0])
	}
	if got := m.Counter(CtrAlerts); got != 1 {
		t.Errorf("CtrAlerts = %d, want 1", got)
	}
	if got := m.Gauge(GaugeAlertsActive); got != 1 {
		t.Errorf("alerts_active = %d, want 1", got)
	}

	// Still firing: the value refreshes, but no second raise is
	// published or counted.
	m.SetGauge(GaugePending, 40)
	w.Check(3, m, b)
	if act := w.Active(); act[0].Value != 40 || act[0].SinceGen != 2 {
		t.Errorf("refreshed alert = %+v, want value 40, since_gen still 2", act[0])
	}
	if got := m.Counter(CtrAlerts); got != 1 {
		t.Errorf("CtrAlerts after refresh = %d, want still 1", got)
	}

	m.SetGauge(GaugePending, 0)
	w.Check(4, m, b)
	if len(w.Active()) != 0 {
		t.Fatalf("after drain: active = %v, want none", w.Active())
	}
	if got := m.Gauge(GaugeAlertsActive); got != 0 {
		t.Errorf("alerts_active = %d, want 0", got)
	}

	evs := drainAlerts(sub)
	if len(evs) != 2 {
		t.Fatalf("published %d alert events, want raise+clear", len(evs))
	}
	if evs[0].Phase != "raise" || evs[0].Note != AlertQueueSaturation || evs[0].Alert == nil {
		t.Errorf("event 0 = %+v, want the raise", evs[0])
	}
	if evs[1].Phase != "clear" || evs[1].Alert.SinceGen != 2 {
		t.Errorf("event 1 = %+v, want the clear carrying since_gen 2", evs[1])
	}
}

// TestWatchdogDropRate: windowed, not cumulative — a burst raises, a
// quiet window clears, regardless of lifetime totals.
func TestWatchdogDropRate(t *testing.T) {
	m := NewMetrics(0)
	w := NewWatchdog()
	w.dropWindowMax = 10

	m.SetGauge(GaugeWatchDropped, 5)
	w.Check(1, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("5 drops/window: active = %v", w.Active())
	}
	// Drops accrue across all three shed points: bus, trace ring,
	// truncated journeys.
	m.SetGauge(GaugeWatchDropped, 9)
	m.Add(CtrTraceRecDrops, 4)
	m.Add(CtrTracesTruncated, 3)
	w.Check(2, m, nil)
	act := w.Active()
	if len(act) != 1 || act[0].Name != AlertDropRate || act[0].Value != 11 {
		t.Fatalf("active = %v, want drop_rate at 11 (4+4+3 this window)", act)
	}
	// Quiet window: cumulative totals unchanged -> delta 0 -> clear.
	w.Check(3, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("quiet window: active = %v, want none", w.Active())
	}
}

// TestWatchdogSwapDrainOverrun: measured in generations observed
// draining, cleared the boundary the drain finishes.
func TestWatchdogSwapDrainOverrun(t *testing.T) {
	m := NewMetrics(0)
	w := NewWatchdog()
	w.swapDrainGens = 10

	m.SetGauge(GaugeSwapDraining, 1)
	w.Check(100, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("drain just started: active = %v", w.Active())
	}
	w.Check(105, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("5 gens in: active = %v", w.Active())
	}
	w.Check(111, m, nil)
	act := w.Active()
	if len(act) != 1 || act[0].Name != AlertSwapDrainOverrun || act[0].Value != 11 {
		t.Fatalf("active = %v, want swap_drain_overrun spanning 11 gens", act)
	}
	m.SetGauge(GaugeSwapDraining, 0)
	w.Check(112, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("drain finished: active = %v", w.Active())
	}
	// A fresh drain restarts the span from its own first boundary.
	m.SetGauge(GaugeSwapDraining, 1)
	w.Check(200, m, nil)
	w.Check(205, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("second drain, 5 gens in: active = %v", w.Active())
	}
}

// TestWatchdogTTLSpike: windowed TTL-drop delta.
func TestWatchdogTTLSpike(t *testing.T) {
	m := NewMetrics(0)
	w := NewWatchdog()
	w.ttlWindowMax = 100

	m.Add(CtrTTLDrops, 50)
	w.Check(1, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("50 TTL drops/window: active = %v", w.Active())
	}
	m.Add(CtrTTLDrops, 150)
	w.Check(2, m, nil)
	act := w.Active()
	if len(act) != 1 || act[0].Name != AlertTTLSpike || act[0].Value != 150 {
		t.Fatalf("active = %v, want ttl_spike at 150", act)
	}
	w.Check(3, m, nil)
	if len(w.Active()) != 0 {
		t.Fatalf("quiet window: active = %v", w.Active())
	}
}

// TestWatchdogDefaults: the thresholds are the documented ones, and a
// nil-metrics Check is a no-op.
func TestWatchdogDefaults(t *testing.T) {
	w := NewWatchdog()
	if w.pendingMax != 32768 || w.dropWindowMax != 256 || w.swapDrainGens != 65536 || w.ttlWindowMax != 512 {
		t.Errorf("thresholds = %d %d %d %d", w.pendingMax, w.dropWindowMax, w.swapDrainGens, w.ttlWindowMax)
	}
	w.Check(1, nil, nil) // must not panic
	if len(w.Active()) != 0 {
		t.Error("nil-metrics Check changed state")
	}
}

package dataplane

import (
	"time"

	"eventnet/internal/nes"
	"eventnet/internal/obs"
)

// Boundary-time observability: everything here runs in serial engine
// contexts (boundary(), Do closures, the generation tail), where
// workers are quiescent and allocation is fine. The hop loop's only
// observability work is the plain shard stores and the detection log in
// hop/drain; this file
// is where those shards are folded, the bus and the flight recorder
// are fed from the workers' logs, and journeys are stitched.

// obsDeltaCounters is the number of counters tracked for stats-delta
// bus events; deltaCtrs names them in StatsDelta field order.
const obsDeltaCounters = 8

var deltaCtrs = [obsDeltaCounters]obs.Counter{
	obs.CtrGenerations, obs.CtrHops, obs.CtrInjections, obs.CtrDeliveries,
	obs.CtrRuleDrops, obs.CtrTTLDrops, obs.CtrEventsFired, obs.CtrDrainedHops,
}

// flushObs is the boundary fold: publish shard deltas into the metrics
// atomics, refresh gauges, feed the flight recorder, publish the
// detection logs and delivery samples on the bus, stitch and emit
// completed journeys, and publish a stats delta when anything moved.
// Serial context only.
func (e *Engine) flushObs() {
	e.feedFlight()
	if e.met != nil {
		e.met.Fold()
		e.met.SetGauge(obs.GaugePending, int64(e.pending()))
		e.met.SetGauge(obs.GaugeEpoch, int64(e.cur().epoch))
		e.met.SetGauge(obs.GaugePrograms, int64(len(e.progs)))
		dl := len(e.deliveries)
		for _, wk := range e.ws {
			dl += len(wk.dlog)
		}
		e.met.SetGauge(obs.GaugeDeliveryLog, int64(dl))
		if e.bus != nil {
			e.met.SetGauge(obs.GaugeWatchSubscribers, int64(e.bus.Subscribers()))
			e.met.SetGauge(obs.GaugeWatchDropped, e.bus.Dropped())
		}
		if e.flight != nil {
			e.met.SetGauge(obs.GaugeFlightEvicted, e.flight.Evicted())
		}
		e.setNow(time.Now().UnixNano())
	}
	for _, wk := range e.ws {
		if e.bus != nil {
			for i := range wk.det {
				r := &wk.det[i]
				e.bus.Publish(obs.Event{
					Kind: obs.KindEvent, Gen: r.Gen,
					Epoch: int(r.Epoch), Version: int(r.Version),
					Switch: int(r.Switch), PacketSeq: r.Seq,
					Events: nes.Set(r.Bits).Elems(),
				})
			}
		}
		wk.det, wk.detFed = wk.det[:0], 0
	}
	e.flushDeliverySamples()
	if e.tracer != nil {
		done, drops := e.tracer.Flush(e.gen)
		if e.met != nil {
			if drops > 0 {
				e.met.Add(obs.CtrTraceRecDrops, drops)
			}
			for _, j := range done {
				e.met.Inc(obs.CtrTraces)
				if j.Truncated {
					e.met.Inc(obs.CtrTracesTruncated)
				}
			}
			e.met.SetGauge(obs.GaugeTracePending, int64(e.tracer.Pending()))
			e.met.SetGauge(obs.GaugeTraceOrphans, e.tracer.Orphans())
		}
		if e.bus != nil {
			for _, j := range done {
				e.bus.Publish(obs.Event{
					Kind: obs.KindTrace, Gen: e.gen, Epoch: j.Epoch,
					Trace: j,
				})
			}
		}
	}
	if e.bus != nil && e.met != nil && e.bus.Active() {
		if d := e.statsDelta(&e.lastPub); d != nil {
			e.bus.Publish(obs.Event{Kind: obs.KindStats, Gen: e.gen, Epoch: e.cur().epoch, Stats: d})
		}
	}
	// The flight recorder gets its own boundary stats record, on its own
	// delta baseline: the bus delta above only advances while someone is
	// subscribed, and a flight dump must read the same whether or not a
	// /watch client happened to be attached (determinism across equal
	// executions). The recorded deltas are engine totals — worker-count
	// independent by the fold.
	if e.flight != nil && e.met != nil {
		if d := e.statsDelta(&e.lastFl); d != nil {
			e.flight.Serial(obs.FlightRec{Kind: obs.FlightStats, Gen: e.gen, Seq: e.seq, Epoch: int32(e.cur().epoch), Stats: d})
		}
	}
	if e.watch != nil {
		e.watch.Check(e.gen, e.met, e.bus)
	}
}

// statsDelta reads the delta counters against the baseline at base and
// advances it: the counters' movement since, with the pending and
// delivery-log gauges flushObs just set, or nil when nothing moved.
func (e *Engine) statsDelta(base *[obsDeltaCounters]int64) *obs.StatsDelta {
	var cur [obsDeltaCounters]int64
	moved := false
	for i, c := range deltaCtrs {
		cur[i] = e.met.Counter(c)
		moved = moved || cur[i] != base[i]
	}
	if !moved {
		return nil
	}
	d := &obs.StatsDelta{
		Generations: cur[0] - base[0],
		Hops:        cur[1] - base[1],
		Injections:  cur[2] - base[2],
		Deliveries:  cur[3] - base[3],
		RuleDrops:   cur[4] - base[4],
		TTLDrops:    cur[5] - base[5],
		Events:      cur[6] - base[6],
		DrainedHops: cur[7] - base[7],
		Pending:     e.met.Gauge(obs.GaugePending),
		DeliveryLog: e.met.Gauge(obs.GaugeDeliveryLog),
	}
	*base = cur
	return d
}

// FlightDump dumps the flight recorder at a generation barrier (Do),
// after feeding it what the workers logged since the last boundary: Step
// ends without one. Nil when no recorder is attached. The dump is
// repeatable — the ring is not consumed.
func (e *Engine) FlightDump() *obs.FlightDump {
	if e.flight == nil {
		return nil
	}
	var d *obs.FlightDump
	e.Do(func() {
		e.feedFlight()
		d = e.flight.Dump()
	})
	return d
}

// feedFlight copies the deliveries and detections the workers logged
// since the last feed into the flight ring, so the hop loop records each
// event once. Serial context only. It runs before anything resets a log
// (the boundary fold, mergeDeliveries) and before every serial record
// the engine writes, which keeps the ring's writes close to generation
// order and its truncation cutoff low.
func (e *Engine) feedFlight() {
	if e.flight == nil {
		return
	}
	for _, wk := range e.ws {
		for i := wk.dlogFed; i < len(wk.dlog); i++ {
			d := &wk.dlog[i]
			e.flight.Add(obs.FlightRec{
				Kind: obs.FlightDeliver, Switch: d.sw,
				Branch: d.branch, Epoch: int32(d.stamp.Epoch), Version: int32(d.stamp.Version),
				Gen: d.gen, Seq: d.seq, Host: d.host,
			})
		}
		for _, r := range wk.det[wk.detFed:] {
			e.flight.Add(r)
		}
		wk.dlogFed, wk.detFed = len(wk.dlog), len(wk.det)
	}
}

// logDetect appends the events p's arrival at switch sw enabled to the
// worker's detection log, when a bus or flight recorder reads it. An
// event is detected once per epoch, at its own switch, so the log stays
// within events × live epochs between boundaries.
func (wk *worker) logDetect(p *qpkt, sw int32, newly nes.Set) {
	if wk.det == nil {
		return
	}
	wk.det = append(wk.det, obs.FlightRec{
		Kind: obs.FlightDetect, Switch: sw,
		Branch: p.branch, Epoch: int32(p.epoch), Version: int32(p.version),
		Gen: wk.gen, Seq: p.seq, Bits: string(newly),
	})
}

// setNow refreshes every worker's delivery-latency clock. Serial
// context only: boundaries, admissions and every 8th generation tail.
func (e *Engine) setNow(ns int64) {
	for _, wk := range e.ws {
		wk.nowNs = ns
	}
}

// flushDeliverySamples publishes every Nth delivery (N =
// Obs.DeliverySample, counted across the merged order of appearance)
// from the per-worker log tails. It runs at boundaries and at the top
// of mergeDeliveries — the cursors index into dlog, which the merge
// resets — so every delivery is counted exactly once. Field maps are
// materialized here, never on the hop loop.
func (e *Engine) flushDeliverySamples() {
	if e.bus == nil || e.dsample <= 0 {
		for _, wk := range e.ws {
			wk.dlogFlushed = len(wk.dlog)
		}
		return
	}
	active := e.bus.Active()
	for _, wk := range e.ws {
		for i := wk.dlogFlushed; i < len(wk.dlog); i++ {
			e.dcount++
			if active && e.dcount%int64(e.dsample) == 0 {
				d := &wk.dlog[i]
				e.bus.Publish(obs.Event{
					Kind: obs.KindDelivery, Gen: e.gen,
					Epoch: d.stamp.Epoch, Version: d.stamp.Version,
					Host: d.host, PacketSeq: d.seq, Branch: d.branch,
					Fields: map[string]int(d.schema.materialize(d.inert, d.vals, d.pres)),
				})
			}
		}
		wk.dlogFlushed = len(wk.dlog)
	}
}

// foldChunkTime observes the chunk's amortized per-hop latency into the
// worker's shard: one pair of clock reads per chunk (hundreds of hops),
// not per hop, keeps the metrics-on overhead inside the CI gate.
func (wk *worker) foldChunkTime(t0 int64) {
	if wk.ms == nil {
		return
	}
	if wk.chunkHops > 0 {
		el := time.Now().UnixNano() - t0
		if el < 0 {
			el = 0
		}
		wk.ms.ObserveN(obs.HistHopNs, el/wk.chunkHops, wk.chunkHops)
	}
	wk.chunkHops = 0
}

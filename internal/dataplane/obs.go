package dataplane

import (
	"time"

	"eventnet/internal/nes"
	"eventnet/internal/obs"
)

// Boundary-time observability: everything here runs in serial engine
// contexts (boundary(), Do closures, the generation tail), where
// workers are quiescent and allocation is fine. The hop loop counts into
// its worker's counts and logs deliveries and detections; this file
// folds the counts into the metrics and the stats deltas, feeds the
// workers' logs to the bus and the flight recorder, and stitches
// journeys.

// counts is one set of the engine's counters, indexed by obs.Counter
// from CtrHops through CtrEventsFired. Each worker counts its hops into
// its own set, the generation tail adds them into the engine's, and
// Snapshot, Processed, the metrics, the stats deltas and SwapStats all
// read that one set.
type counts [obs.CtrEventsFired + 1]int64

// flushObs is the boundary fold: feed the workers' logs, add the counts
// since the previous fold to the metrics, refresh gauges, stitch and
// emit completed journeys, and record one stats delta, on the bus and
// in the flight recorder, when anything moved. Serial context only.
func (e *Engine) flushObs() {
	e.feed()
	var d counts
	for i, v := range e.n {
		d[i] = v - e.folded[i]
	}
	e.folded = e.n
	pending, dlog := int64(e.pending()), int64(len(e.deliveries))
	for _, wk := range e.ws {
		dlog += int64(len(wk.dlog))
	}
	if e.met != nil {
		for c, v := range d {
			if v != 0 {
				e.met.Add(obs.Counter(c), v)
			}
		}
		e.met.Fold()
		e.met.SetGauge(obs.GaugePending, pending)
		e.met.SetGauge(obs.GaugeEpoch, int64(e.cur().epoch))
		e.met.SetGauge(obs.GaugePrograms, int64(len(e.progs)))
		e.met.SetGauge(obs.GaugeDeliveryLog, dlog)
		if e.bus != nil {
			e.met.SetGauge(obs.GaugeWatchSubscribers, int64(e.bus.Subscribers()))
			e.met.SetGauge(obs.GaugeWatchDropped, e.bus.Dropped())
		}
		if e.flight != nil {
			e.met.SetGauge(obs.GaugeFlightEvicted, e.flight.Evicted())
		}
		e.setNow(time.Now().UnixNano())
	}
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
	// One delta per boundary, the same on the bus and in the flight
	// recorder: engine totals, so worker-count independent, and a flight
	// dump reads the same whether or not a /watch client was attached.
	if d != (counts{}) && (e.bus != nil || e.flight != nil) {
		st := &obs.StatsDelta{
			Generations: d[obs.CtrGenerations],
			Hops:        d[obs.CtrHops],
			Injections:  d[obs.CtrInjections],
			Deliveries:  d[obs.CtrDeliveries],
			RuleDrops:   d[obs.CtrRuleDrops],
			TTLDrops:    d[obs.CtrTTLDrops],
			Events:      d[obs.CtrEventsFired],
			DrainedHops: d[obs.CtrDrainedHops],
			Pending:     pending,
			DeliveryLog: dlog,
		}
		if e.bus.Active() {
			e.bus.Publish(obs.Event{Kind: obs.KindStats, Gen: e.gen, Epoch: e.cur().epoch, Stats: st})
		}
		if e.flight != nil {
			e.flight.Serial(obs.FlightRec{Kind: obs.FlightStats, Gen: e.gen, Seq: e.seq, Epoch: int32(e.cur().epoch), Stats: st})
		}
	}
	if e.watch != nil {
		e.watch.Check(e.gen, e.met, e.bus)
	}
}

// FlightDump dumps the flight recorder at a generation barrier (Do),
// after feeding it what the workers logged since the last feed: Step
// ends without a boundary. Nil when no recorder is attached. The dump is
// repeatable — the ring is not consumed.
func (e *Engine) FlightDump() *obs.FlightDump {
	if e.flight == nil {
		return nil
	}
	var d *obs.FlightDump
	e.Do(func() {
		e.feed()
		d = e.flight.Dump()
	})
	return d
}

// feed hands what the workers logged since the last feed to the flight
// recorder, every record, and to the bus, every detection and every Nth
// delivery (N = Obs.DeliverySample, counted in the merged order of
// appearance) with its fields materialized — never on the hop loop.
// Detections go first, then deliveries: the flight's canonical kind
// order. Serial context only; it runs at the boundary fold, before
// mergeDeliveries resets the delivery logs, and in FlightDump, so each
// record is fed exactly once.
func (e *Engine) feed() {
	for _, wk := range e.ws {
		for i := range wk.det {
			r := &wk.det[i]
			if e.flight != nil {
				e.flight.Add(*r)
			}
			if e.bus != nil {
				e.bus.Publish(obs.Event{
					Kind: obs.KindEvent, Gen: r.Gen,
					Epoch: int(r.Epoch), Version: int(r.Version),
					Switch: int(r.Switch), PacketSeq: r.Seq,
					Events: nes.Set(r.Bits).Elems(),
				})
			}
		}
		wk.det = wk.det[:0]
	}
	sample := e.bus != nil && e.dsample > 0
	active := sample && e.bus.Active()
	for _, wk := range e.ws {
		for i := wk.dlogFed; i < len(wk.dlog); i++ {
			d := &wk.dlog[i]
			if e.flight != nil {
				e.flight.Add(obs.FlightRec{
					Kind: obs.FlightDeliver, Switch: d.sw,
					Branch: d.branch, Epoch: int32(d.stamp.Epoch), Version: int32(d.stamp.Version),
					Gen: d.gen, Seq: d.seq, Host: d.host,
				})
			}
			if !sample {
				continue
			}
			e.dcount++
			if active && e.dcount%int64(e.dsample) == 0 {
				e.bus.Publish(obs.Event{
					Kind: obs.KindDelivery, Gen: e.gen,
					Epoch: d.stamp.Epoch, Version: d.stamp.Version,
					Host: d.host, PacketSeq: d.seq, Branch: d.branch,
					Fields: map[string]int(d.schema.materialize(d.inert, d.vals, d.pres)),
				})
			}
		}
		wk.dlogFed = len(wk.dlog)
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

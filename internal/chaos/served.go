package chaos

import (
	"fmt"

	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/netkat"
	"eventnet/internal/stateful"
)

// RunServed replays a schedule against a served engine — supervisor
// goroutine, asynchronous boundaries — with program swaps going through
// the controller's northbound Swap path, the integration surface the
// synchronous runner cannot cover. Boundary placement is
// timing-dependent in served mode, so the delivery Hash is not
// comparable across runs; the audit invariant (Mixed == Dropped == 0)
// must hold regardless. Options.Batched switches the in-boundary
// injection loop to Engine.InjectBatch; Options.ChunkGens rides through
// to the engine.
func RunServed(s Schedule, o Options) (*Result, error) {
	sc, err := buildScenario(s.Scenario)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 2
	}
	c := ctrl.New(sc.tp, ctrl.Options{Workers: workers, ChunkGens: o.ChunkGens, Obs: o.Obs})
	defer c.Close()
	if err := c.Load(sc.progs[0].Name, sc.progs[0].Prog); err != nil {
		return nil, err
	}
	e := c.Engine()
	ctrlProgs := []*ctrl.Program{c.Current()} // epoch -> program

	lg := dataplane.NewLoadGen(c.Current().NES, sc.tp, s.Seed)
	traffic, arrivals := lg.Derive(1), lg.Derive(2)

	res := &Result{Scenario: s.Scenario, Seed: s.Seed, Workers: workers, Ops: len(s.Ops)}
	var recs []injRecord
	cur := 0

	// Injections are applied inside e.Do so the stamp recording is
	// barrier-serial with the engine's own bookkeeping.
	injectBatch := func(ins []dataplane.Injection) error {
		var ierr error
		e.Do(func() {
			if o.Batched {
				batch := make([]dataplane.Injection, len(ins))
				for i, in := range ins {
					f := in.Fields.Clone()
					f["id"] = len(recs) + i
					batch[i] = dataplane.Injection{Host: in.Host, Fields: f}
				}
				stamps, errs := e.InjectBatch(batch)
				for i := range batch {
					if errs != nil && errs[i] != nil {
						ierr = errs[i]
						return
					}
					recs = append(recs, injRecord{host: batch[i].Host, fields: batch[i].Fields, stamp: stamps[i]})
					res.Injected++
				}
				return
			}
			for _, in := range ins {
				f := in.Fields.Clone()
				f["id"] = len(recs)
				st, err := e.InjectStamped(in.Host, f)
				if err != nil {
					ierr = err
					return
				}
				recs = append(recs, injRecord{host: in.Host, fields: f, stamp: st})
				res.Injected++
			}
		})
		return ierr
	}
	one := func(host string, fields netkat.Packet) error {
		return injectBatch([]dataplane.Injection{{Host: host, Fields: fields}})
	}

	for _, op := range s.Ops {
		kind := op.Kind
		if sc.monitor == "" && (kind == OpFail || kind == OpRecover) {
			kind = OpBurst
		}
		if len(sc.progs) == 1 && kind == OpSwap {
			kind = OpBurst
		}
		var err error
		switch kind {
		case OpBurst, OpStep:
			k := arrivals.BatchSizes(1, sc.dist, sc.mean)[0]
			err = injectBatch(steer(sc, traffic.Injections(k)))
		case OpFail:
			res.Fails++
			err = one(sc.monitor, sc.failPkt.Clone())
		case OpRecover:
			res.Recovers++
			err = one(sc.monitor, sc.recoverPkt.Clone())
		case OpStorm:
			res.Storms++
			k := sc.mean + arrivals.BatchSizes(1, sc.dist, sc.mean)[0]
			ins := make([]dataplane.Injection, 0, k)
			for i := 0; i < k; i++ {
				h, f := sc.storm(i)
				ins = append(ins, dataplane.Injection{Host: h, Fields: f})
			}
			err = injectBatch(ins)
		case OpSwap:
			res.Swaps++
			// Keep traffic in flight across the flip, then swap through
			// the controller (compile + event mapping + staged drain).
			if err = injectBatch(steer(sc, traffic.Injections(sc.mean))); err != nil {
				break
			}
			next := (cur + 1) % len(sc.progs)
			if _, err = c.Swap(sc.progs[next].Name, sc.progs[next].Prog); err != nil {
				break
			}
			ctrlProgs = append(ctrlProgs, c.Current())
			cur = next
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: served %s seed %d: %w", s.Scenario, s.Seed, err)
		}
	}
	e.Quiesce()

	ds := e.CopyDeliveries(0)
	stateOf := func(epoch, version int) (stateful.Cmd, stateful.State, string, bool) {
		if epoch < 0 || epoch >= len(ctrlProgs) {
			return nil, nil, "", false
		}
		p := ctrlProgs[epoch]
		state, ok := p.StateOf(version)
		if !ok {
			return nil, nil, "", false
		}
		return p.Prog.Cmd, state, p.Name, true
	}
	res.Mixed, res.Dropped = audit(sc.tp, stateOf, recs, ds)
	res.Audited = len(ds)
	res.Hops = e.Snapshot().Processed
	res.Hash = deliveryHash(ds)
	o.record(res)
	return res, nil
}

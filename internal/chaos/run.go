package chaos

import (
	"fmt"
	"hash/fnv"

	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/nkc"
	"eventnet/internal/obs"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Options configure a chaos run.
type Options struct {
	Workers int
	// ChunkGens overrides the engine's generations-per-chunk cap (0 =
	// engine default). Chunking must be unobservable in the delivery
	// sequence; the torture tests randomize it per run.
	ChunkGens int
	// Obs, when non-nil, is threaded into the engine under test (the
	// audit must pass with full telemetry attached) and receives the
	// run's audit counters: CtrChaosRuns, CtrChaosAudited, CtrChaosMixed,
	// CtrChaosDropped.
	Obs *obs.Obs
}

// record folds a finished run's audit outcome into the metrics layer.
func (o Options) record(res *Result) {
	if o.Obs == nil || o.Obs.Metrics == nil {
		return
	}
	m := o.Obs.Metrics
	m.Inc(obs.CtrChaosRuns)
	m.Add(obs.CtrChaosAudited, int64(res.Audited))
	m.Add(obs.CtrChaosMixed, int64(res.Mixed))
	m.Add(obs.CtrChaosDropped, int64(res.Dropped))
}

// Result is the outcome of one chaos run. Mixed and Dropped are the two
// halves of the audit invariant: Mixed counts deliveries that contradict
// their injection's stamp or its stamped program's netkat.Eval
// prediction; Dropped counts Eval-predicted deliveries that never
// arrived. Both must be zero — failures here are program events, so the
// engine has no legitimate reason to lose a packet.
type Result struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Ops      int    `json:"ops"`
	Injected int    `json:"injected"`
	Audited  int    `json:"audited"` // deliveries checked against Eval
	Fails    int    `json:"fails"`
	Recovers int    `json:"recovers"`
	Storms   int    `json:"storms"`
	Swaps    int    `json:"swaps"`
	Mixed    int    `json:"mixed"`
	Dropped  int    `json:"dropped"`
	Hops     int64  `json:"hops"`
	// Hash fingerprints the exact delivery sequence (host, fields, stamp,
	// in order); bit-identical runs have equal hashes.
	Hash uint64 `json:"hash"`
}

// Violations is the total audit failure count.
func (r *Result) Violations() int { return r.Mixed + r.Dropped }

// epoch is the audit view of one program generation: the name that
// keys the prediction memo, the command Eval projects, and the ETS whose
// vertices the stamps' configuration tags index.
type epoch struct {
	name string
	cmd  stateful.Cmd
	et   *ets.ETS
}

// prog is one compiled program of a scenario rotation.
type prog struct {
	epoch
	n    *nes.NES
	plan *dataplane.Plan // n lowered once, for every swap to it in every run
}

// injRecord is one injection's audit record.
type injRecord struct {
	host   string
	fields netkat.Packet
	stamp  dataplane.Stamp
}

// compileScenario compiles the rotation as a controller would: through
// one cross-generation cache, sharing the tables of switches that agree.
func compileScenario(sc *scenario) ([]prog, error) {
	out := make([]prog, 0, len(sc.progs))
	cache := nkc.NewProgramCache()
	for _, a := range sc.progs {
		et, n, _, err := ets.Compile(a.Prog, a.Topo, cache, 0)
		if err != nil {
			return nil, fmt.Errorf("chaos: compile %s: %w", a.Name, err)
		}
		out = append(out, prog{epoch: epoch{a.Name, a.Prog.Cmd, et}, n: n, plan: dataplane.PlanFor(n)})
	}
	return out, nil
}

// Run replays a schedule on a synchronous engine and audits every
// delivery. The run is fully deterministic: equal (schedule, options)
// produce equal Results, and the delivery Hash is identical at any
// worker count.
func Run(s Schedule, o Options) (*Result, error) {
	sc, err := buildScenario(s.Scenario)
	if err != nil {
		return nil, err
	}
	progs, err := compileScenario(sc)
	if err != nil {
		return nil, err
	}
	return runOn(sc, progs, s, o)
}

// runOn is Run over an already compiled rotation: the player drives the
// engine itself, stepping and draining after every op.
func runOn(sc *scenario, progs []prog, s Schedule, o Options) (*Result, error) {
	workers := max(o.Workers, 1)
	e := dataplane.NewEngine(progs[0].n, sc.tp, dataplane.Options{Workers: workers, ChunkGens: o.ChunkGens, Obs: o.Obs})
	return play(sc, s, o, workers, driver{
		e: e, nes: progs[0].n, first: progs[0].epoch,
		advance: func(n int) error {
			e.Step(n)
			return e.Run()
		},
		swap: func(from, to int) (epoch, error) {
			// One generation into its journey, the swap's burst is in
			// flight when the flip lands.
			e.Step(1)
			mapping, _ := ctrl.EventMapping(progs[from].n, progs[to].n)
			_, err := e.StageSwap(dataplane.SwapSpec{Plan: progs[to].plan, MapEvent: mapping})
			return progs[to].epoch, err
		},
	})
}

// driver is what a synchronous and a served run do differently: who
// advances the engine, and how a swap reaches it.
type driver struct {
	e     *dataplane.Engine
	nes   *nes.NES // the initial program, which the traffic is drawn against
	first epoch    // the initial program's audit view
	// advance runs n generations and then drains; nil when a supervisor
	// goroutine advances the engine.
	advance func(n int) error
	// swap hot-swaps rotation entry from to entry to and returns the new
	// generation's audit view.
	swap func(from, to int) (epoch, error)
}

// play replays a schedule through a driver and audits every delivery.
// Injections run inside e.Do, so the stamps are recorded serially with
// the engine's own bookkeeping in either mode.
func play(sc *scenario, s Schedule, o Options, workers int, d driver) (*Result, error) {
	e := d.e
	// Two independent traffic streams derived from the schedule seed: one
	// for injection contents, one for arrival (batch-size) draws. The
	// derivation rule (dataplane.LoadGen.Derive) guarantees neighboring
	// seeds cannot alias.
	lg := dataplane.NewLoadGen(d.nes, sc.tp, s.Seed)
	traffic, arrivals := lg.Derive(1), lg.Derive(2)

	res := &Result{Scenario: s.Scenario, Seed: s.Seed, Workers: workers, Ops: len(s.Ops)}
	var recs []injRecord
	epochs := []epoch{d.first}
	cur := 0

	// inject admits a burst through InjectBatch and records each
	// packet's stamp.
	inject := func(ins ...dataplane.Injection) error {
		var err error
		e.Do(func() {
			for i := range ins {
				ins[i].Fields["id"] = len(recs) + i
			}
			stamps, errs := e.InjectBatch(ins)
			for i, in := range ins {
				if errs != nil && errs[i] != nil {
					err = errs[i]
					return
				}
				recs = append(recs, injRecord{host: in.Host, fields: in.Fields, stamp: stamps[i]})
			}
		})
		return err
	}
	burst := func() error {
		k := arrivals.BatchSizes(1, sc.dist, sc.mean)[0]
		return inject(steer(sc, traffic.Injections(k))...)
	}

	for _, op := range s.Ops {
		kind := op.Kind
		// Ops a scenario cannot express degrade to plain bursts so any
		// schedule replays on any scenario.
		if (sc.monitor == "" && (kind == OpFail || kind == OpRecover)) || (len(sc.progs) == 1 && kind == OpSwap) {
			kind = OpBurst
		}
		var err error
		gens := 0
		switch kind {
		case OpBurst:
			err = burst()
		case OpFail:
			res.Fails++
			err = inject(dataplane.Injection{Host: sc.monitor, Fields: sc.failPkt.Clone()})
		case OpRecover:
			res.Recovers++
			err = inject(dataplane.Injection{Host: sc.monitor, Fields: sc.recoverPkt.Clone()})
		case OpStorm:
			res.Storms++
			ins := make([]dataplane.Injection, sc.mean+arrivals.BatchSizes(1, sc.dist, sc.mean)[0])
			for i := range ins {
				ins[i].Host, ins[i].Fields = sc.storm(i)
			}
			err = inject(ins...)
		case OpSwap:
			res.Swaps++
			// A fresh burst keeps old-epoch packets in flight across the
			// flip.
			if err = burst(); err != nil {
				break
			}
			next := (cur + 1) % len(sc.progs)
			var ep epoch
			if ep, err = d.swap(cur, next); err == nil {
				epochs = append(epochs, ep)
				cur = next
			}
		case OpStep:
			err = burst()
			gens = op.N
		}
		if err == nil && d.advance != nil {
			err = d.advance(gens)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %s seed %d: %w", s.Scenario, s.Seed, err)
		}
	}
	e.Quiesce()

	ds := e.CopyDeliveries(0)
	res.Mixed, res.Dropped = audit(sc.tp, epochs, recs, ds)
	res.Injected = len(recs)
	res.Audited = len(ds)
	res.Hops = e.Snapshot().Processed
	res.Hash = deliveryHash(ds)
	o.record(res)
	return res, nil
}

// steer rewrites three of every four LoadGen draws onto the scenario's
// routable data pair (alternating direction), keeping every fourth draw
// as uniform cross-host noise. LoadGen samples all host pairs uniformly,
// which on a sparse failover program is mostly unroutable — routable
// traffic must dominate for the audit to see real deliveries, but the
// noise share keeps the predicted-drop paths exercised too.
func steer(sc *scenario, ins []dataplane.Injection) []dataplane.Injection {
	if sc.srcHost == "" {
		return ins
	}
	src, _ := sc.tp.HostByName(sc.srcHost)
	dst, _ := sc.tp.HostByName(sc.dstHost)
	for i := range ins {
		switch i % 4 {
		case 3: // noise
		case 1:
			ins[i].Host = sc.dstHost
			ins[i].Fields["dst"], ins[i].Fields["src"] = src.ID, dst.ID
		default:
			ins[i].Host = sc.srcHost
			ins[i].Fields["dst"], ins[i].Fields["src"] = dst.ID, src.ID
		}
	}
	return ins
}

// deliveryHash fingerprints the exact delivery sequence.
func deliveryHash(ds []dataplane.Delivery) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		fmt.Fprintf(h, "%s|%s|%d.%d;", d.Host, d.Fields.Key(), d.Stamp.Epoch, d.Stamp.Version)
	}
	return h.Sum64()
}

// audit is the differential check: every delivery must carry its
// injection's stamp, and every injection's delivery set must equal
// exactly what netkat.Eval predicts for the stamped program generation
// and configuration, over arbitrary program rotations.
func audit(tp *topo.Topology, epochs []epoch, recs []injRecord, ds []dataplane.Delivery) (mixed, dropped int) {
	byID := map[int][]dataplane.Delivery{}
	for _, d := range ds {
		id, ok := d.Fields["id"]
		if !ok {
			mixed++
			continue
		}
		byID[id] = append(byID[id], d)
	}
	// The id field rides through every rewrite untouched, so predictions
	// are memoized with id stripped: one Eval per distinct (program,
	// version, host, header fields).
	memo := map[string]map[string]bool{}
	for i, r := range recs {
		ep, v := r.stamp.Epoch, r.stamp.Version
		if ep < 0 || ep >= len(epochs) || v < 0 || v >= len(epochs[ep].et.Vertices) {
			mixed++
			continue
		}
		p := epochs[ep]
		base := r.fields.Clone()
		delete(base, "id")
		mk := fmt.Sprintf("%s|%d|%s|%s", p.name, v, r.host, base.Key())
		want, hit := memo[mk]
		if !hit {
			want = evalPredict(tp, p.cmd, p.et.Vertices[v].State, r.host, base)
			memo[mk] = want
		}
		got := map[string]bool{}
		for _, d := range byID[i] {
			if d.Stamp != r.stamp {
				mixed++
				continue
			}
			df := d.Fields.Clone()
			delete(df, "id")
			key := d.Host + "|" + df.Key()
			if !want[key] || got[key] {
				mixed++
				continue
			}
			got[key] = true
		}
		dropped += len(want) - len(got)
	}
	return mixed, dropped
}

// evalPredict is the reference prediction for one injection under its
// stamped configuration.
func evalPredict(tp *topo.Topology, cmd stateful.Cmd, state stateful.State, host string, fields netkat.Packet) map[string]bool {
	pol := stateful.Project(cmd, state)
	h, _ := tp.HostByName(host)
	out := map[string]bool{}
	for _, lp := range netkat.Eval(pol, netkat.LocatedPacket{Pkt: fields, Loc: h.Attach}) {
		if _, hh, _ := tp.Across(lp.Loc); hh != nil {
			out[hh.Name+"|"+lp.Pkt.Key()] = true
		}
	}
	return out
}

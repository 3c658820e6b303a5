package chaos

import (
	"fmt"
	"hash/fnv"

	"eventnet/internal/apps"
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
	// Batched drives every burst and storm through InjectBatch instead
	// of per-packet InjectStamped. The delivery sequence must be
	// bit-identical either way — the ingress-equivalence axis of the
	// determinism matrix.
	Batched bool
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

// prog is one compiled program of a scenario rotation.
type prog struct {
	app  apps.App
	et   *ets.ETS
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
		et, _, err := ets.BuildWithOptions(a.Prog, a.Topo, ets.Options{Cache: cache})
		if err != nil {
			return nil, fmt.Errorf("chaos: compile %s: %w", a.Name, err)
		}
		n, err := et.ToNES()
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", a.Name, err)
		}
		out = append(out, prog{app: a, et: et, n: n, plan: dataplane.PlanFor(n)})
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

// runOn is Run over an already compiled rotation.
func runOn(sc *scenario, progs []prog, s Schedule, o Options) (*Result, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = 1
	}
	e := dataplane.NewEngine(progs[0].n, sc.tp, dataplane.Options{Workers: workers, ChunkGens: o.ChunkGens, Obs: o.Obs})

	// Two independent traffic streams derived from the schedule seed: one
	// for injection contents, one for arrival (batch-size) draws. The
	// derivation rule (dataplane.LoadGen.Derive) guarantees neighboring
	// seeds cannot alias.
	lg := dataplane.NewLoadGen(progs[0].n, sc.tp, s.Seed)
	traffic, arrivals := lg.Derive(1), lg.Derive(2)

	res := &Result{Scenario: s.Scenario, Seed: s.Seed, Workers: workers, Ops: len(s.Ops)}
	var recs []injRecord
	epochProg := []int{0} // epoch -> index into progs
	cur := 0

	inject := func(host string, fields netkat.Packet) error {
		fields["id"] = len(recs)
		st, err := e.InjectStamped(host, fields)
		if err != nil {
			return err
		}
		recs = append(recs, injRecord{host: host, fields: fields, stamp: st})
		res.Injected++
		return nil
	}
	// injectAll admits a pre-built batch either per-packet or through the
	// batched ingress, per Options.Batched; both paths must be
	// delivery-equivalent.
	injectAll := func(ins []dataplane.Injection) error {
		if !o.Batched {
			for _, in := range ins {
				if err := inject(in.Host, in.Fields); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range ins {
			ins[i].Fields["id"] = len(recs) + i
		}
		stamps, errs := e.InjectBatch(ins)
		for i := range ins {
			if errs != nil && errs[i] != nil {
				return errs[i]
			}
			recs = append(recs, injRecord{host: ins[i].Host, fields: ins[i].Fields, stamp: stamps[i]})
			res.Injected++
		}
		return nil
	}
	burst := func() error {
		k := arrivals.BatchSizes(1, sc.dist, sc.mean)[0]
		return injectAll(steer(sc, traffic.Injections(k)))
	}
	drain := func() error { return e.Run() }

	for _, op := range s.Ops {
		kind := op.Kind
		// Ops a scenario cannot express degrade to plain bursts so any
		// schedule replays on any scenario.
		if sc.monitor == "" && (kind == OpFail || kind == OpRecover) {
			kind = OpBurst
		}
		if len(progs) == 1 && kind == OpSwap {
			kind = OpBurst
		}
		var err error
		switch kind {
		case OpBurst:
			if err = burst(); err == nil {
				err = drain()
			}
		case OpFail:
			res.Fails++
			if err = inject(sc.monitor, sc.failPkt.Clone()); err == nil {
				err = drain()
			}
		case OpRecover:
			res.Recovers++
			if err = inject(sc.monitor, sc.recoverPkt.Clone()); err == nil {
				err = drain()
			}
		case OpStorm:
			res.Storms++
			k := sc.mean + arrivals.BatchSizes(1, sc.dist, sc.mean)[0]
			ins := make([]dataplane.Injection, k)
			for i := range ins {
				h, f := sc.storm(i)
				ins[i] = dataplane.Injection{Host: h, Fields: f}
			}
			if err = injectAll(ins); err == nil {
				err = drain()
			}
		case OpSwap:
			res.Swaps++
			// A fresh batch one generation into its journey guarantees
			// the flip lands with old-epoch packets in flight.
			if err = burst(); err != nil {
				break
			}
			e.Step(1)
			next := (cur + 1) % len(progs)
			mapping, _ := ctrl.EventMapping(progs[cur].n, progs[next].n)
			if _, err = e.StageSwap(dataplane.SwapSpec{Plan: progs[next].plan, MapEvent: mapping}); err != nil {
				break
			}
			epochProg = append(epochProg, next)
			cur = next
			err = drain()
		case OpStep:
			if err = burst(); err != nil {
				break
			}
			e.Step(op.N)
			err = drain()
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %s seed %d: %w", s.Scenario, s.Seed, err)
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}

	ds := e.Deliveries()
	stateOf := func(epoch, version int) (stateful.Cmd, stateful.State, string, bool) {
		if epoch < 0 || epoch >= len(epochProg) {
			return nil, nil, "", false
		}
		p := progs[epochProg[epoch]]
		if version < 0 || version >= len(p.et.Vertices) {
			return nil, nil, "", false
		}
		return p.app.Prog.Cmd, p.et.Vertices[version].State, p.app.Name, true
	}
	res.Mixed, res.Dropped = audit(sc.tp, stateOf, recs, ds)
	res.Audited = len(ds)
	res.Hops = e.Processed()
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
func audit(tp *topo.Topology, stateOf func(epoch, version int) (stateful.Cmd, stateful.State, string, bool),
	recs []injRecord, ds []dataplane.Delivery) (mixed, dropped int) {
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
		cmd, state, progKey, ok := stateOf(r.stamp.Epoch, r.stamp.Version)
		if !ok {
			mixed++
			continue
		}
		base := r.fields.Clone()
		delete(base, "id")
		mk := fmt.Sprintf("%s|%d|%s|%s", progKey, r.stamp.Version, r.host, base.Key())
		want, hit := memo[mk]
		if !hit {
			want = evalPredict(tp, cmd, state, r.host, base)
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

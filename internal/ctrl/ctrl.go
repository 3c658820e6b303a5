// Package ctrl is the live-update controller: it owns a running
// dataplane.Engine and replaces its Stateful NetKAT program at runtime
// with per-packet consistency — the Reitblatt-style two-phase update
// discipline the paper's version tags already encode, extended across
// *programs* with Section 4's tag/digest semantics.
//
// A swap of the running program P for an incoming P' proceeds as:
//
//  1. compile P' through the incremental pipeline, reusing FDDs,
//     segments, walks and tables across swap generations
//     (nkc.ProgramCache), so revisions compile as deltas;
//  2. account for P' tables behind fresh version guards (the
//     dataplane.MergedPair staged shape — phase one, invisible to
//     in-flight traffic) and lower P' into its forwarding plan;
//  3. at a generation barrier, atomically flip ingress tagging to P'
//     and map each switch's established event knowledge into P' by
//     canonical event-history replay (nes.Replay);
//  4. drain: in-flight P-tagged packets finish their journeys under P
//     rules exclusively, while detections they still make are carried
//     into P' views through the event mapping;
//  5. once nothing P-tagged remains, retire P: the engine keeps nothing
//     of it, and its lowered plan lives on only with its memoized
//     generation, for a swap back.
//
// Forwarding never pauses, and no packet journey ever mixes P and P'
// rules. See docs/CONTROLLER.md for the state-mapping rule and why the
// discipline preserves the paper's Theorem 1 per program generation.
package ctrl

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/nes"
	"eventnet/internal/nkc"
	"eventnet/internal/obs"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Options configure a Controller.
type Options struct {
	// Workers is the engine's forwarding workers. Defaults to 1.
	Workers int
	// DeliveryLog bounds the engine's retained delivery log (0 =
	// unlimited; long-running daemons must set it — see
	// dataplane.Options.DeliveryLog).
	DeliveryLog int
	// ChunkGens caps the engine's generations per chunk between
	// boundaries (0 = engine default; see dataplane.Options.ChunkGens).
	// Swap-drain accounting is exact regardless: flips land at chunk
	// edges and retirement is decided inside the chunk, at the
	// generation that drained the last old-epoch packet.
	ChunkGens int
	// Obs, when non-nil, is threaded into the engine and also fed by the
	// controller itself: compile timings and cache hit rates on fresh
	// builds, swap "stage" phase events on the bus, program-count and
	// store-size gauges. See docs/OBSERVABILITY.md.
	Obs *obs.Obs
	// OnWedgeDump, when set alongside Obs.Flight, receives the flight
	// dump taken automatically the first time Health observes a wedged
	// swap (draining past the 30 s swap timeout). Called from its own
	// goroutine, once per wedge.
	OnWedgeDump func(*obs.FlightDump)
}

// Program is one compiled program generation.
type Program struct {
	Name    string
	Prog    stateful.Program
	ETS     *ets.ETS
	NES     *nes.NES
	Stats   ets.Stats
	Compile time.Duration

	key    string   // progKey(Prog), rendered once when the generation is memoized
	fields []string // dataplane.ProgramFields(NES), scanned once
	// plan is NES lowered, set by the first Swap to this generation and
	// read only under swapMu: a swap back to it lowers nothing.
	plan *dataplane.Plan
}

// StateOf returns the state vector behind a configuration tag (tags are
// ETS vertex IDs), for mapping a delivery stamp back to a projected
// policy.
func (p *Program) StateOf(version int) (stateful.State, bool) {
	if version < 0 || version >= len(p.ETS.Vertices) {
		return nil, false
	}
	return p.ETS.Vertices[version].State, true
}

// SwapReport describes one completed swap.
type SwapReport struct {
	From      string  `json:"from"`
	To        string  `json:"to"`
	CompileMS float64 `json:"compile_ms"`
	// States/Events/Rules describe the incoming program.
	States int `json:"states"`
	Events int `json:"events"`
	Rules  int `json:"rules"`
	// StagedRules is the size of the phase-one staged install: both
	// programs' rules behind disjoint version guards (MergedPair), the
	// physical table a deployment would hold during the transition, and
	// TagOffset the incoming program's tag displacement in it. Both are
	// arithmetic (Σ rules, |P|): re-guarding adds and drops no rule.
	StagedRules int `json:"staged_rules"`
	TagOffset   int `json:"tag_offset"`
	// MappedEvents counts old events with a counterpart in the new
	// program; CarriedEvents is the knowledge actually admitted into the
	// new views at the flip barrier (summed over switches).
	MappedEvents  int `json:"mapped_events"`
	CarriedEvents int `json:"carried_events"`
	// LatencyMS is stage-to-retire wall time; TransitionMS the flip-to-
	// retire drain window; the hop counts cover that window.
	LatencyMS      float64 `json:"latency_ms"`
	TransitionMS   float64 `json:"transition_ms"`
	FlipGen        int64   `json:"flip_gen"`
	RetireGen      int64   `json:"retire_gen"`
	TransitionHops int64   `json:"transition_hops"`
	DrainedHops    int64   `json:"drained_hops"`
}

// Status is the controller's monitoring view.
type Status struct {
	Program  string             `json:"program"`
	Epoch    int                `json:"epoch"`
	Swapping bool               `json:"swapping"`
	Swaps    []SwapReport       `json:"swaps,omitempty"` // the newest SwapHistory, oldest first
	Engine   dataplane.Snapshot `json:"engine"`
}

// Controller owns a served dataplane engine and hot-swaps its program.
// All methods are safe for concurrent use; swaps are serialized.
type Controller struct {
	mu     sync.Mutex // guards cur, swaps, progs, eng
	swapMu sync.Mutex // serializes Swap end to end (compile -> retire)
	topo   *topo.Topology
	opts   Options
	cache  *nkc.ProgramCache
	eng    *dataplane.Engine
	cur    *Program
	swaps  []SwapReport
	close  sync.Once

	// progs memoizes compiled program generations by canonical program
	// text, most-recently-used last: the one whole-program memo, since
	// the compiler cache keeps only structural ones. Swapping back to a
	// recent program is then allocation-free: the same *Program returns,
	// lowered plan and all — on a busy controller the A<->B ping-pong
	// costs no compile work and no GC debt at all. A generation that
	// falls out of this window is garbage once the engine has retired it.
	progs []*Program

	// swapStart is the wall time of the in-flight swap's StageSwap call,
	// zero when none is draining. Health uses it to distinguish a healthy
	// drain from a wedged one without an engine round trip. wedgeDumped
	// marks that the current wedge's automatic flight dump has been
	// taken; it resets whenever swapStart clears.
	swapStart   time.Time
	wedgeDumped bool
	// swapTimeout bounds how long Swap waits for the old program to
	// drain before it reports the swap wedged: 30 s, which only ctrl's
	// own tests shorten.
	swapTimeout time.Duration
}

// progMemoLimit bounds the retained program generations.
const progMemoLimit = 8

// SwapHistory bounds Status's swap reports: the controller keeps the
// newest SwapHistory, so a long-running daemon's memory and /status body
// stay constant however many swaps it serves.
const SwapHistory = 64

// New builds a controller for a topology. Load a first program before
// injecting traffic.
func New(t *topo.Topology, o Options) *Controller {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return &Controller{topo: t, opts: o, cache: nkc.NewProgramCache(), swapTimeout: 30 * time.Second}
}

// progKey is a program's memo identity: its canonical rendering plus the
// initial state (the topology is fixed per controller).
func progKey(p stateful.Program) string {
	return p.Init.Key() + "|" + p.Cmd.String()
}

// Compile runs a program through the incremental pipeline, sharing the
// controller's cross-generation compiler cache, and memoizes whole
// generations: recompiling an unchanged program returns the same
// *Program — same NES identity, same plan once a Swap has lowered it.
// Hit or miss, a program whose header fields do not fit one schema
// beside the running program's is refused.
func (c *Controller) Compile(name string, p stateful.Program) (*Program, error) {
	key := progKey(p)
	c.mu.Lock()
	running := c.cur
	g := c.memoized(key)
	c.mu.Unlock()
	if g != nil {
		if err := fitsBeside(name, g.fields, running); err != nil {
			return nil, err
		}
		return g, nil
	}

	start := time.Now()
	e, n, stats, err := ets.Compile(p, c.topo, c.cache, 0)
	if err != nil {
		return nil, fmt.Errorf("ctrl: compiling %s: %w", name, err)
	}
	fields := dataplane.ProgramFields(n)
	if err := fitsBeside(name, fields, running); err != nil {
		return nil, err
	}
	g = &Program{Name: name, Prog: p, ETS: e, NES: n, Stats: stats, Compile: time.Since(start), key: key, fields: fields}
	if m := c.metrics(); m != nil {
		// Memo hits above return before this point, so these record fresh
		// builds only. Every build has a compiler of its own, so the
		// stats.Cache hit/miss counters are this build's lookups;
		// Strands/FDDNodes are absolute store sizes.
		m.Inc(obs.CtrCompiles)
		m.Observe(obs.HistCompileNs, g.Compile.Nanoseconds())
		m.Add(obs.CtrCompileTableHits, stats.Cache.TableHits)
		m.Add(obs.CtrCompileTableMisses, stats.Cache.TableMisses)
		m.Add(obs.CtrCompileSegHits, stats.Cache.SegmentHits)
		m.Add(obs.CtrCompileSegMisses, stats.Cache.SegmentMisses)
		m.Add(obs.CtrCompileTemplateHits, stats.Cache.TemplateHits)
		m.Add(obs.CtrCompileTemplateMisses, stats.Cache.TemplateMisses)
		m.SetGauge(obs.GaugeCompileCacheResets, int64(c.cache.Resets()))
		m.SetGauge(obs.GaugeFDDNodes, stats.Cache.FDDNodes)
		m.SetGauge(obs.GaugeStrands, stats.Cache.Strands)
		m.SetGauge(obs.GaugeInternEntries, stats.Cache.InternEntries)
		m.SetGauge(obs.GaugeArenaBytes, stats.Cache.ArenaBytes)
		hw := c.cache.ArenaHighWater() // cross-generation, survives cache resets
		if stats.Cache.ArenaHighWater > hw {
			hw = stats.Cache.ArenaHighWater
		}
		m.SetGauge(obs.GaugeArenaHighWater, hw)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent Compile of the same program may have memoized its
	// build meanwhile: return that one, so equal programs share one
	// *Program and one slot.
	if first := c.memoized(key); first != nil {
		return first, nil
	}
	c.progs = append(c.progs, g)
	if len(c.progs) > progMemoLimit {
		c.progs = slices.Delete(c.progs, 0, 1) // clears the vacated slot
	}
	return g, nil
}

// memoized returns the generation memoized under key, refreshing its LRU
// position, or nil. Callers hold c.mu.
func (c *Controller) memoized(key string) *Program {
	for i, g := range c.progs {
		if g.key == key {
			c.progs = append(append(c.progs[:i:i], c.progs[i+1:]...), g)
			return g
		}
	}
	return nil
}

// fitsBeside refuses a program whose header fields, together with the
// running program's, exceed one schema: a swap installs the two side by
// side, under one schema (dataplane.MergedPair).
func fitsBeside(name string, fields []string, running *Program) error {
	if running != nil {
		fields = append(fields[:len(fields):len(fields)], running.fields...)
	}
	if err := dataplane.CheckFields(fields); err != nil {
		return fmt.Errorf("ctrl: compiling %s: %w", name, err)
	}
	return nil
}

// Load compiles and installs the first program and starts the engine in
// served mode. It can be called once.
func (c *Controller) Load(name string, p stateful.Program) error {
	np, err := c.Compile(name, p)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng != nil {
		return fmt.Errorf("ctrl: a program is already loaded; use Swap")
	}
	c.cur = np
	c.eng = dataplane.NewEngine(np.NES, c.topo, dataplane.Options{
		Workers:     c.opts.Workers,
		DeliveryLog: c.opts.DeliveryLog,
		ChunkGens:   c.opts.ChunkGens,
		Obs:         c.opts.Obs,
	})
	c.eng.Start()
	return nil
}

// EventMapping matches the events of two programs by identity — guard
// and location (the label the ETS rendered once per template) and
// occurrence number — returning old-ID -> new-ID (-1 for
// no counterpart) and the number of mapped events. This is the canonical
// correspondence behind the swap's state mapping: an old event and its
// counterpart denote the *same observable packet arrival*, so knowledge
// of one is knowledge of the other.
func EventMapping(old, new_ *nes.NES) ([]int, int) {
	idx := make(map[eventKey]int, len(new_.Events))
	for _, ev := range new_.Events {
		idx[keyOf(ev)] = ev.ID
	}
	size := 0
	for _, ev := range old.Events {
		if ev.ID+1 > size {
			size = ev.ID + 1
		}
	}
	m := make([]int, size)
	for i := range m {
		m[i] = -1
	}
	mapped := 0
	for _, ev := range old.Events {
		if id, ok := idx[keyOf(ev)]; ok {
			m[ev.ID] = id
			mapped++
		}
	}
	return m, mapped
}

// eventKey is an event's swap-stable identity.
type eventKey struct {
	label string
	occ   int
}

func keyOf(ev nes.Event) eventKey {
	if ev.Label == "" { // built by hand, not by ets
		ev.Label = ev.Guard.Key() + "@" + ev.Loc.String()
	}
	return eventKey{label: ev.Label, occ: ev.Occurrence}
}

// Swap hot-swaps the running program: compile, stage, flip at a barrier,
// drain, retire. It blocks until the old program has fully drained (or
// the swap timeout passes) and returns the completed swap's report.
// Forwarding continues throughout. Swaps are fully serialized — a
// concurrent Swap waits rather than computing its event mapping against
// a predecessor that is about to change. A swap whose drain outlasted
// the timeout is still in flight: until it drains, Swap is refused
// before anything is staged, and Health goes on reporting it.
func (c *Controller) Swap(name string, p stateful.Program) (SwapReport, error) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()

	np, err := c.Compile(name, p)
	if err != nil {
		return SwapReport{}, err
	}

	c.mu.Lock()
	old, eng, draining := c.cur, c.eng, !c.swapStart.IsZero()
	c.mu.Unlock()
	if eng == nil {
		return SwapReport{}, fmt.Errorf("ctrl: no program loaded")
	}
	if draining {
		return SwapReport{}, fmt.Errorf("ctrl: swap %s -> %s refused: the swap to %s is still draining", old.Name, name, old.Name)
	}

	// Phase one: the staged install — both programs' rules behind
	// disjoint exact version guards. The engine forwards through the
	// equivalent per-epoch compiled plans (the merged-table equivalence
	// is property-tested in internal/dataplane); the merged
	// shape (dataplane.MergedPair) is what a switch deployment would
	// install, and the controller only accounts for it: its size, the
	// transition's rule-memory cost, is the two programs' rule counts
	// summed, and the new program's tags start past the old one's. The
	// new plan is lowered *before* the flip and handed over whole, so the
	// barrier — every worker parked — installs and never compiles. The
	// generation keeps it, so a swap back is free.
	if np.plan == nil {
		np.plan = dataplane.PlanFor(np.NES)
	}

	mapping, mapped := EventMapping(old.NES, np.NES)
	if b := c.bus(); b.Active() {
		b.Publish(obs.Event{
			Kind: obs.KindSwap, Phase: "stage",
			Note:      old.Name + " -> " + name,
			CompileMS: float64(np.Compile.Microseconds()) / 1000,
		})
	}
	if f := c.flight(); f != nil {
		// Gen -1: the controller has no engine generation in hand; the
		// serial ring backfills the newest it has seen.
		f.Serial(obs.FlightRec{Kind: obs.FlightSwap, Phase: "stage", Gen: -1})
	}
	c.mu.Lock()
	c.swapStart = time.Now()
	c.mu.Unlock()
	sw, err := eng.StageSwap(dataplane.SwapSpec{Plan: np.plan, MapEvent: mapping})
	if err != nil {
		c.swapEnded()
		return SwapReport{}, err
	}
	// The flip has happened: the engine's ingress program *is* np from
	// here on, so reconcile cur immediately — even if the drain outlasts
	// the timeout below, Status and the next swap's event mapping must
	// describe the program actually running.
	c.mu.Lock()
	c.cur = np
	c.mu.Unlock()
	select {
	case <-sw.Done():
		c.swapEnded()
	case <-time.After(c.swapTimeout):
		// Leave swapStart set — Health reports the wedge — but clear it if
		// the drain does eventually finish.
		go func() {
			<-sw.Done()
			c.swapEnded()
		}()
		return SwapReport{}, fmt.Errorf("ctrl: swap %s -> %s flipped but did not drain within %v", old.Name, name, c.swapTimeout)
	}
	st := sw.Stats()

	// Phase two complete. The retired generation stays memoized, plan
	// and all, for a swap back until it falls out of the memo window, so
	// the A<->B ping-pong of a busy controller never recompiles anything.
	c.mu.Lock()
	defer c.mu.Unlock()

	rules := np.NES.TotalRules()
	rep := SwapReport{
		From:           old.Name,
		To:             name,
		CompileMS:      float64(np.Compile.Microseconds()) / 1000,
		States:         len(np.NES.Configs),
		Events:         len(np.NES.Events),
		Rules:          rules,
		StagedRules:    old.NES.TotalRules() + rules,
		TagOffset:      len(old.NES.Configs),
		MappedEvents:   mapped,
		CarriedEvents:  st.CarriedEvents,
		LatencyMS:      float64(st.RetiredAt.Sub(st.StagedAt).Microseconds()) / 1000,
		TransitionMS:   float64(st.RetiredAt.Sub(st.FlipAt).Microseconds()) / 1000,
		FlipGen:        st.FlipGen,
		RetireGen:      st.RetireGen,
		TransitionHops: st.TransitionHops,
		DrainedHops:    st.DrainedHops,
	}
	if len(c.swaps) == SwapHistory {
		c.swaps = slices.Delete(c.swaps, 0, 1)
	}
	c.swaps = append(c.swaps, rep)
	return rep, nil
}

// Status returns the controller's monitoring view.
func (c *Controller) Status() Status {
	c.mu.Lock()
	name := ""
	if c.cur != nil {
		name = c.cur.Name
	}
	swaps := append([]SwapReport{}, c.swaps...)
	eng := c.eng
	c.mu.Unlock()
	s := Status{Program: name, Swaps: swaps}
	if eng != nil {
		s.Engine = eng.Snapshot()
		s.Epoch = s.Engine.Epoch
		s.Swapping = s.Engine.Swapping
	}
	return s
}

// Current returns the running program (nil before Load).
func (c *Controller) Current() *Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Engine returns the running engine (nil before Load). It outlives
// every swap: ingress, Quiesce and delivery reads go to it directly.
func (c *Controller) Engine() *dataplane.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng
}

// Topology returns the controller's topology.
func (c *Controller) Topology() *topo.Topology { return c.topo }

func (c *Controller) metrics() *obs.Metrics {
	if c.opts.Obs == nil {
		return nil
	}
	return c.opts.Obs.Metrics
}

// bus returns the controller's event bus, possibly nil (Bus.Publish and
// Bus.Active are nil-safe).
func (c *Controller) bus() *obs.Bus {
	if c.opts.Obs == nil {
		return nil
	}
	return c.opts.Obs.Bus
}

// flight returns the controller's flight recorder, possibly nil.
func (c *Controller) flight() *obs.Flight {
	if c.opts.Obs == nil {
		return nil
	}
	return c.opts.Obs.Flight
}

// watchdog returns the controller's watchdog, possibly nil.
func (c *Controller) watchdog() *obs.Watchdog {
	if c.opts.Obs == nil {
		return nil
	}
	return c.opts.Obs.Watch
}

// Alerts returns the watchdog's currently-firing alerts (nil without a
// watchdog).
func (c *Controller) Alerts() []obs.Alert {
	w := c.watchdog()
	if w == nil {
		return nil
	}
	return w.Active()
}

// FlightDump dumps the flight recorder: through the engine, which feeds
// it the workers' logs at a barrier first, when there is one, and
// directly otherwise. Nil without a recorder.
func (c *Controller) FlightDump() *obs.FlightDump {
	f := c.flight()
	if f == nil {
		return nil
	}
	if eng := c.Engine(); eng != nil {
		return eng.FlightDump()
	}
	return f.Dump()
}

// Health reports liveness without an engine barrier round trip, so it
// stays truthful even when the engine is wedged: ok is false with a
// reason when no program is loaded, the engine has stopped serving, or
// an in-flight swap has been draining longer than the swap timeout.
func (c *Controller) Health() (bool, string) {
	c.mu.Lock()
	eng := c.eng
	swapStart := c.swapStart
	c.mu.Unlock()
	switch {
	case eng == nil:
		return false, "no program loaded"
	case !eng.Serving():
		return false, "engine stopped"
	case !swapStart.IsZero() && time.Since(swapStart) > c.swapTimeout:
		c.wedgeDump()
		return false, fmt.Sprintf("swap draining for %s (timeout %s)", time.Since(swapStart).Round(time.Millisecond), c.swapTimeout)
	}
	return true, "ok"
}

// swapEnded records that no swap is draining any more.
func (c *Controller) swapEnded() {
	c.mu.Lock()
	c.swapStart = time.Time{}
	c.wedgeDumped = false
	c.mu.Unlock()
}

// wedgeDump takes the wedged swap's automatic flight dump: once per
// wedge, from its own goroutine (the dump crosses an engine barrier;
// Health must stay a non-blocking probe). The dump goes to the
// OnWedgeDump hook when one is set.
func (c *Controller) wedgeDump() {
	if c.flight() == nil {
		return
	}
	c.mu.Lock()
	already := c.wedgeDumped
	c.wedgeDumped = true
	c.mu.Unlock()
	if already {
		return
	}
	go func() {
		d := c.FlightDump()
		if d != nil && c.opts.OnWedgeDump != nil {
			c.opts.OnWedgeDump(d)
		}
	}()
}

// Close stops the engine. Idempotent; safe before Load.
func (c *Controller) Close() {
	c.close.Do(func() {
		if eng := c.Engine(); eng != nil {
			eng.Stop()
		}
	})
}

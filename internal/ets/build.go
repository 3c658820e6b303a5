package ets

// The incremental, sharded ETS construction engine. Build used to run in
// two barriers — a serial BFS over the reachable states, then a worker
// pool compiling every state's configuration from scratch — and the
// state count, not per-table compile time, dominated end-to-end cost for
// stateful programs. The engine here overlaps the two phases on a
// work-stealing pool over state shards: each worker pops a state from
// its own shard (stealing from neighbors when empty), gets the state's
// configuration and event edges from one call into its per-worker
// incremental compiler (nkc.ProgramCompiler.Explore), and enqueues newly
// discovered successors onto their home shards (keyed by canonical state
// hash, deduplicated lock-free through one sync.Map), so exploration and
// compilation interleave instead of running in a barrier per phase.
//
// Invariants (documented in docs/PIPELINE.md):
//
//   - Dedup: a state key enters the seen map exactly once
//     (sync.Map.LoadOrStore), so each state is explored and compiled by
//     exactly one worker and the discovered-state count is exact.
//   - Shard affinity: a state's home shard is a pure function of its
//     canonical key, so re-discovery from different parents races only on
//     the dedup map, never on a queue.
//   - Termination: `pending` counts discovered-but-unprocessed states;
//     it reaches zero exactly when every queue is empty and no worker is
//     mid-state, at which point the pool wakes and exits.
//   - Determinism: workers record results keyed by state; the final
//     vertex numbering, edge list, and event renaming are reconstructed
//     by a sequential canonical BFS over the recorded edges, so the
//     resulting ETS is byte-identical to the old serial construction no
//     matter how the concurrent phase interleaved.
import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"eventnet/internal/flowtable"
	"eventnet/internal/nkc"
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// Options tunes BuildWithOptions. The zero value selects one worker (and
// shard) per CPU.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS. One worker also fixes
	// one shard per worker. A single worker makes cache statistics
	// deterministic (useful for examples and tests).
	Workers int
	// Cache, when non-nil, is a cross-build compiler cache: the root
	// incremental compiler and the whole-configuration cache come from it
	// instead of being created fresh, so successive builds — the program
	// revisions of a live controller — reuse FDDs, segments, and whole
	// tables across generations. The cache serializes builds (its FDD
	// context is single-goroutine); the resulting ETS is byte-identical
	// with and without a cache. Hit/miss stats reported for a cached
	// build count only that build's lookups, while Strands/FDDNodes
	// report the shared stores' cumulative sizes.
	Cache *nkc.ProgramCache
}

// Stats reports what one Build did: the explored graph and the
// effectiveness of the cross-state compilation caches (per-worker stats
// summed; see nkc.CacheStats for field meanings).
type Stats struct {
	States int
	Edges  int
	Events int
	// Configs is the number of distinct table sets actually compiled
	// (shared-cache population); States - Configs states reused a whole
	// configuration by guard signature.
	Configs int
	Steals  int64
	Cache   nkc.CacheStats
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("%d states, %d edges, %d events, %d distinct configs; %s",
		s.States, s.Edges, s.Events, s.Configs, s.Cache)
}

// builder is the shared state of one concurrent build.
type builder struct {
	prog stateful.Program
	topo *topo.Topology

	shards []shard
	seen   sync.Map // state key -> struct{}
	out    sync.Map // state key -> *explored

	pending    atomic.Int64 // discovered but not fully processed
	discovered atomic.Int64
	steals     atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
	done bool
	err  error
}

// shard is one per-worker queue of states awaiting processing.
type shard struct {
	mu    sync.Mutex
	items []stateful.State
}

// explored is the recorded outcome for one state.
type explored struct {
	state  stateful.State
	edges  []stateful.Edge // non-self, sorted by key
	tables flowtable.Tables
}

// BuildWithOptions constructs the ETS with explicit options, returning
// build statistics alongside. See Build for semantics.
func BuildWithOptions(p stateful.Program, t *topo.Topology, o Options) (*ETS, Stats, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	b := &builder{prog: p, topo: t, shards: make([]shard, workers)}
	b.cond = sync.NewCond(&b.mu)

	initKey := p.Init.Key()
	b.seen.Store(initKey, struct{}{})
	b.discovered.Store(1)
	b.pending.Store(1)
	b.shards[shardOf(initKey, workers)].push(p.Init.Clone())

	// One skeleton extraction (validation, strand split, guard indexes)
	// for the whole pool; the other workers fork it, sharing the
	// immutable parts and owning their hash-consing context. With a
	// cross-build cache, the root compiler and the shared table cache
	// persist across builds instead.
	var (
		sc     *nkc.SharedCache
		pc0    *nkc.ProgramCompiler
		before nkc.CacheStats
		err    error
	)
	if o.Cache != nil {
		pc0, sc, err = o.Cache.Acquire(p.Cmd, t)
		if err != nil {
			return nil, Stats{}, err
		}
		defer o.Cache.Release()
		before = pc0.Stats()
	} else {
		sc = nkc.NewSharedCache()
		pc0, err = nkc.NewProgramCompiler(p.Cmd, t, sc)
		if err != nil {
			return nil, Stats{}, err
		}
	}
	pcs := make([]*nkc.ProgramCompiler, workers)
	pcs[0] = pc0
	for w := 1; w < workers; w++ {
		pcs[w] = pc0.Fork()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b.work(w, pcs[w])
		}(w)
	}
	wg.Wait()

	if b.err != nil {
		return nil, Stats{}, b.err
	}

	e, stats, err := b.assemble()
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Steals = b.steals.Load()
	stats.Configs = sc.Len()
	for _, pc := range pcs {
		stats.Cache.Add(pc.Stats())
	}
	// A cached root compiler's counters accumulate across builds; report
	// only this build's lookups (store sizes stay absolute by design).
	stats.Cache.TableHits -= before.TableHits
	stats.Cache.TableMisses -= before.TableMisses
	stats.Cache.SegmentHits -= before.SegmentHits
	stats.Cache.SegmentMisses -= before.SegmentMisses
	stats.Cache.TemplateHits -= before.TemplateHits
	stats.Cache.TemplateMisses -= before.TemplateMisses
	return e, stats, nil
}

// shardOf maps a canonical state key to its home shard.
func shardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

func (s *shard) push(k stateful.State) {
	s.mu.Lock()
	s.items = append(s.items, k)
	s.mu.Unlock()
}

// pop takes from the tail (LIFO: the freshest, cache-warmest state).
func (s *shard) pop() (stateful.State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return nil, false
	}
	k := s.items[n-1]
	s.items = s.items[:n-1]
	return k, true
}

// steal takes from the head (FIFO: the oldest, least contended end).
func (s *shard) steal() (stateful.State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return nil, false
	}
	k := s.items[0]
	s.items = s.items[1:]
	return k, true
}

// work is one worker's loop: pop or steal a state, process it, repeat
// until the build completes or fails.
func (b *builder) work(w int, pc *nkc.ProgramCompiler) {
	for {
		k, ok := b.next(w)
		if !ok {
			return
		}
		if err := b.process(k, pc); err != nil {
			b.fail(err)
			return
		}
		if b.pending.Add(-1) == 0 {
			b.finishBuild()
		}
	}
}

// next returns the next state for worker w, blocking while the queues are
// empty but work is still pending elsewhere.
func (b *builder) next(w int) (stateful.State, bool) {
	for {
		if k, ok := b.tryTake(w); ok {
			return k, true
		}
		b.mu.Lock()
		if b.done {
			b.mu.Unlock()
			return nil, false
		}
		if k, ok := b.tryTake(w); ok {
			b.mu.Unlock()
			return k, true
		}
		b.cond.Wait()
		b.mu.Unlock()
	}
}

// tryTake pops from w's own shard, then steals round-robin.
func (b *builder) tryTake(w int) (stateful.State, bool) {
	if k, ok := b.shards[w].pop(); ok {
		return k, true
	}
	n := len(b.shards)
	for i := 1; i < n; i++ {
		if k, ok := b.shards[(w+i)%n].steal(); ok {
			b.steals.Add(1)
			return k, true
		}
	}
	return nil, false
}

// explore is the one entry point into per-state work, for Build and
// BuildUnrolled alike: it asks the incremental compiler for state k's
// configuration and event-edges together and drops self-loops — an edge
// that updates the state to itself is not a transition in the ETS sense.
func explore(pc *nkc.ProgramCompiler, k stateful.State) (*explored, error) {
	tables, edges, err := pc.Explore(k)
	if err != nil {
		return nil, fmt.Errorf("ets: compiling configuration for state %v: %w", k, err)
	}
	res := &explored{state: k, tables: tables}
	for _, e := range edges {
		if !e.To.Equal(e.From) {
			res.edges = append(res.edges, e)
		}
	}
	return res, nil
}

// process explores one state, enqueues the successors it discovers, and
// records the result.
func (b *builder) process(k stateful.State, pc *nkc.ProgramCompiler) error {
	res, err := explore(pc, k)
	if err != nil {
		return err
	}
	for _, e := range res.edges {
		key := e.To.Key()
		if _, dup := b.seen.LoadOrStore(key, struct{}{}); !dup {
			if b.discovered.Add(1) > stateful.MaxStates {
				return fmt.Errorf("ets: more than %d reachable states", stateful.MaxStates)
			}
			b.pending.Add(1)
			b.shards[shardOf(key, len(b.shards))].push(e.To.Clone())
			b.mu.Lock()
			b.cond.Signal()
			b.mu.Unlock()
		}
	}
	b.out.Store(k.Key(), res)
	return nil
}

// fail records the first error and wakes the pool.
func (b *builder) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.done = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// finishBuild marks completion and wakes the pool.
func (b *builder) finishBuild() {
	b.mu.Lock()
	b.done = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// assemble rebuilds the deterministic ETS from the concurrent phase's
// per-state records: a sequential canonical BFS fixes vertex numbering
// (identical to the old serial explorer), edges are sorted by canonical
// key, and occurrence renaming runs as before.
func (b *builder) assemble() (*ETS, Stats, error) {
	e := &ETS{Init: 0, Topo: b.topo}
	order := []string{b.prog.Init.Key()}
	pos := map[string]int{order[0]: 0}
	var raw []rawEdge
	for qi := 0; qi < len(order); qi++ {
		v, ok := b.out.Load(order[qi])
		if !ok {
			return nil, Stats{}, fmt.Errorf("ets: state %s explored but not recorded", order[qi])
		}
		res := v.(*explored)
		e.Vertices = append(e.Vertices, Vertex{ID: qi, State: res.state, Tables: res.tables})
		for _, ed := range res.edges {
			key := ed.To.Key()
			to, ok := pos[key]
			if !ok {
				to = len(order)
				pos[key] = to
				order = append(order, key)
			}
			raw = append(raw, rawEdge{from: qi, to: to, ed: ed})
		}
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].ed.Key() < raw[j].ed.Key() })

	if err := e.finish(raw); err != nil {
		return nil, Stats{}, err
	}
	return e, Stats{States: len(e.Vertices), Edges: len(e.Edges), Events: len(e.Events)}, nil
}

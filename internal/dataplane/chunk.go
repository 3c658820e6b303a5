package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eventnet/internal/obs"
)

// This file is the chunked generation machinery: how the engine runs
// many bulk-synchronous generations between boundaries without touching
// the supervisor, a lock, or a sort.
//
// A *chunk* is up to ChunkGens generations executed back-to-back. For
// its duration the worker goroutines are persistent — spawned once at
// chunk entry, exited at chunk end — and coordinate through a
// sense-reversing spin rendezvous (phaser) instead of a WaitGroup per
// generation. Each generation has two parallel phases:
//
//	drain:   every worker forwards its shard's queued packets one hop,
//	         recording per-parent emission spans in the shared emitBuf
//	         (disjoint writes: each parent belongs to exactly one ring).
//	consume: every worker walks the emission index in parent-seq order
//	         and pushes *its own switches'* packets into their rings,
//	         computing each packet's fresh seq from the serially
//	         prefix-summed offsets — the deterministic merge without a
//	         sort and without a single-threaded packet-move loop.
//
// Between the phases the lead worker (the calling goroutine, shard 0)
// runs two tiny serial steps: the prefix sums, and the generation tail
// (count folds, retirement, continue/stop). See docs/DATAPLANE.md for
// why this is observationally identical to the one-generation-per-
// rendezvous engine it replaced.

// defaultChunkGens is the Options.ChunkGens default: long enough to
// amortize chunk entry/exit, short enough that a bounded delivery log
// is trimmed promptly even without boundary requests.
const defaultChunkGens = 64

// phaser is the in-chunk rendezvous: workers arrive and spin until the
// lead releases the next phase by advancing the gate ticket. Spinning
// backs off to runtime.Gosched, so the chunk makes progress (slowly, in
// rotation) even at GOMAXPROCS=1. The atomics carry the happens-before
// edges that publish emitBuf, outboxes, and rings between phases.
type phaser struct {
	arrived atomic.Int32
	gate    atomic.Uint64
	stop    atomic.Bool
}

func (p *phaser) reset() {
	p.arrived.Store(0)
	p.gate.Store(0)
	p.stop.Store(false)
}

// await is the non-lead side: arrive at the rendezvous, then wait for
// the lead to open the next phase. Returns the new ticket.
func (p *phaser) await(ticket uint64) uint64 {
	p.arrived.Add(1)
	next := ticket + 1
	for i := 0; p.gate.Load() < next; i++ {
		if i > 128 {
			runtime.Gosched()
		}
	}
	return next
}

// gather is the lead side: wait for every other worker to arrive.
func (p *phaser) gather(workers int) {
	for i := 0; p.arrived.Load() < int32(workers-1); i++ {
		if i > 128 {
			runtime.Gosched()
		}
	}
	p.arrived.Store(0)
}

// release opens the next phase for the waiting workers.
func (p *phaser) release() { p.gate.Add(1) }

// generation runs exactly one generation (test and benchmark hook).
func (e *Engine) generation() { e.runChunk(1) }

// runChunk runs up to budget generations without boundary work, ending
// early at quiescence or on a boundary request. Returns generations run.
// An empty engine runs one vacuous generation — callers gate on
// pending() — so the hot entry path performs no ring scan.
func (e *Engine) runChunk(budget int) int {
	if budget <= 0 {
		return 0
	}
	e.beginGen()
	if e.workers == 1 {
		return e.chunkLead(budget)
	}
	e.ph.reset()
	gen0 := e.gen
	var wg sync.WaitGroup
	for w := 1; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.chunkWorker(w, gen0)
		}(w)
	}
	ran := e.chunkLead(budget)
	wg.Wait()
	return ran
}

// beginGen prepares the emission index for the next generation: one
// record per parent packet. The queued packets' seqs are exactly the
// dense window (ringLo, seq] — injections are admitted only at
// boundaries and never consume a seq on rejection — so the index needs
// no zeroing: every slot is written by the worker draining its parent.
func (e *Engine) beginGen() {
	e.genLo = e.ringLo
	p := int(e.seq - e.ringLo)
	if cap(e.emitBuf) < p {
		e.emitBuf = make([]emitRec, p)
	}
	e.emitBuf = e.emitBuf[:p]
}

// chunkLead is the calling goroutine's side of a chunk: it drains and
// consumes shard 0 like any worker, and runs the serial steps between
// phases. With one worker there is no phaser traffic at all.
func (e *Engine) chunkLead(budget int) int {
	wk := e.ws[0]
	solo := e.workers == 1
	ran := 0
	var t0 int64
	if wk.ms != nil {
		t0 = time.Now().UnixNano()
	}
	for {
		e.gen++
		ran++
		wk.gen = e.gen
		wk.beginGen()
		for i := 0; i < len(e.switches); i += e.workers {
			e.drain(wk, i)
		}
		if !solo {
			e.ph.gather(e.workers)
		}
		e.genPrefix()
		if !solo {
			e.ph.release()
		}
		e.genConsume(0)
		if !solo {
			e.ph.gather(e.workers)
		}
		live := e.genFinish()
		if !live || ran >= budget || e.boundReq.Load() {
			if !solo {
				e.ph.stop.Store(true)
				e.ph.release()
			}
			wk.foldChunkTime(t0)
			return ran
		}
		e.beginGen()
		if !solo {
			e.ph.release()
		}
	}
}

// chunkWorker is a non-lead worker's side of a chunk. gen0 is the
// engine generation at chunk entry: each worker advances its own copy
// (wk.gen) in lockstep with the lead's e.gen++, so the delivery log and
// trace records carry the generation without any worker reading e.gen
// mid-chunk.
func (e *Engine) chunkWorker(w int, gen0 int64) {
	wk := e.ws[w]
	ticket := uint64(0)
	var t0 int64
	if wk.ms != nil {
		t0 = time.Now().UnixNano()
	}
	for {
		gen0++
		wk.gen = gen0
		wk.beginGen()
		for i := w; i < len(e.switches); i += e.workers {
			e.drain(wk, i)
		}
		ticket = e.ph.await(ticket) // drain done; wait for prefix sums
		e.genConsume(w)
		ticket = e.ph.await(ticket) // consume done; wait for the tail
		if e.ph.stop.Load() {
			wk.foldChunkTime(t0)
			return
		}
	}
}

// genPrefix is the serial step between drain and consume: prefix-sum
// the per-parent ring-bound emission counts, so every worker can place
// every pushed packet's fresh seq independently.
func (e *Engine) genPrefix() {
	off := int32(0)
	buf := e.emitBuf
	for p := range buf {
		buf[p].off = off
		off += buf[p].n
	}
	e.genPushes = int64(off)
}

// genConsume pushes this worker's switches' share of the generation's
// emissions into their rings, walking the emission index in parent-seq
// order (then branch order within a parent) — exactly the order the old
// ref-sort merge produced. Fresh seqs are dense over the ring-bound
// emissions in that order: seqBase+1+off+j is the same assignment the
// serial e.seq++ loop made, computed without coordination. Each ring is
// written only by its owning worker, and each outbox entry only by the
// worker that owns its destination, so all writes are disjoint.
func (e *Engine) genConsume(w int) {
	k := e.workers
	base := e.seq
	wk := e.ws[w]
	buf := e.emitBuf
	for p := range buf {
		rec := &buf[p]
		if rec.n == 0 {
			continue
		}
		src := e.ws[rec.w].outbox[rec.start : rec.start+rec.n]
		for j := range src {
			en := &src[j]
			if int(en.dst)%k != w {
				continue
			}
			en.pkt.seq = base + 1 + int64(rec.off) + int64(j)
			en.pkt.branch = 0
			e.rings[en.dst].push(&en.pkt)
			wk.countPush(en.pkt.epoch)
		}
	}
}

// genFinish is the serial generation tail, run with all workers at the
// rendezvous: fold per-worker counts into the engine's and per-epoch
// inflight counts, advance the seq window, and decide retirement exactly
// where the counts are freshly exact (the transition window closes at
// the generation that drained the last old packet, not at the next
// boundary). Returns false at quiescence.
func (e *Engine) genFinish() bool {
	hops0 := e.n[obs.CtrHops]
	// The generation consumed every queued packet; the rings now hold
	// exactly what consume pushed back, so per-epoch inflight counts are
	// recomputed from scratch.
	for _, ps := range e.progs {
		ps.inflight = 0
	}
	for _, wk := range e.ws {
		if wk.ms != nil {
			wk.chunkHops += wk.n[obs.CtrHops] // folded by foldChunkTime at chunk exit
		}
		for c, v := range wk.n {
			e.n[c] += v
		}
		wk.n = counts{}
		for s := 0; s < 2; s++ {
			if wk.pushN[s] != 0 {
				if ps := e.prog(wk.pushE[s]); ps != nil {
					ps.inflight += wk.pushN[s]
				}
				wk.pushN[s] = 0
			}
		}
	}
	e.ringLo = e.seq
	e.seq += e.genPushes
	genHops := e.n[obs.CtrHops] - hops0
	if genHops > 0 {
		e.n[obs.CtrGenerations]++
	}
	// Serial histogram tail: a plain store into the lead's shard (the
	// lead *is* worker 0, and every other worker is parked at the
	// rendezvous). The wall-clock cache refreshes every 8th generation —
	// delivery-latency stamps trade that much resolution for keeping
	// time.Now off the per-generation path (the log2 buckets absorb it).
	if ms := e.ws[0].ms; ms != nil && genHops > 0 {
		ms.Observe(obs.HistGenOccupancy, genHops)
		if e.gen&7 == 0 {
			e.setNow(time.Now().UnixNano())
		}
	}
	e.retireIfDrained()
	return e.genPushes > 0
}

package nkc

// ProgramCache: the cross-generation compiler cache behind live program
// swaps. A long-lived controller (internal/ctrl) compiles a *sequence* of
// programs over one topology — P, then a revision P', sometimes P again —
// and per-build caches would pay full price for every swap. This cache
// keeps four layers alive across builds:
//
//   - one persistent hash-consing FDD context shared by every cached
//     program, so structurally identical link-free segments compile to
//     the *same* FDD nodes no matter which program they appear in;
//   - in that context, one structural segment memo (segMemoKey carries
//     the segment's canonical rendering, not a per-program position), so
//     a revision re-enters ToFDD only for the segments it changed;
//   - beside it, one event-edge template memo keyed the same way by
//     strand prefix, so a revision walks Figure 6 only for new strands;
//   - one compiler *per program* with its memo of whole configurations,
//     because guard signatures are only meaningful relative to one
//     program's guard index.
//
// Swapping P -> P' -> P therefore recompiles nothing on the way back, and
// P -> P' compiles as a delta proportional to the textual difference
// between the programs. The cache is handed to ets.BuildWithOptions via
// Options.Cache; Acquire/Release bracket a build because the shared FDD
// context and interners are single-goroutine by design.

import (
	"encoding/binary"

	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// programCacheLimit bounds the number of distinct programs cached; past
// it the cache resets wholesale (entries pin FDD nodes in the shared
// context, so eviction must drop the context with them).
const programCacheLimit = 32

// ProgramCache memoizes incremental program compilers across builds. The
// zero value is not usable; construct with NewProgramCache. All methods
// are safe for concurrent use, but at most one build may hold an
// acquisition at a time (Acquire blocks until the cache is free).
type ProgramCache struct {
	mu      chan struct{} // 1-buffered semaphore: held from Acquire to Release
	ctx     *FDDCtx
	intern  *compilerInterns
	entries map[string]*ProgramCompiler // on ctx and intern
	resets  int
	arenaHW int64 // largest arena seen across generations
}

// NewProgramCache returns an empty cross-generation compiler cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{
		mu:      make(chan struct{}, 1),
		ctx:     NewFDDCtx(),
		intern:  newCompilerInterns(),
		entries: map[string]*ProgramCompiler{},
	}
}

// programKey identifies a compilation unit by all the compiler reads:
// every strand's skeleton over the cache's segment ids (equal keys mean
// equal strand lists, hence equal programs; the segments were rendered
// once, for those ids, and nothing renders the program) and the switches.
func programKey(pc *ProgramCompiler) string {
	b := binary.AppendUvarint(make([]byte, 0, 8*len(pc.segKeyIDs)), uint64(len(pc.strands)))
	for _, s := range pc.strands {
		b = binary.AppendUvarint(b, uint64(len(s.links)))
		b = pc.appendSkeleton(b, &s, len(s.links))
		b = binary.AppendUvarint(b, uint64(pc.segKeyIDs[s.segs[len(s.links)].id]))
	}
	for _, sw := range pc.switches {
		b = binary.AppendVarint(b, int64(sw))
	}
	return string(b)
}

// Acquire locks the cache and returns the compiler for (program,
// topology), creating and memoizing it on first use. The compiler shares
// the cache's FDD context and structural segment memo with every other
// cached program, so revisions reuse the segments they did not change.
// The caller must hold the acquisition for the entire build (the shared
// context is single-goroutine) and end it with Release.
func (c *ProgramCache) Acquire(cmd stateful.Cmd, t *topo.Topology) (*ProgramCompiler, error) {
	c.mu <- struct{}{}
	for {
		pc, err := newProgramCompiler(cmd, t, c.ctx, c.intern)
		if err != nil {
			<-c.mu
			return nil, err
		}
		key := programKey(pc)
		if cached, ok := c.entries[key]; ok {
			return cached, nil
		}
		if len(c.entries) < programCacheLimit {
			c.entries[key] = pc
			return pc, nil
		}
		// Entries hold FDD pointers into the shared context, and interned
		// ids are pinned by memo keys and table-memo keys: evicting any
		// entry safely means dropping the context and interners with it, so
		// reset wholesale. A controller cycling through more than
		// programCacheLimit live programs simply starts a fresh cache
		// generation, and the skeleton is built again on its ids.
		c.noteArena()
		c.ctx = NewFDDCtx()
		c.intern = newCompilerInterns()
		c.entries = map[string]*ProgramCompiler{}
		c.resets++
	}
}

// noteArena records the current arena size into the high-water mark.
// Callers must hold the acquisition.
func (c *ProgramCache) noteArena() {
	if b := c.ctx.ArenaBytes(); b > c.arenaHW {
		c.arenaHW = b
	}
}

// Release ends an acquisition started by Acquire.
func (c *ProgramCache) Release() {
	c.noteArena()
	<-c.mu
}

// ArenaHighWater returns the largest FDD arena seen across cache
// generations — the compiler-memory figure obs reports alongside the
// current arena size.
func (c *ProgramCache) ArenaHighWater() int64 {
	c.mu <- struct{}{}
	n := c.arenaHW
	<-c.mu
	return n
}

// Len returns the number of distinct programs currently cached.
func (c *ProgramCache) Len() int {
	c.mu <- struct{}{}
	n := len(c.entries)
	<-c.mu
	return n
}

// Resets returns how many times the cache reset wholesale after
// exceeding its program limit.
func (c *ProgramCache) Resets() int {
	c.mu <- struct{}{}
	n := c.resets
	<-c.mu
	return n
}

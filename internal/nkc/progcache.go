package nkc

// ProgramCache: the cross-generation compiler cache behind live program
// swaps. A long-lived controller (internal/ctrl) compiles a *sequence* of
// programs over one topology — P, then a revision P', sometimes P again —
// and per-build caches would pay full price for every swap. This cache
// keeps three layers alive across builds:
//
//   - one persistent hash-consing FDD context shared by every build, so
//     structurally identical link-free segments compile to the *same* FDD
//     nodes no matter which program they appear in, and the hop and
//     table memos in it hand a switch that behaves as before the very
//     *flowtable.Table it had;
//   - in that context, one structural segment memo (segMemoKey carries
//     the segment's shape — its rendering with every state test a
//     placeholder — and the truth vector over those placeholders, not a
//     per-program position), so a revision re-enters ToFDD only for
//     segments whose shape and truth vector it has not met;
//   - beside it, one Figure 6 walk memo keyed the same way by the
//     shapes of a strand prefix, so a revision walks Figure 6 only for
//     a prefix shape it added; and the hop-list table memo.
//
// Every build gets a fresh ProgramCompiler on the shared context: whole
// programs are memoized one level up, by the controller's generation
// memo. A program built again — revisited after it left that memo, or
// started from a state its earlier build reached — resolves entirely
// from the three layers: no ToFDD call, no Figure 6 walk, the same
// tables. For P -> P' the FDD work is proportional to the structure P'
// adds (none for bandwidth-cap-201 after cap-200), the rest to P' itself:
// its skeleton to its text, built in the arrays of the build before, the
// per-state glue to its states (docs/PIPELINE.md, "What a revision
// costs"). The cache is handed to ets.BuildWithOptions via Options.Cache;
// Acquire/Release bracket a build because the shared FDD context and
// interners are single-goroutine by design.

import (
	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// programCacheLimit bounds the builds on one context generation; the
// cache resets wholesale before the next (memo entries pin FDD nodes in
// the shared context, so eviction must drop the context with them).
const programCacheLimit = 32

// ProgramCache shares one FDD context and interner set across builds. The
// zero value is not usable; construct with NewProgramCache. All methods
// are safe for concurrent use, but at most one build may hold an
// acquisition at a time (Acquire blocks until the cache is free).
type ProgramCache struct {
	mu      chan struct{} // 1-buffered semaphore: held from Acquire to Release
	ctx     *FDDCtx
	intern  *compilerInterns
	spare   skeleton // the last build's, for the next to build in
	builds  int      // compilers built on ctx and intern
	resets  int
	arenaHW int64 // largest arena seen across generations
}

// NewProgramCache returns an empty cross-generation compiler cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{
		mu:     make(chan struct{}, 1),
		ctx:    NewFDDCtx(),
		intern: newCompilerInterns(),
	}
}

// Acquire locks the cache and returns a new compiler for (program,
// topology) on the cache's FDD context and interners, so the build reuses
// every segment, walk and table an earlier build on them compiled. The
// 33rd build of a context generation starts a new one. The caller must
// hold the acquisition for the entire build (the shared context is
// single-goroutine) and end it with Release, after which the compiler is
// not used: the next build reuses its arrays.
func (c *ProgramCache) Acquire(cmd stateful.Cmd, t *topo.Topology) (*ProgramCompiler, error) {
	c.mu <- struct{}{}
	if c.builds == programCacheLimit {
		// Memo entries hold FDD pointers into the shared context, and
		// interned ids are pinned by memo keys: dropping any of them safely
		// means dropping the context and interners with them, so reset
		// wholesale. The skeleton is then built on the new generation's ids.
		c.noteArena()
		c.ctx = NewFDDCtx()
		c.intern = newCompilerInterns()
		c.builds = 0
		c.resets++
	}
	pc, err := newProgramCompiler(cmd, t, c.ctx, c.intern, c.spare)
	if err != nil {
		<-c.mu
		return nil, err
	}
	c.spare = pc.skeleton
	c.builds++
	return pc, nil
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

// Resets returns how many times the cache reset wholesale after
// reaching its build limit.
func (c *ProgramCache) Resets() int {
	c.mu <- struct{}{}
	n := c.resets
	<-c.mu
	return n
}

package nkc

// ProgramCache: the cross-generation compiler cache behind live program
// swaps. A long-lived controller (internal/ctrl) compiles a *sequence* of
// programs over one topology — P, then a revision P', sometimes P again —
// and per-build caches would pay full price for every swap. This cache
// keeps three layers alive across builds:
//
//   - one persistent hash-consing FDD context shared by every cached
//     program, so structurally identical link-free segments compile to
//     the *same* FDD nodes no matter which program they appear in;
//   - one structural segment memo (segMemoKey carries the segment's
//     canonical rendering, not a per-program position), so a revision
//     re-enters ToFDD only for the segments it actually changed;
//   - one SharedCache of whole configurations *per program*, keyed by
//     program identity, because guard signatures are only meaningful
//     relative to one program's guard index.
//
// Swapping P -> P' -> P therefore recompiles nothing on the way back, and
// P -> P' compiles as a delta proportional to the textual difference
// between the programs. The cache is handed to ets.BuildWithOptions via
// Options.Cache; Acquire/Release bracket a build because the shared FDD
// context is single-goroutine by design.

import (
	"strconv"
	"strings"

	"eventnet/internal/stateful"
	"eventnet/internal/topo"
)

// progEntry is one cached program: its root incremental compiler (whose
// FDD context and segment memo are the cache's shared ones) and its
// whole-configuration cache.
type progEntry struct {
	root   *ProgramCompiler
	shared *SharedCache
}

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
	segMemo map[segMemoKey]*FDD
	intern  *compilerInterns
	entries map[string]*progEntry
	resets  int
	arenaHW int64 // largest arena seen across generations
}

// NewProgramCache returns an empty cross-generation compiler cache.
func NewProgramCache() *ProgramCache {
	c := &ProgramCache{
		mu:      make(chan struct{}, 1),
		ctx:     NewFDDCtx(),
		segMemo: map[segMemoKey]*FDD{},
		intern:  newCompilerInterns(),
		entries: map[string]*progEntry{},
	}
	return c
}

// programKey identifies a compilation unit: canonical program rendering
// and the topology's full structure.
func programKey(cmd stateful.Cmd, t *topo.Topology) string {
	var sb strings.Builder
	sb.WriteString(cmd.String())
	sb.WriteByte('|')
	for _, sw := range t.Switches {
		sb.WriteString("s")
		sb.WriteString(strconv.Itoa(sw))
	}
	for _, h := range t.Hosts {
		sb.WriteString(";h")
		sb.WriteString(strconv.Itoa(h.ID))
		sb.WriteString("=")
		sb.WriteString(h.Name)
		sb.WriteString("@")
		sb.WriteString(h.Attach.String())
	}
	for _, lk := range t.Links {
		sb.WriteString(";l")
		sb.WriteString(lk.Src.String())
		sb.WriteString(">")
		sb.WriteString(lk.Dst.String())
	}
	return sb.String()
}

// Acquire locks the cache and returns the root compiler and
// whole-configuration cache for (program, topology), creating
// and memoizing them on first use. The root compiler shares the cache's
// FDD context and structural segment memo with every other cached
// program, so revisions reuse the segments they did not change. The
// caller must hold the acquisition for the entire build (the shared
// context is single-goroutine) and end it with Release; Fork the root
// for additional workers as usual — forks own fresh contexts and do not
// persist, only the root and the SharedCache accumulate.
func (c *ProgramCache) Acquire(cmd stateful.Cmd, t *topo.Topology) (*ProgramCompiler, *SharedCache, error) {
	c.mu <- struct{}{}
	key := programKey(cmd, t)
	if e, ok := c.entries[key]; ok {
		return e.root, e.shared, nil
	}
	if len(c.entries) >= programCacheLimit {
		// Entries hold FDD pointers into the shared context, and interned
		// ids are pinned by segMemo keys and SharedCache keys: evicting any
		// entry safely means dropping the context and interners with it, so
		// reset wholesale. A controller cycling through more than
		// programCacheLimit live programs simply starts a fresh cache
		// generation.
		c.noteArena()
		c.ctx = NewFDDCtx()
		c.segMemo = map[segMemoKey]*FDD{}
		c.intern = newCompilerInterns()
		c.entries = map[string]*progEntry{}
		c.resets++
	}
	root, err := NewProgramCompiler(cmd, t, NewSharedCache())
	if err != nil {
		<-c.mu
		return nil, nil, err
	}
	root.ctx = c.ctx
	root.segMemo = c.segMemo
	root.adoptInterns(c.intern)
	e := &progEntry{root: root, shared: root.shared}
	c.entries[key] = e
	return e.root, e.shared, nil
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

// Segments returns the size of the shared structural segment memo — the
// cross-program FDD reuse surface (grows with structural variety, not
// with the number of builds).
func (c *ProgramCache) Segments() int {
	c.mu <- struct{}{}
	n := len(c.segMemo)
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

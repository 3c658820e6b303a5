package nkc

// Dense interning and arena allocation: the compiler's memory/keying
// layer. Three structures live here:
//
//   - Interner: a string -> dense uint32 id table. Segment shapes,
//     strand prefixes and long truth vectors are interned once, so every
//     cache keyed by them (segment memo, walk memo) becomes an integer
//     lookup with no string hashing on the per-state hot path. Ids are
//     assigned in first-intern order and never reused; injectivity is
//     what makes them sound cache keys (see docs/PIPELINE.md, "Interning
//     and arena soundness").
//
//   - fieldIntern: a per-context (single-goroutine) field-name table used
//     to pack (field, value) test atoms into one uint64 for hash-consing
//     and memo keys. The canonical test *order* still compares field
//     names (testLess); the packed form is identity only.
//
//   - fddArena: chunked slab storage for FDD nodes. Chunks double from
//     64 nodes up to 4096 and are never reallocated, so node pointers
//     stay stable for the life of the context while the GC sees one
//     object per chunk instead of one per node, and a small program
//     reserves about what it interns. Node identity is the dense id
//     assigned at allocation; nothing resolves an id back to a node.

import "unsafe"

// Interner assigns dense uint32 ids to strings. Like the FDD context it
// is single-goroutine: one Interner belongs to one ProgramCompiler, or to
// the builds of one ProgramCache generation, which the cache's semaphore
// serializes.
type Interner struct {
	ids map[string]uint32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: map[string]uint32{}}
}

// IDBytes returns the dense id for the key b, assigning the next id on
// first sight. The lookup itself does not copy (Go's map[string] lookup
// accepts string(b) without allocating); the key is materialized only on
// first intern.
func (in *Interner) IDBytes(b []byte) uint32 {
	id, ok := in.ids[string(b)]
	if !ok {
		id = uint32(len(in.ids))
		in.ids[string(b)] = id
	}
	return id
}

// Len returns the number of interned entries.
func (in *Interner) Len() int { return len(in.ids) }

// fieldIntern is the per-context field-atom table. Not safe for
// concurrent use — it lives inside FDDCtx, which is single-goroutine by
// design.
type fieldIntern struct {
	ids map[string]uint32
}

func newFieldIntern() fieldIntern { return fieldIntern{ids: map[string]uint32{}} }

func (fi *fieldIntern) id(f string) uint32 {
	id, ok := fi.ids[f]
	if !ok {
		id = uint32(len(fi.ids))
		fi.ids[f] = id
	}
	return id
}

func (fi *fieldIntern) len() int { return len(fi.ids) }

// packAtom packs an interned field id and a test/assignment value into
// one uint64 key. Values must fit int32 (the same domain the dataplane's
// flat lowering enforces); the cast is checked by the caller via
// checkAtomValue so an out-of-range value fails loudly rather than
// aliasing another atom.
func packAtom(fieldID uint32, value int) uint64 {
	return uint64(fieldID)<<32 | uint64(uint32(value))
}

// checkAtomValue panics if v cannot be packed injectively.
func checkAtomValue(v int) {
	if int(int32(v)) != v {
		panic("nkc: field value outside int32 range cannot be interned")
	}
}

// Arena chunk sizes in nodes: the first chunk, and the cap each later
// chunk's doubling stops at.
const (
	fddFirstChunk = 64
	fddMaxChunk   = 4096
)

// fddArena allocates FDD nodes from chunks. A chunk is never grown in
// place, so &cur[i] stays valid forever; the arena keeps only the newest
// chunk, the older ones live as long as nodes in them are referenced.
type fddArena struct {
	cur      []FDD // newest chunk; its length is the nodes handed out
	n        int   // nodes allocated: the next dense id
	reserved int   // nodes reserved across all chunks
}

// alloc returns a zeroed node carrying the next dense id.
func (a *fddArena) alloc() *FDD {
	if len(a.cur) == cap(a.cur) {
		size := min(max(2*cap(a.cur), fddFirstChunk), fddMaxChunk)
		a.cur = make([]FDD, 0, size)
		a.reserved += size
	}
	a.cur = a.cur[:len(a.cur)+1]
	d := &a.cur[len(a.cur)-1]
	d.id = a.n
	a.n++
	return d
}

// bytes returns the slab bytes reserved so far (every chunk whole, the
// figure CacheStats reports as ArenaBytes).
func (a *fddArena) bytes() int64 {
	return int64(a.reserved) * int64(unsafe.Sizeof(FDD{}))
}

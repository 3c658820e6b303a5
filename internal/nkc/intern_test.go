package nkc

import (
	"testing"
	"unsafe"
)

// TestFDDArenaGrowth: ids are dense across every chunk boundary, chunks
// double from fddFirstChunk and stop at fddMaxChunk, a node never moves
// once handed out, and the arena reports the bytes of its chunks.
func TestFDDArenaGrowth(t *testing.T) {
	const total = 10000
	var a fddArena
	nodes := make([]*FDD, total)
	var chunks []int // node count of every chunk, in allocation order
	boundary := 0    // first id of the newest chunk
	for i := range nodes {
		d := a.alloc()
		if d.id != i || a.n != i+1 {
			t.Fatalf("allocation %d got id %d, arena count %d", i, d.id, a.n)
		}
		if len(a.cur) == 1 { // a new chunk starts here
			if len(chunks) > 0 {
				boundary += chunks[len(chunks)-1]
			}
			if i != boundary {
				t.Fatalf("a chunk starts at id %d, want %d", i, boundary)
			}
			want := fddFirstChunk
			if len(chunks) > 0 {
				want = min(2*chunks[len(chunks)-1], fddMaxChunk)
			}
			if cap(a.cur) != want {
				t.Fatalf("chunk %d holds %d nodes, want %d", len(chunks), cap(a.cur), want)
			}
			chunks = append(chunks, cap(a.cur))
		}
		d.value = i
		nodes[i] = d
	}
	reserved := 0
	for _, c := range chunks {
		reserved += c
	}
	if len(chunks) < 2 || chunks[len(chunks)-2] != fddMaxChunk {
		t.Fatalf("chunks %v: the run does not reach two full-size chunks", chunks)
	}
	if a.reserved != reserved || a.bytes() != int64(reserved)*int64(unsafe.Sizeof(FDD{})) {
		t.Fatalf("arena reports %d nodes, %d bytes; its chunks %v hold %d nodes", a.reserved, a.bytes(), chunks, reserved)
	}
	for i, d := range nodes {
		if d.id != i || d.value != i {
			t.Fatalf("node %d reads id %d, value %d at the end", i, d.id, d.value)
		}
	}
}

package splitmix

import (
	"math"
	"math/bits"
	"testing"
)

// TestStreamMatchesReference: seed 0 gives the reference splitmix64
// sequence (Vigna's splitmix64.c), and draw i of a stream is Mix of its
// state after i increments.
func TestStreamMatchesReference(t *testing.T) {
	s := Stream(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d of seed 0: %#x, want %#x", i, got, want)
		}
	}
	s = Stream(12345)
	for i := uint64(0); i < 4; i++ {
		if got, want := s.Uint64(), Mix(12345+i*gamma); got != want {
			t.Fatalf("draw %d of seed 12345: %#x, want Mix(seed+%d·gamma) = %#x", i, got, i, want)
		}
	}
}

// TestIntnOne: a bound of 1 draws 0 and consumes one draw.
func TestIntnOne(t *testing.T) {
	s, ref := Stream(7), Stream(7)
	for i := 0; i < 100; i++ {
		if got := s.Intn(1); got != 0 {
			t.Fatalf("Intn(1) = %d", got)
		}
		ref.Uint64()
	}
	if s != ref {
		t.Fatal("Intn(1) did not consume exactly one draw")
	}
}

// TestIntnInRange: every draw lies in [0, n), for bounds from 1 to the
// largest int, 2^31-1 among them.
func TestIntnInRange(t *testing.T) {
	s := Stream(1)
	for _, n := range []int{1, 2, 3, 5, 6, 7, 64, 100, 1000, 1<<31 - 1, 1 << 31, 3 << 61, math.MaxInt} {
		hit31 := false
		for i := 0; i < 2000; i++ {
			r := s.Intn(n)
			if r < 0 || r >= n {
				t.Fatalf("Intn(%d) = %d", n, r)
			}
			hit31 = hit31 || r >= 1<<30
		}
		if n == 1<<31-1 && !hit31 {
			t.Errorf("Intn(2^31-1): 2000 draws all below 2^30")
		}
	}
}

// TestIntnUniform: 60 000 draws of Intn(6) fill each value within 5 % of
// its share (a bias of a modulo reduction on a few bits would show).
func TestIntnUniform(t *testing.T) {
	s := Stream(3)
	var counts [6]int
	for i := 0; i < 60000; i++ {
		counts[s.Intn(6)]++
	}
	for v, c := range counts {
		if c < 9500 || c > 10500 {
			t.Errorf("value %d drawn %d times of 60 000, want 10 000 ± 500", v, c)
		}
	}
}

// TestIntnRejects: a draw whose low product word falls below 2^64 mod n
// is redrawn. With n = 3·2^61 that is a quarter of draws; the test finds
// seeds whose first draw is rejected and checks Intn answers with the
// second draw and consumes both.
func TestIntnRejects(t *testing.T) {
	const n = 3 << 61
	un := uint64(n)
	threshold := -un % un // 2^64 mod n = 2^62
	rejected := 0
	for seed := uint64(0); seed < 64; seed++ {
		raw := Stream(seed)
		hi1, lo1 := bits.Mul64(raw.Uint64(), n)
		hi2, lo2 := bits.Mul64(raw.Uint64(), n)
		if lo2 < threshold { // a second rejection; keep the check to one redraw
			continue
		}
		s := Stream(seed)
		got := s.Intn(n)
		if lo1 < threshold {
			rejected++
			if got != int(hi2) {
				t.Fatalf("seed %d: first draw rejected, Intn = %d, want the second draw's %d", seed, got, hi2)
			}
			if s != raw {
				t.Fatalf("seed %d: a rejected draw must consume two draws", seed)
			}
		} else if got != int(hi1) {
			t.Fatalf("seed %d: Intn = %d, want the first draw's %d", seed, got, hi1)
		}
	}
	if rejected == 0 {
		t.Fatal("no seed's first draw took the rejection branch")
	}
}

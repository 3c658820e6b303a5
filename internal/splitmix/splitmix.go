// Package splitmix is the splitmix64 generator of Steele, Lea and Flood,
// "Fast splittable pseudorandom number generators" (OOPSLA 2014): its
// finalizer Mix, through which seeds are derived, and a Stream of draws.
package splitmix

import "math/bits"

const gamma = 0x9e3779b97f4a7c15 // the stream's increment, the odd integer nearest 2^64/φ

// Mix is the splitmix64 finalizer of x+gamma: a bijective avalanche over
// uint64, so no arithmetic relation between two inputs survives into the
// outputs.
func Mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a splitmix64 stream: draw i of the stream seeded s is
// Mix(s + i·gamma). Seed it by conversion, Stream(seed).
type Stream uint64

// Uint64 returns the stream's next draw.
func (s *Stream) Uint64() uint64 {
	x := Mix(uint64(*s))
	*s += gamma
	return x
}

// Intn returns a uniform draw from [0, n), n > 0, by Lemire's
// multiply-shift: the high word of draw·n, redrawing while the low word
// falls in the 2^64 mod n values that would bias it.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("splitmix: Intn of a non-positive bound")
	}
	hi, lo := bits.Mul64(s.Uint64(), uint64(n))
	if lo < uint64(n) {
		for t := -uint64(n) % uint64(n); lo < t; {
			hi, lo = bits.Mul64(s.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

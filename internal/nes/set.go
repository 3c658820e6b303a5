// Package nes implements network event structures (Section 2,
// Definitions 3-5 of the paper): event structures in Winskel's sense — a
// set of events with a consistency predicate and an enabling relation —
// extended with a map g assigning a network configuration to every
// event-set.
//
// Event-sets are encoded as immutable little-endian bitsets (8 events per
// byte), generalizing the paper's strategy of encoding each event-set as a
// flat integer tag carried in a packet header field (Section 4.1): the tag
// is simply wider than one machine word when a program needs more than 64
// events (e.g. bandwidth-cap-200's 201 occurrence-renamed events).
package nes

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxEvents is the capacity of a Set — a sanity bound on tag width, far
// above any reachable-state budget (stateful exploration caps at 4096
// states, and a loop-free ETS has fewer events than edges).
const MaxEvents = 4096

// Set is a set of event IDs encoded as a little-endian bitset packed 8
// events per byte, kept canonical (no trailing zero bytes) so that ==,
// map-key identity, and set equality coincide. The zero value is the
// empty set. Sets are immutable; all operations return new sets.
type Set string

// Empty is the empty event-set.
const Empty Set = ""

// Has reports whether e is in the set.
func (s Set) Has(e int) bool {
	i := e / 8
	return i < len(s) && s[i]&(1<<uint(e%8)) != 0
}

// With returns s ∪ {e}.
func (s Set) With(e int) Set {
	i := e / 8
	bit := byte(1) << uint(e%8)
	if i < len(s) && s[i]&bit != 0 {
		return s
	}
	n := len(s)
	if i+1 > n {
		n = i + 1
	}
	b := make([]byte, n)
	copy(b, s)
	b[i] |= bit
	return Set(b)
}

// Without returns s \ {e}.
func (s Set) Without(e int) Set {
	i := e / 8
	bit := byte(1) << uint(e%8)
	if i >= len(s) || s[i]&bit == 0 {
		return s
	}
	b := []byte(s)
	b[i] &^= bit
	return Set(trim(b))
}

// Union returns s ∪ t. When one operand contains the other the result is
// that operand itself (pointer-equal, no copy): digest gossip on the
// engine's hop loop unions a packet's digest with switch views that have
// long since absorbed it, and rebuilding the canonical string there would
// put an allocation on every hop.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	if len(t) > len(s) {
		s, t = t, s
	}
	i := 0
	for ; i < len(t); i++ {
		if t[i]&^s[i] != 0 {
			break
		}
	}
	if i == len(t) {
		return s // t ⊆ s: no change, no copy
	}
	b := []byte(s)
	for ; i < len(t); i++ {
		b[i] |= t[i]
	}
	return Set(b)
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	changed := false
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			changed = true
			break
		}
	}
	if !changed {
		return s
	}
	b := []byte(s)
	for i := 0; i < n; i++ {
		b[i] &^= t[i]
	}
	return Set(trim(b))
}

// SubsetOf reports s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false // canonical form: s's top byte is nonzero
	}
	for i := 0; i < len(s); i++ {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Count returns |s|.
func (s Set) Count() int {
	n := 0
	for i := 0; i < len(s); i++ {
		n += bits.OnesCount8(s[i])
	}
	return n
}

// Less orders sets as the little-endian integers they encode (the order
// the uint64 representation used to give), for deterministic iteration.
func (s Set) Less(t Set) bool {
	if len(s) != len(t) {
		return len(s) < len(t) // canonical form: longer means a higher bit
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != t[i] {
			return s[i] < t[i]
		}
	}
	return false
}

// Elems returns the event IDs in ascending order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Count())
	for i := 0; i < len(s); i++ {
		for b := s[i]; b != 0; b &= b - 1 {
			out = append(out, i*8+bits.TrailingZeros8(b))
		}
	}
	return out
}

// MinusCount returns |s \ t| without allocating.
func (s Set) MinusCount(t Set) int {
	n := 0
	for i := 0; i < len(s); i++ {
		var tb byte
		if i < len(t) {
			tb = t[i]
		}
		n += bits.OnesCount8(s[i] &^ tb)
	}
	return n
}

// diffWithin reports s \ t ⊆ {e} without allocating — the inner
// predicate of the enabling relation (f.Without(e).SubsetOf(x) spelled
// so the hot detection path never materializes the intermediate set).
func (s Set) diffWithin(t Set, e int) bool {
	ei, eb := e/8, byte(1)<<uint(e%8)
	for i := 0; i < len(s); i++ {
		var tb byte
		if i < len(t) {
			tb = t[i]
		}
		d := s[i] &^ tb
		if i == ei {
			d &^= eb
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// minusSingleton returns (e, true) when s \ t is exactly the singleton
// {e}, allocation-free. One pass over a family with this predicate
// yields every event the knowledge set t enables: F \ t = {e} ⇔ t ⊢ e
// for e ∉ t (see NES.ArmedFrom).
func (s Set) minusSingleton(t Set) (int, bool) {
	e, cnt := -1, 0
	for i := 0; i < len(s); i++ {
		var tb byte
		if i < len(t) {
			tb = t[i]
		}
		for d := s[i] &^ tb; d != 0; d &= d - 1 {
			if cnt++; cnt > 1 {
				return -1, false
			}
			e = i*8 + bits.TrailingZeros8(d)
		}
	}
	return e, cnt == 1
}

// trim drops trailing zero bytes, restoring canonical form.
func trim(b []byte) []byte {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// String renders the set as {e0,e3,...}.
func (s Set) String() string {
	parts := make([]string, 0, s.Count())
	for _, e := range s.Elems() {
		parts = append(parts, fmt.Sprint(e))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

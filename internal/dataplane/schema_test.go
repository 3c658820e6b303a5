package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSchemaSlotMatchesIndex holds the one resolver against the map on
// both sides of scanFields: every member, random non-members, the empty
// name, and names that differ from a member only in their last byte.
func TestSchemaSlotMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	name := func() string {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	for _, n := range []int{1, 3, scanFields, scanFields + 1, maxSchemaFields} {
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("%s%d", name(), i)) // the suffix keeps them distinct
		}
		s := NewSchema(names)
		if s.Len() != n {
			t.Fatalf("schema of %d names has %d fields", n, s.Len())
		}
		check := func(f string) {
			t.Helper()
			want, ok := s.index[f]
			if !ok {
				want = -1
			}
			if got := s.slot(f); got != want {
				t.Fatalf("%d fields: slot(%q) = %d, the map says %d", n, f, got, want)
			}
			if i, ok := s.Index(f); ok != (want >= 0) || (ok && i != want) {
				t.Fatalf("%d fields: Index(%q) = %d, %v, the map says %d", n, f, i, ok, want)
			}
		}
		for i, f := range s.fields {
			check(f)
			if s.slot(f) != i {
				t.Fatalf("%d fields: member %q resolves to %d, sits at %d", n, f, s.slot(f), i)
			}
			check(f[:len(f)-1] + string(f[len(f)-1]+1))
			check(f[:len(f)-1])
			check(f + "x")
		}
		check("")
		for i := 0; i < 1000; i++ {
			check(name())
		}
	}
}

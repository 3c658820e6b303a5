package dataplane

import (
	"fmt"
	"testing"
)

// TestSchemaSlotWide holds the scanning resolver on the widest schema a
// program may have: every one of 64 fields resolves to its sorted index,
// and a name outside the schema — the empty name, or one that differs
// from a member only in its last byte or its length — resolves to -1.
func TestSchemaSlotWide(t *testing.T) {
	var names []string
	for i := maxSchemaFields - 1; i >= 0; i-- {
		names = append(names, fmt.Sprintf("f%02d", i))
	}
	s := NewSchema(names)
	if s.Len() != maxSchemaFields {
		t.Fatalf("schema of %d names has %d fields", maxSchemaFields, s.Len())
	}
	for i := 0; i < maxSchemaFields; i++ {
		f := fmt.Sprintf("f%02d", i)
		if got := s.slot(f); got != i {
			t.Fatalf("slot(%q) = %d, want its sorted index %d", f, got, i)
		}
		for _, out := range []string{f[:2], f + "x", f[:2] + string(f[2]+10)} {
			if got := s.slot(out); got != -1 {
				t.Fatalf("slot(%q) = %d for a name outside the schema", out, got)
			}
		}
	}
	if got := s.slot(""); got != -1 {
		t.Fatalf("slot(\"\") = %d", got)
	}
}

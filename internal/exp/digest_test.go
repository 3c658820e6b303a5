package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFigureDigests: Figures 11, 14 and 16a (ring(3)) regenerate to the
// SHA-256 digests the benchmark checks. The digests are read from
// bench/digests.json, the one place they are written down.
func TestFigureDigests(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "bench", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, render := range map[string]func() string{
		"Fig11":  func() string { return Fig11().String() },
		"Fig14":  func() string { return Fig14().String() },
		"Fig16a": func() string { return Fig16a([]int{3}).String() },
	} {
		sum := sha256.Sum256([]byte(render()))
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s digest %s, bench/digests.json has %s", name, got, want[name])
		}
	}
	if len(want) != 3 {
		t.Errorf("bench/digests.json names %d figures, this test checks 3", len(want))
	}
}

package obs

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMetricCatalogDocumented: every counter, gauge and histogram the
// exposition emits is named in docs/OBSERVABILITY.md's metric catalog.
// The catalog abbreviates a pair as `x_hits`/`_misses`; a name that
// starts with "_" replaces the last "_" segment of the name before it.
func TestMetricCatalogDocumented(t *testing.T) {
	b, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "## Metric catalog")
	if start < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no \"## Metric catalog\" section")
	}
	catalog := doc[start+len("## Metric catalog"):]
	if end := strings.Index(catalog, "\n## "); end >= 0 {
		catalog = catalog[:end]
	}
	documented := map[string]bool{}
	prev := ""
	for _, m := range regexp.MustCompile("`([a-z0-9_]+)`").FindAllStringSubmatch(catalog, -1) {
		name := m[1]
		if strings.HasPrefix(name, "_") {
			if i := strings.LastIndexByte(prev, '_'); i > 0 {
				name = prev[:i] + name
			}
		}
		documented[name] = true
		prev = name
	}
	var names []string
	names = append(names, counterNames[:]...)
	names = append(names, gaugeNames[:]...)
	names = append(names, histNames[:]...)
	for _, name := range names {
		if !documented[name] {
			t.Errorf("metric %q is missing from docs/OBSERVABILITY.md's metric catalog", name)
		}
	}
}

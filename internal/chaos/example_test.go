package chaos_test

import (
	"fmt"

	"eventnet/internal/chaos"
)

// A reproducer line from a failure log replays exactly: parse it, audit
// it, and read the two halves of the invariant.
func ExampleParseReproducer() {
	line := `{"scenario":"wan-failover","seed":7,"ops":[{"kind":0},{"kind":1},{"kind":5,"n":2}]}`
	s, err := chaos.ParseReproducer(line)
	if err != nil {
		panic(err)
	}
	res, _, _, err := chaos.Audit(s, chaos.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Mixed, res.Dropped)
	// Output: 0 0
}

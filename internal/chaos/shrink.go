package chaos

import (
	"fmt"

	"eventnet/internal/obs"
)

// Shrink returns the length of the shortest prefix of ops for which
// `violates` holds, or -1 if even the full schedule is clean. It assumes
// violations are monotone in the prefix — true for the chaos audit,
// which is cumulative: once a violating delivery exists, appending ops
// cannot erase it — so a binary search over prefix lengths suffices
// (O(log n) replays instead of O(n)).
func Shrink(ops []Op, violates func([]Op) bool) int {
	if len(ops) == 0 || !violates(ops) {
		return -1
	}
	lo, hi := 1, len(ops)
	for lo < hi {
		mid := (lo + hi) / 2
		if violates(ops[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Audit runs a schedule and, if the run violates the delivery invariant,
// minimizes it: the returned Schedule (nil when the run is clean) is the
// shortest violating prefix, ready to print via Reproducer and replay
// via Run. Alongside the reproducer comes its flight dump: the minimal
// schedule replayed once more with a flight recorder attached, so the
// violation ships with the full-fidelity history that produced it. The
// dump is deterministic — the replay engine is synchronous, the
// recorder carries no wall-clock state, and an equal reproducer dumps
// bit-identically at any worker count.
func Audit(s Schedule, o Options) (*Result, *Schedule, *obs.FlightDump, error) {
	res, err := Run(s, o)
	if err != nil || res.Violations() == 0 {
		return res, nil, nil, err
	}
	var probeErr error
	n := Shrink(s.Ops, func(ops []Op) bool {
		r, err := Run(Schedule{Scenario: s.Scenario, Seed: s.Seed, Ops: ops}, o)
		if err != nil {
			probeErr = err
			return false
		}
		return r.Violations() > 0
	})
	if probeErr != nil {
		return res, nil, nil, fmt.Errorf("chaos: shrink replay: %w", probeErr)
	}
	min := Schedule{Scenario: s.Scenario, Seed: s.Seed, Ops: s.Ops[:n]}
	ro := o
	ro.Obs = &obs.Obs{Flight: obs.NewFlight(0, max(o.Workers, 1))}
	if _, err := Run(min, ro); err != nil {
		return res, &min, nil, fmt.Errorf("chaos: flight replay: %w", err)
	}
	return res, &min, ro.Obs.Flight.Dump(), nil
}

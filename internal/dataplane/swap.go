package dataplane

import (
	"fmt"
	"time"

	"eventnet/internal/nes"
	"eventnet/internal/obs"
)

// SwapSpec describes a staged program replacement.
type SwapSpec struct {
	// Plan is the incoming program, lowered (PlanFor). StageSwap
	// resolves it against the engine's switches before the barrier (a
	// plan already resolved for them is reused as it is), so the flip,
	// with every worker parked, allocates the new epoch's views and
	// lowers and resolves nothing.
	Plan *Plan
	// MapEvent maps old-program event IDs to new-program event IDs (-1 =
	// no counterpart); len must equal the old program's event count. A nil
	// map carries no knowledge across the swap.
	MapEvent []int
}

// SwapStats reports what one completed swap did.
type SwapStats struct {
	StagedAt, FlipAt, RetiredAt time.Time
	FlipGen, RetireGen          int64 // engine generation numbers
	// TransitionHops is the number of switch-hops executed between flip
	// and retire (both epochs); DrainedHops counts only old-epoch hops.
	TransitionHops int64
	DrainedHops    int64
	// CarriedEvents is the total event knowledge admitted into the new
	// program's switch views at the flip barrier (summed over switches).
	CarriedEvents int
}

// Swap is the handle for one staged program replacement. Done is closed
// when the old program has fully drained and been retired; Stats is valid
// after Done.
type Swap struct {
	done  chan struct{}
	stats SwapStats
}

// Done returns a channel closed when the swap has completed.
func (s *Swap) Done() <-chan struct{} { return s.done }

// Stats returns the swap's statistics; call only after Done.
func (s *Swap) Stats() SwapStats { return s.stats }

// swapHandle is the engine-internal state of an active transition: at
// holds the engine's counts at the flip, which the retire subtracts.
type swapHandle struct {
	spec SwapSpec
	s    *Swap
	at   counts
}

// StageSwap stages a live program replacement. At the next generation
// barrier the engine installs the new program's plan, computes the new
// per-switch views by canonical event-history replay of the mapped old
// views, and flips ingress stamping to the new epoch; old-epoch packets
// keep draining through the old rules until none remain, at which point
// the old program is retired and the returned handle's Done channel
// closes. Forwarding never pauses. Only one swap may be active at a time.
//
// In synchronous mode the flip applies immediately (the engine is
// quiescent between calls by contract); in served mode it applies at the
// next barrier, and StageSwap returns once it has.
func (e *Engine) StageSwap(spec SwapSpec) (*Swap, error) {
	if spec.Plan == nil {
		return nil, fmt.Errorf("dataplane: StageSwap needs a lowered Plan")
	}
	s := &Swap{done: make(chan struct{})}
	s.stats.StagedAt = time.Now()
	r := spec.Plan.resolve(e.switches, e.swIdx) // immutable after NewEngine: safe off the barrier
	var err error
	e.Do(func() { err = e.flip(spec, r, s) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// flip runs at a generation barrier: phase one and two of the update.
func (e *Engine) flip(spec SwapSpec, r *resolved, s *Swap) error {
	if e.swap != nil {
		return fmt.Errorf("dataplane: a swap is already in progress")
	}
	old := e.cur()
	if spec.MapEvent != nil && len(spec.MapEvent) != len(old.nes.Events) {
		return fmt.Errorf("dataplane: MapEvent has %d entries for %d old events", len(spec.MapEvent), len(old.nes.Events))
	}
	np := e.newProgState(old.epoch+1, spec.Plan, r)
	carried := 0
	for i := range np.views {
		np.views[i] = np.nes.Replay(mapEvents(old.views[i], spec.MapEvent))
		carried += np.views[i].Count()
	}
	e.progs = append(e.progs, np)
	e.swap = &swapHandle{spec: spec, s: s, at: e.n}
	s.stats.FlipAt = time.Now()
	s.stats.FlipGen = e.gen
	s.stats.CarriedEvents = carried
	if e.met != nil {
		e.met.Inc(obs.CtrSwapFlips)
		e.met.SetGauge(obs.GaugeSwapDraining, 1)
	}
	e.swapPhase("flip", old.epoch, np.epoch, 0)
	e.retireIfDrained() // nothing in flight: flip and retire at one barrier
	if e.swap != nil {
		e.swapPhase("drain", old.epoch, np.epoch, old.inflight)
	}
	return nil
}

// retireIfDrained completes an active transition once the old epoch has
// no packets left in flight.
func (e *Engine) retireIfDrained() {
	if e.swap == nil || len(e.progs) < 2 {
		return
	}
	old := e.progs[0]
	if old.inflight > 0 {
		return
	}
	// Nothing the engine keeps may outlive the epoch: not the progs
	// backing array, not a worker's memo (the workers are parked here).
	e.progs[0] = nil
	e.progs = e.progs[1:]
	for _, wk := range e.ws {
		wk.curPS = nil
	}
	s := e.swap.s
	s.stats.RetiredAt = time.Now()
	s.stats.RetireGen = e.gen
	s.stats.TransitionHops = e.n[obs.CtrHops] - e.swap.at[obs.CtrHops]
	s.stats.DrainedHops = e.n[obs.CtrDrainedHops] - e.swap.at[obs.CtrDrainedHops]
	e.swap = nil
	if e.met != nil {
		e.met.Inc(obs.CtrSwapRetires)
		e.met.Observe(obs.HistSwapDrainNs, s.stats.RetiredAt.Sub(s.stats.FlipAt).Nanoseconds())
		e.met.SetGauge(obs.GaugeSwapDraining, 0)
	}
	e.swapPhase("retire", 0, e.cur().epoch, s.stats.DrainedHops)
	close(s.done)
}

// swapPhase records one phase of a transition on the bus and in the
// flight recorder (whichever are attached). Serial context only.
func (e *Engine) swapPhase(phase string, from, to int, inflight int64) {
	if e.bus != nil {
		e.bus.Publish(obs.Event{
			Kind: obs.KindSwap, Phase: phase,
			From: from, To: to, Gen: e.gen, Epoch: to, Inflight: inflight,
		})
	}
	if e.flight != nil {
		e.flight.Serial(obs.FlightRec{
			Kind: obs.FlightSwap, Phase: phase,
			From: int32(from), To: int32(to), Epoch: int32(to),
			Gen: e.gen, Seq: e.seq,
		})
	}
}

// mapEvents maps an old-program event set through a MapEvent table; a
// nil table maps every event away.
func mapEvents(s nes.Set, mapEvent []int) nes.Set {
	out := nes.Empty
	for _, ev := range s.Elems() {
		if ev < len(mapEvent) && mapEvent[ev] >= 0 {
			out = out.With(mapEvent[ev])
		}
	}
	return out
}

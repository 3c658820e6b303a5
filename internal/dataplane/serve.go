package dataplane

import "eventnet/internal/obs"

// Start launches the supervisor goroutine: the engine runs generations
// continuously, admitting InjectAsync packets and control requests at
// barriers. Start is idempotent; after Stop the engine stays stopped.
func (e *Engine) Start() {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.started || e.stopping {
		return
	}
	e.started = true
	e.serving = true
	go e.serve()
}

// Stop shuts the supervisor down: a running chunk ends at its next
// generation edge, remaining control requests are honored, queued
// packets stay in the rings, and every engine goroutine exits. Stop is
// idempotent —
// stopping twice, stopping mid-batch, or stopping a never-started engine
// are all safe — and returns only when the supervisor has exited.
func (e *Engine) Stop() {
	e.wmu.Lock()
	if !e.started {
		e.stopping = true // a later Start stays a no-op
		e.wmu.Unlock()
		return
	}
	e.stopping = true
	e.boundReq.Store(true) // end a running chunk at the next generation edge
	e.cond.Broadcast()
	e.wmu.Unlock()
	<-e.doneCh
}

// serve is the supervisor loop: boundaries (control, admissions, swap
// bookkeeping) interleaved with chunks of up to ChunkGens generations.
// Requests arriving mid-chunk raise boundReq, so the chunk ends at the
// next generation edge and boundary latency stays ~one generation.
func (e *Engine) serve() {
	defer close(e.doneCh)
	for {
		e.boundary()
		e.wmu.Lock()
		if e.stopping {
			e.serving = false
			e.cond.Broadcast()
			e.wmu.Unlock()
			e.runControl() // honor requests racing with Stop
			return
		}
		e.wmu.Unlock()
		if e.pending() > 0 {
			e.runChunk(e.chunkGens)
			continue
		}
		// Idle: wait for injections, control requests, or stop.
		e.wmu.Lock()
		for !e.stopping && len(e.inbox) == 0 && len(e.ctl) == 0 {
			e.idle = true
			e.cond.Broadcast()
			e.cond.Wait()
		}
		e.idle = false
		e.wmu.Unlock()
	}
}

// Do runs f atomically with respect to generations: on a serving engine
// it executes at the next barrier (blocking until done), otherwise
// inline. f sees quiescent engine state and may call the synchronous API
// (Inject, StageSwap internals, state accessors).
func (e *Engine) Do(f func()) {
	e.wmu.Lock()
	if !e.serving {
		e.wmu.Unlock()
		f()
		return
	}
	req := ctlReq{f: f, done: make(chan struct{})}
	e.ctl = append(e.ctl, req)
	e.boundReq.Store(true)
	e.cond.Broadcast()
	e.wmu.Unlock()
	<-req.done
}

// Quiesce blocks until the serving engine has no queued packets, no
// pending injections, and no active transition (it returns immediately on
// a non-serving engine, which is quiescent between calls by contract).
func (e *Engine) Quiesce() {
	for {
		e.wmu.Lock()
		if !e.serving {
			e.wmu.Unlock()
			return
		}
		for !(e.idle && len(e.inbox) == 0 && len(e.ctl) == 0) {
			if !e.serving {
				e.wmu.Unlock()
				return
			}
			e.cond.Wait()
		}
		e.wmu.Unlock()
		// The supervisor is idle: confirm nothing is in flight (it only
		// parks when rings are empty and no swap is draining).
		done := true
		e.Do(func() { done = e.pending() == 0 && e.swap == nil })
		if done {
			return
		}
	}
}

// Snapshot is a barrier-consistent view of the engine for monitoring.
type Snapshot struct {
	Epoch      int   // current ingress epoch
	Programs   int   // live program epochs (2 during a transition)
	Swapping   bool  // a transition is draining
	Generation int64 // generations executed
	Pending    int   // packets queued in rings
	Processed  int64 // total switch-hops executed
	Deliveries int   // packets delivered to hosts (total, beyond log retention)
	TTLDropped int64 // packets discarded by the forwarding-loop TTL
	States     int   // configurations of the current program
	Events     int   // events of the current program
	Switches   []SwitchStat
}

// SwitchStat is one switch's live state.
type SwitchStat struct {
	ID    int
	Hops  int64 // switch-hops executed here
	View  []int // current program's event view
	Queue int   // packets queued
}

// Snapshot returns a barrier-consistent snapshot (safe while serving).
func (e *Engine) Snapshot() Snapshot {
	var s Snapshot
	e.Do(func() {
		cp := e.cur()
		s = Snapshot{
			Epoch:      cp.epoch,
			Programs:   len(e.progs),
			Swapping:   e.swap != nil,
			Generation: e.gen,
			Pending:    e.pending(),
			Processed:  e.n[obs.CtrHops],
			Deliveries: int(e.n[obs.CtrDeliveries]),
			TTLDropped: e.n[obs.CtrTTLDrops],
			States:     len(cp.nes.Configs),
			Events:     len(cp.nes.Events),
		}
		for i, sw := range e.switches {
			s.Switches = append(s.Switches, SwitchStat{
				ID:    sw,
				Hops:  e.hops[i],
				View:  cp.views[i].Elems(),
				Queue: e.rings[i].len(),
			})
		}
	})
	return s
}

// Serving reports whether the supervisor goroutine is running. Unlike
// Snapshot it never does a barrier round trip, so it stays answerable
// even when the engine is wedged — health checks depend on that.
func (e *Engine) Serving() bool {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.serving
}

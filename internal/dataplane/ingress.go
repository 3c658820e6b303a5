package dataplane

import (
	"errors"
	"fmt"
	"time"

	"eventnet/internal/nes"
	"eventnet/internal/netkat"
	"eventnet/internal/obs"
)

// Every way a packet gets in, by one path: each entry point fills the
// flat Batch below — the map-form ones with fill, a wire decoder without
// building a map — and admit interns, stamps and queues it against the
// program current at the boundary, inline for the synchronous entry
// points and a non-serving engine, through the served-mode inbox
// otherwise. The per-packet boundary — host resolution, the one read of
// the header fields that checks their values, the intern, the ingress
// stamp — is the measured cost ahead of the ~100ns hop loop, so what is
// constant per admission (the program, the clock, each ingress switch's
// configuration tag) is read once per admission, and a batch amortizes
// the boundary over the whole slice while keeping per-packet semantics
// bit-identical to sequential injection.

// Inject stamps a packet entering from the named host with the current
// program's ingress-switch configuration tag (the IN rule) and queues it.
// Synchronous mode only: Inject must not race with Run or a served
// engine; use InjectAsyncBatch (or Do) there. The fields are copied out
// at the call.
func (e *Engine) Inject(host string, fields netkat.Packet) error {
	b := e.NewBatch()
	if errs := b.fill([]Injection{{Host: host, Fields: fields}}); errs != nil {
		b.Release()
		return errs[0]
	}
	e.admit(b, e.ingressClock(), nil)
	return nil
}

// versionAt returns the configuration tag of packets entering at switch
// index sw: ConfigFor hashes the switch's whole view, and no view can
// change inside an admission, so each admission computes it once per
// ingress switch into a scratch (tag+1; 0 = not yet) that admit clears.
func (e *Engine) versionAt(cp *progState, sw int) int {
	if e.versions[sw] == 0 {
		e.versions[sw] = int32(cp.nes.ConfigFor(cp.views[sw])) + 1
	}
	return int(e.versions[sw] - 1)
}

// ingress queues one interned packet entering at h, stamped (cp.epoch,
// version). Boundary context only (it consumes a seq and samples the
// tracer).
func (e *Engine) ingress(cp *progState, h *hostPort, version int, vals []int32, pres uint64, inert inertRef, tns int64) {
	e.seq++
	var tid int32
	if e.tracer != nil {
		tid = e.tracer.Sample(h.name, e.seq, e.gen, cp.epoch, version)
	}
	e.rings[h.sw].push(&qpkt{
		vals:    vals,
		pres:    pres,
		inert:   inert,
		inPort:  h.port,
		epoch:   cp.epoch,
		version: version,
		digest:  nes.Empty,
		seq:     e.seq,
		tns:     tns,
		trace:   tid,
	})
	cp.inflight++
}

// batchErr records a per-packet failure at index i of a batch, lazily
// allocating the error slice (the steady state is an error-free batch).
func batchErr(errs []error, n, i int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[i] = err
	return errs
}

// InjectBatch admits a batch of packets, semantically identical to
// calling Inject for each element in order: packets are stamped
// and queued in slice order, a packet that fails validation (unknown
// host, out-of-domain value) is skipped without consuming a sequence
// slot, and the rest of the batch is still admitted. stamps[i] is the
// (epoch, version) stamp of packet i; errs is nil when every packet was
// admitted, otherwise errs[i] non-nil marks the rejected packets (and
// stamps[i] is zero). Synchronous mode only, like Inject.
func (e *Engine) InjectBatch(ins []Injection) ([]Stamp, []error) {
	stamps := make([]Stamp, len(ins))
	b := e.NewBatch()
	errs := b.fill(ins)
	admitted := len(b.recs)
	e.admit(b, e.ingressClock(), stamps)
	if errs != nil {
		// Record k is the k-th admitted packet: move the stamps out to
		// their packets, back to front so none is overwritten unread.
		for i, k := len(ins)-1, admitted; i >= 0; i-- {
			st := Stamp{}
			if errs[i] == nil {
				k--
				st = stamps[k]
			}
			stamps[i] = st
		}
	}
	return stamps, errs
}

// batchRec is one record of a flat batch: count copies of a packet
// entering at host index host with fields pairs[lo:hi]. When numbered is
// not negative it is a field id, and copy j carries base+j in that field
// whatever the pairs say — how count-expansions stay distinguishable.
type batchRec struct {
	host     int32
	count    int32
	lo, hi   int32
	numbered int32
	base     int32
}

// Batch is a flat ingress batch: packets as (host index, field-id/int32
// pairs, count) records with the field names in a table of the batch's
// own, so filling one builds no map and its arrays hold no pointers.
// Batches are pooled per engine: take one with NewBatch, fill it —
// Field for each header field of a packet, then Commit (or Abort) —
// and hand it back with Submit or Release, after which it must not be
// touched. A Batch is not safe for concurrent use.
//
// Host indices are fixed for the engine's lifetime, but fields stay
// symbolic until admission: which of them a program can see is a
// property of the program current at that boundary, not of the one
// running when the batch was filled.
type Batch struct {
	e       *Engine
	names   []byte  // field names, concatenated
	nameEnd []int32 // field id i is names[nameEnd[i-1]:nameEnd[i]]
	hint    int32   // the id after the last one resolved: records repeat their key order
	pairs   []fieldPair
	open    int32 // pairs[open:] belong to the record being filled
	recs    []batchRec
	packets int // Σ count
}

// NewBatch returns an empty batch bound to this engine.
func (e *Engine) NewBatch() *Batch {
	if b, ok := e.batches.Get().(*Batch); ok {
		return b
	}
	return &Batch{e: e}
}

// Release returns the batch to its engine's pool without submitting it.
func (b *Batch) Release() {
	b.names, b.nameEnd, b.hint = b.names[:0], b.nameEnd[:0], 0
	b.pairs, b.open, b.recs, b.packets = b.pairs[:0], 0, b.recs[:0], 0
	b.e.batches.Put(b)
}

// Host resolves a host name to its index, false when the topology has
// no such host.
func (b *Batch) Host(name []byte) (int32, bool) {
	hi, ok := b.e.hostIdx[string(name)]
	return hi, ok
}

// FieldID returns the batch-local id of a field name, assigning the next
// one (ids are dense from 0) on first sight. The table is scanned
// linearly from where the previous lookup ended, which is one comparison
// when packets repeat their key order; callers decoding untrusted input
// bound the ids they accept.
func (b *Batch) FieldID(name []byte) int32 {
	n := int32(len(b.nameEnd))
	for k := int32(0); k < n; k++ {
		id := b.hint + k
		if id >= n {
			id -= n
		}
		if string(b.fieldName(id)) == string(name) {
			b.hint = id + 1
			return id
		}
	}
	b.names = append(b.names, name...)
	b.nameEnd = append(b.nameEnd, int32(len(b.names)))
	b.hint = 0
	return n
}

// nameSpan returns where field id's name lies in the name table.
func (b *Batch) nameSpan(id int32) (lo, hi int32) {
	if id > 0 {
		lo = b.nameEnd[id-1]
	}
	return lo, b.nameEnd[id]
}

func (b *Batch) fieldName(id int32) []byte {
	lo, hi := b.nameSpan(id)
	return b.names[lo:hi]
}

// Field adds a header field to the record being filled.
func (b *Batch) Field(id, val int32) {
	b.pairs = append(b.pairs, fieldPair{id: id, val: val})
}

// Commit closes the record being filled: count (at least 1) copies of
// the packet enter at host index host.
func (b *Batch) Commit(host, count int32) { b.CommitNumbered(host, count, -1, 0) }

// CommitNumbered is Commit with the copies told apart: copy j carries
// base+j in field id numbered, overriding any value Field gave it.
func (b *Batch) CommitNumbered(host, count, numbered, base int32) {
	end := int32(len(b.pairs))
	b.recs = append(b.recs, batchRec{host: host, count: count, lo: b.open, hi: end, numbered: numbered, base: base})
	b.open = end
	b.packets += int(count)
}

// Abort discards the record being filled.
func (b *Batch) Abort() { b.pairs = b.pairs[:b.open] }

// Packets returns how many packets the committed records expand to.
func (b *Batch) Packets() int { return b.packets }

// Injections returns the committed records in map form with their copy
// counts — the inverse of filling a batch, for tests that hold a
// decoder against a reference.
func (b *Batch) Injections() ([]Injection, []int) {
	ins := make([]Injection, len(b.recs))
	counts := make([]int, len(b.recs))
	for i, r := range b.recs {
		f := make(netkat.Packet, r.hi-r.lo)
		for _, p := range b.pairs[r.lo:r.hi] {
			f[string(b.fieldName(p.id))] = int(p.val)
		}
		ins[i] = Injection{Host: b.e.hosts[r.host].name, Fields: f}
		counts[i] = int(r.count)
	}
	return ins, counts
}

// maxInboxPackets bounds what a serving engine queues between
// boundaries. Boundaries turn every few generations, so the inbox holds
// a few batches unless clients post faster than the engine admits or a
// Do holds the supervisor; then memory must not follow the clients.
const maxInboxPackets = 1 << 20

// ErrInboxFull refuses a batch that would take a serving engine's inbox
// past maxInboxPackets: none of its packets was queued. Retry later.
var ErrInboxFull = errors.New("dataplane: ingress queue full")

// Submit queues the batch for admission at the next boundary of a
// serving engine — one lock, one supervisor wake-up — and gives it up,
// whether it is queued or refused with ErrInboxFull (the shed packets
// are counted in obs.CtrIngressShed). On a non-serving engine it is
// admitted inline (synchronous contract).
func (b *Batch) Submit() error {
	e := b.e
	if len(b.recs) == 0 {
		b.Release()
		return nil
	}
	e.wmu.Lock()
	if !e.serving {
		e.wmu.Unlock()
		e.admit(b, e.ingressClock(), nil)
		return nil
	}
	if e.inboxPkts+b.packets > maxInboxPackets {
		e.wmu.Unlock()
		if e.met != nil {
			e.met.Add(obs.CtrIngressShed, int64(b.packets))
		}
		b.Release()
		return ErrInboxFull
	}
	e.inboxPkts += b.packets
	e.inbox = append(e.inbox, b)
	e.boundReq.Store(true)
	e.cond.Broadcast()
	e.wmu.Unlock()
	return nil
}

// fill adds the map-form injections to an empty batch, one record each
// in slice order, checking each packet's host and every value's int32
// flat-value domain; a rejected packet leaves no record. errs follows
// the InjectBatch convention (nil = all added). Iterating a Go map costs
// several times what looking a few keys up does, so a packet with as
// many fields as the last one added is first read by looking up that
// packet's names (keys[id]: field id's name); only a packet that lacks
// one of them is walked.
func (b *Batch) fill(ins []Injection) []error {
	var errs []error
	var buf [8]string
	keys := buf[:0]
	pairs, recs := b.pairs, b.recs
	plo, phi := 0, -1 // the last added packet's pairs
	for bi := range ins {
		in := &ins[bi]
		hi, ok := b.e.hostIdx[in.Host]
		if !ok {
			errs = batchErr(errs, len(ins), bi, fmt.Errorf("dataplane: unknown host %q", in.Host))
			continue
		}
		lo := len(pairs)
		var err error
		repeat := phi-plo == len(in.Fields)
		for k := plo; repeat && err == nil && k < phi; k++ {
			id := pairs[k].id
			v, ok := in.Fields[keys[id]]
			if repeat = ok; int(int32(v)) != v {
				err = domainErr(keys[id], v)
			}
			pairs = append(pairs, fieldPair{id: id, val: int32(v)})
		}
		if !repeat {
			pairs = pairs[:lo]
			for f, v := range in.Fields {
				if int(int32(v)) != v {
					err = domainErr(f, v)
					break
				}
				id := b.FieldID([]byte(f))
				if int(id) == len(keys) {
					keys = append(keys, f)
				}
				pairs = append(pairs, fieldPair{id: id, val: int32(v)})
			}
		}
		if err != nil {
			pairs = pairs[:lo]
			errs = batchErr(errs, len(ins), bi, err)
			continue
		}
		recs = append(recs, batchRec{host: hi, count: 1, lo: int32(lo), hi: int32(len(pairs)), numbered: -1})
		plo, phi = lo, len(pairs)
	}
	b.packets += len(recs) - len(b.recs)
	b.pairs, b.open, b.recs = pairs, int32(len(pairs)), recs
	return errs
}

// InjectAsyncBatch queues a batch for admission at one boundary of a
// serving engine: validation (host and value domain) happens here,
// per-packet, outside the boundary, and the admissible packets cost one
// supervisor round trip for the whole batch instead of one per packet.
// errs follows the InjectBatch convention (nil = all admitted); when the
// inbox refuses the batch, every packet that was admissible reports
// ErrInboxFull. On a non-serving engine the batch is admitted inline.
func (e *Engine) InjectAsyncBatch(ins []Injection) []error {
	b := e.NewBatch()
	errs := b.fill(ins)
	if err := b.Submit(); err != nil {
		for bi := range ins {
			if errs == nil || errs[bi] == nil {
				errs = batchErr(errs, len(ins), bi, err)
			}
		}
	}
	return errs
}

// admit stamps and interns a flat batch against the program current
// now, queues its packets, writes record i's stamp to stamps[i] when
// stamps is not nil, and recycles the batch. Boundary context only.
//
// Interning is a table lookup: each of the batch's field names resolves
// once to its schema slot (or to none: inert for this program), then a
// record is one pass over its pairs, and each further copy of a counted
// record a copy of its value array. The inert pairs of the whole batch
// go into one inertSet allocated here, whose name table is the batch's
// (substrings of one copy of its name bytes, made only when something
// is inert).
func (e *Engine) admit(b *Batch, now int64, stamps []Stamp) {
	cp := e.cur()
	width := cp.schema.Len()
	wk := e.ws[0]
	clear(e.versions)

	slots := e.slots[:0]
	anyInert := false
	lo := int32(0)
	for _, end := range b.nameEnd {
		slot := int16(cp.schema.slot(string(b.names[lo:end])))
		if slot < 0 {
			anyInert = true
		}
		slots = append(slots, slot)
		lo = end
	}
	e.slots = slots

	var inert *inertSet
	if anyInert {
		// Room for every pair of the batch: enough unless a numbered
		// record's copies each need their own (then append grows it;
		// packets refer to the set by index, so it may move).
		inert = &inertSet{names: make([]string, len(slots)), pairs: make([]fieldPair, 0, len(b.pairs))}
		names := string(b.names)
		for id := range slots {
			lo, hi := b.nameSpan(int32(id))
			inert.names[id] = names[lo:hi]
		}
	}

	for ri := range b.recs {
		r := &b.recs[ri]
		h := &e.hosts[r.host]
		version := e.versionAt(cp, h.sw)
		if stamps != nil {
			stamps[ri] = Stamp{Epoch: cp.epoch, Version: version}
		}
		// The record's values and inert pairs less the numbered field:
		// what every copy carries.
		vals := wk.takeVals(width)
		pres := uint64(0)
		lo := inert.len()
		for _, p := range b.pairs[r.lo:r.hi] {
			if slot := slots[p.id]; slot >= 0 {
				vals[slot] = p.val
				pres |= 1 << uint(slot)
			} else if p.id != r.numbered {
				inert.pairs = append(inert.pairs, p)
			}
		}
		shared := inert.since(lo)
		for j := int32(0); j < r.count; j++ {
			own, v := shared, vals
			if j+1 < r.count {
				v = wk.copyVals(vals) // the last copy takes the original
			}
			if r.numbered >= 0 {
				if slot := slots[r.numbered]; slot >= 0 {
					v[slot] = r.base + j
					pres |= 1 << uint(slot)
				} else {
					lo := len(inert.pairs)
					if shared.set != nil {
						inert.pairs = append(inert.pairs, inert.pairs[shared.lo:shared.hi]...)
					}
					inert.pairs = append(inert.pairs, fieldPair{id: r.numbered, val: r.base + j})
					own = inert.since(lo)
				}
			}
			e.ingress(cp, h, version, v, pres, own, now)
		}
	}
	e.n[obs.CtrInjections] += int64(b.packets)
	b.Release()
}

// admitInbox admits the queued flat batches (served mode) in arrival
// order, all stamped with one clock read.
func (e *Engine) admitInbox() {
	e.wmu.Lock()
	batches := e.inbox
	e.inbox, e.inboxPkts = e.admitting[:0], 0
	e.wmu.Unlock()
	if len(batches) > 0 {
		now := e.ingressClock()
		for i, b := range batches {
			e.admit(b, now, nil)
			batches[i] = nil
		}
	}
	e.admitting = batches
}

// ingressClock reads the injection timestamp for one admission (0 with
// metrics off) and refreshes the delivery-latency clock cache.
func (e *Engine) ingressClock() int64 {
	if e.met == nil {
		return 0
	}
	now := time.Now().UnixNano()
	e.setNow(now)
	return now
}

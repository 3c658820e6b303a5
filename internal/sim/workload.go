package sim

import (
	"eventnet/internal/netkat"
)

// Field names used by workloads. FieldKind distinguishes echo requests
// (1) from replies (2); the applications' policies do not match on these,
// so they ride along transparently.
const (
	FieldSrc  = "src"
	FieldDst  = "dst"
	FieldKind = "kind"
	FieldID   = "id"

	KindRequest = 1
	KindReply   = 2
)

// Ping is one echo exchange's outcome.
type Ping struct {
	ID      int
	SentAt  float64
	ReplyAt float64
	Replied bool
	Reached bool // the request was delivered to the target
	ReachAt float64
}

// PingStats tracks a ping workload.
type PingStats struct {
	Pings []Ping
	byID  map[int]int
}

// Succeeded returns how many pings completed (request delivered and reply
// received).
func (ps *PingStats) Succeeded() int {
	n := 0
	for _, p := range ps.Pings {
		if p.Replied {
			n++
		}
	}
	return n
}

// Dropped returns how many pings did not complete.
func (ps *PingStats) Dropped() int { return len(ps.Pings) - ps.Succeeded() }

// EnableEcho makes the named host answer echo requests: on receiving a
// kind=1 packet it emits a kind=2 packet back to the source address.
func EnableEcho(s *Sim, host string) {
	h, ok := s.Topo.HostByName(host)
	if !ok {
		return
	}
	self := h.ID
	s.OnReceive(host, func(s *Sim, fields netkat.Packet, _ float64) {
		if fields[FieldKind] != KindRequest {
			return
		}
		src, ok := fields[FieldSrc]
		if !ok {
			return
		}
		reply := netkat.Packet{
			FieldDst:  src,
			FieldSrc:  self,
			FieldKind: KindReply,
			FieldID:   fields[FieldID],
		}
		s.Send(host, reply)
	})
}

// StartPings schedules `count` echo requests from src to dst, spaced by
// `interval`, starting at `start`. IDs begin at idBase so concurrent
// workloads stay distinguishable. The destination must have EnableEcho.
func StartPings(s *Sim, src, dst string, start, interval float64, count, idBase int) *PingStats {
	stats := &PingStats{byID: map[int]int{}}
	hs, _ := s.Topo.HostByName(src)
	hd, ok := s.Topo.HostByName(dst)
	if !ok {
		return stats
	}
	// Track request arrivals at dst and replies back at src.
	s.OnReceive(dst, func(sm *Sim, fields netkat.Packet, at float64) {
		if fields[FieldKind] != KindRequest || fields[FieldSrc] != hs.ID {
			return
		}
		if i, ok := stats.byID[fields[FieldID]]; ok && !stats.Pings[i].Reached {
			stats.Pings[i].Reached = true
			stats.Pings[i].ReachAt = at
		}
	})
	s.OnReceive(src, func(sm *Sim, fields netkat.Packet, at float64) {
		if fields[FieldKind] != KindReply || fields[FieldSrc] != hd.ID {
			return
		}
		if i, ok := stats.byID[fields[FieldID]]; ok && !stats.Pings[i].Replied {
			stats.Pings[i].Replied = true
			stats.Pings[i].ReplyAt = at
		}
	})
	s.generate(start, interval, count, func(i int) {
		id := idBase + i
		stats.byID[id] = len(stats.Pings)
		stats.Pings = append(stats.Pings, Ping{ID: id, SentAt: s.Now()})
		s.Send(src, netkat.Packet{
			FieldDst:  hd.ID,
			FieldSrc:  hs.ID,
			FieldKind: KindRequest,
			FieldID:   id,
		})
	})
	return stats
}

// Bulk is a bulk-transfer measurement.
type Bulk struct {
	BytesDelivered int
	PacketsSent    int
	PacketsRecv    int
	Duration       float64
}

// Goodput returns delivered payload bytes per second.
func (b *Bulk) Goodput() float64 {
	if b.Duration <= 0 {
		return 0
	}
	return float64(b.BytesDelivered) / b.Duration
}

// LossPct returns the percentage of sent packets not delivered.
func (b *Bulk) LossPct() float64 {
	if b.PacketsSent == 0 {
		return 0
	}
	return 100 * float64(b.PacketsSent-b.PacketsRecv) / float64(b.PacketsSent)
}

// StartBulk runs a one-way bulk transfer (the iperf stand-in of
// Figure 16a): src sends fixed-size packets to dst at the given rate
// (packets/second) from `start` for `duration` seconds. Only deliveries
// inside the [start, start+duration] window count toward goodput, so a
// saturating sender measures the path's sustainable rate. Returns the
// measurement, valid after the simulation runs past start+duration.
func StartBulk(s *Sim, src, dst string, start, duration, rate float64, idBase int) *Bulk {
	b := &Bulk{Duration: duration}
	hs, _ := s.Topo.HostByName(src)
	hd, ok := s.Topo.HostByName(dst)
	if !ok {
		return b
	}
	cutoff := start + duration
	s.OnReceive(dst, func(sm *Sim, fields netkat.Packet, at float64) {
		if fields[FieldSrc] != hs.ID || fields[FieldKind] != 0 {
			return
		}
		b.PacketsRecv++
		if at <= cutoff {
			b.BytesDelivered += sm.Params.PayloadBytes
		}
	})
	interval := 1.0 / rate
	n := int(duration * rate)
	s.generate(start, interval, n, func(i int) {
		b.PacketsSent++
		s.Send(src, netkat.Packet{FieldDst: hd.ID, FieldSrc: hs.ID, FieldID: idBase + i})
	})
	return b
}

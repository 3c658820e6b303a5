package main

import (
	"strings"
	"testing"

	"eventnet/internal/apps"
	"eventnet/internal/ctrl"
	"eventnet/internal/dataplane"
)

// A check that cannot fail measures nothing: each test below hands a
// checker one corrupted input and asserts it is flagged.

// auditedFirewall returns a clean audited scenario: the firewall, 256
// packets, every delivery.
func auditedFirewall(t *testing.T) (*auditor, []sentPacket, []dataplane.Delivery) {
	t.Helper()
	c, err := compileApp(apps.Firewall())
	if err != nil {
		t.Fatal(err)
	}
	sent, ds, _, err := auditedTraffic(c, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("scenario delivered nothing; the self-test needs deliveries to corrupt")
	}
	return newAuditor(c.app.Topo, []*ctrl.Program{c.prog}), sent, ds
}

func cloneDeliveries(ds []dataplane.Delivery) []dataplane.Delivery {
	out := make([]dataplane.Delivery, len(ds))
	for i, d := range ds {
		out[i] = dataplane.Delivery{Host: d.Host, Fields: d.Fields.Clone(), Stamp: d.Stamp}
	}
	return out
}

func TestAuditorFlagsCorruption(t *testing.T) {
	a, sent, ds := auditedFirewall(t)
	if c := a.audit(sent, ds); !c.clean() || c.Checked != len(ds) {
		t.Fatalf("clean scenario audited as %+v", c)
	}

	flipped := cloneDeliveries(ds)
	flipped[0].Fields["dst"]++
	if c := a.audit(sent, flipped); c.Mixed == 0 {
		t.Errorf("flipped field not flagged: %+v", c)
	}

	restamped := cloneDeliveries(ds)
	restamped[0].Stamp.Version++
	if c := a.audit(sent, restamped); c.Mixed == 0 {
		t.Errorf("wrong stamp not flagged: %+v", c)
	}

	wrongEpoch := cloneDeliveries(ds)
	wrongEpoch[0].Stamp.Epoch = 7
	if c := a.audit(sent, wrongEpoch); c.Mixed == 0 {
		t.Errorf("unknown epoch not flagged: %+v", c)
	}

	if c := a.audit(sent, ds[1:]); c.Dropped != 1 || c.Mixed != 0 {
		t.Errorf("missing delivery: got %+v, want exactly one dropped", c)
	}

	dup := append(cloneDeliveries(ds), ds[0])
	if c := a.audit(sent, dup); c.Mixed == 0 {
		t.Errorf("duplicated delivery not flagged: %+v", c)
	}
}

func TestSampledAuditFlagsCorruption(t *testing.T) {
	a, sent, ds := auditedFirewall(t)
	sample := ds[:len(ds)/2]
	if c := a.auditSampled(sent, sample); c.Mixed != 0 || c.Checked != len(sample) {
		t.Fatalf("clean sample audited as %+v", c)
	}
	flipped := cloneDeliveries(sample)
	flipped[0].Fields["dst"]++
	if c := a.auditSampled(sent, flipped); c.Mixed != 1 {
		t.Errorf("flipped field in a sampled delivery: %+v", c)
	}
	wrongHost := cloneDeliveries(sample)
	wrongHost[0].Host = "H1"
	if wrongHost[0].Host == sample[0].Host {
		wrongHost[0].Host = "H4"
	}
	if c := a.auditSampled(sent, wrongHost); c.Mixed != 1 {
		t.Errorf("wrong host in a sampled delivery: %+v", c)
	}
	noID := cloneDeliveries(sample)
	delete(noID[0].Fields, "id")
	if c := a.auditSampled(sent, noID); c.Mixed != 1 {
		t.Errorf("delivery without an id: %+v", c)
	}
}

func TestConservationFlagsLoss(t *testing.T) {
	ok := conservation{Sent: 6400, Acked: 6400, Admitted: 6400}
	if v := ok.verdict(); v != "" {
		t.Fatalf("balanced books flagged: %s", v)
	}
	for name, c := range map[string]conservation{
		"a packet the daemon never acknowledged": {Sent: 6400, Acked: 6399, Admitted: 6400},
		"a packet the daemon never admitted":     {Sent: 6400, Acked: 6400, Admitted: 6399},
		"a packet stranded after /quiesce":       {Sent: 6400, Acked: 6400, Admitted: 6400, Pending: 1},
		"a refused request":                      {Sent: 6400, Acked: 6400, Admitted: 6400, Non200: 1},
	} {
		if c.verdict() == "" {
			t.Errorf("%s was not flagged", name)
		}
	}
}

func TestNetdStderrPanicIsFlagged(t *testing.T) {
	n := &netdChild{stderr: &lockedBuffer{}}
	n.stderr.Write([]byte("2026/01/01 netd: dev serving bandwidth-cap-200\n"))
	if err := n.panicked(); err != nil {
		t.Fatalf("clean stderr flagged: %v", err)
	}
	n.stderr.Write([]byte("panic: runtime error: index out of range [3] with length 3\n"))
	if err := n.panicked(); err == nil {
		t.Error("a panic line on stderr was not flagged")
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("# HELP eventnet_hops_total x\n# TYPE eventnet_hops_total counter\neventnet_hops_total 42\neventnet_hop_ns_bucket{le=\"1\"} 3\neventnet_hop_ns_sum 99\n"))
	if err != nil || m["eventnet_hops_total"] != 42 || m["eventnet_hop_ns_sum"] != 99 || len(m) != 2 {
		t.Errorf("parsed %v, %v", m, err)
	}
}

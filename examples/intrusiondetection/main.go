// Intrusion detection (Figure 9e): all traffic flows freely until H4
// scans H1 and then H2 in order, at which point access to H3 is revoked.
// This example runs the Figure 7 abstract machine under many random
// schedules and verifies every execution against the Definition 6 oracle
// — the empirical content of Theorem 1.
package main

import (
	"fmt"
	"log"

	"eventnet"
	"eventnet/internal/apps"
	"eventnet/internal/netkat"
)

func main() {
	app := eventnet.IDS()
	sys, err := eventnet.Compile(app.Prog, app.Topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: locally determined (Compile refuses any other NES)\n", app.Name)

	// Scripted run: scan H1 then H2 (with replies carrying the digests
	// back to the hub), then try H3.
	m := sys.NewMachine(7, false)
	send := func(host string, dst int) {
		if err := m.Inject(host, netkat.Packet{apps.FieldDst: dst}); err != nil {
			log.Fatal(err)
		}
		if err := m.RunToQuiescence(); err != nil {
			log.Fatal(err)
		}
	}
	send("H4", apps.H(3))
	fmt.Printf("before scan: H3 received %d\n", len(m.DeliveredTo("H3")))
	send("H4", apps.H(1))
	send("H1", apps.H(4)) // reply: s4 hears about the first scan event
	send("H4", apps.H(2))
	send("H2", apps.H(4)) // reply: s4 hears about the second
	send("H4", apps.H(3))
	fmt.Printf("after scan:  H3 received %d (unchanged — access revoked)\n", len(m.DeliveredTo("H3")))
	if err := sys.CheckTrace(m.NetTrace()); err != nil {
		log.Fatalf("oracle: %v", err)
	}

	// Random schedules: every interleaving must satisfy Definition 6.
	checked := 0
	for seed := int64(1); seed <= 50; seed++ {
		m := sys.NewMachine(seed, seed%2 == 0)
		for _, dst := range []int{apps.H(3), apps.H(1), apps.H(2), apps.H(3)} {
			if err := m.Inject("H4", netkat.Packet{apps.FieldDst: dst}); err != nil {
				log.Fatal(err)
			}
			for i := int64(0); i < seed%5; i++ {
				m.Step()
			}
		}
		if err := m.RunToQuiescence(); err != nil {
			log.Fatal(err)
		}
		if err := sys.CheckTrace(m.NetTrace()); err != nil {
			log.Fatalf("seed %d: consistency violated: %v", seed, err)
		}
		checked++
	}
	fmt.Printf("verified %d random-schedule executions against Definition 6\n", checked)
}

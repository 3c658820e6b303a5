// Command netsim runs one timed scenario on an application, under the
// correct (tagged) data plane or the uncoordinated baseline, and prints a
// ping timeline — the raw material of Figures 11-15.
//
// Usage:
//
//	netsim -app firewall -plane tagged
//	netsim -app firewall -plane uncoord -delay 2.5
//	netsim -app bandwidth-cap -cap 10 -pings 18
package main

import (
	"flag"
	"fmt"
	"os"

	"eventnet/internal/apps"
	"eventnet/internal/ets"
	"eventnet/internal/sim"
)

func main() {
	appName := flag.String("app", "firewall", "application: firewall, learning-switch, authentication, bandwidth-cap, ids, ring")
	plane := flag.String("plane", "tagged", "data plane: tagged (correct) or uncoord (baseline)")
	delay := flag.Float64("delay", 2.0, "uncoordinated install delay, seconds")
	pings := flag.Int("pings", 12, "pings per scripted flow")
	capN := flag.Int("cap", 10, "bandwidth cap n")
	ringD := flag.Int("diameter", 3, "ring diameter")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	a, err := apps.ByName(*appName, apps.Params{Cap: *capN, Diameter: *ringD})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	kind := sim.PlaneKindTagged
	if *plane == "uncoord" {
		kind = sim.PlaneKindUncoord
	} else if *plane != "tagged" {
		fmt.Fprintf(os.Stderr, "netsim: unknown plane %q\n", *plane)
		os.Exit(1)
	}

	_, n, _, err := ets.Compile(a.Prog, a.Topo, nil, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	p := sim.DefaultParams()
	p.InstallDelay = *delay
	s := sim.New(a.Topo, sim.NewPlane(kind, n), p, *seed)

	// Scripted flows per application.
	type flow struct {
		src, dst string
		start    float64
	}
	var flows []flow
	switch *appName {
	case "firewall", "bandwidth-cap":
		sim.EnableEcho(s, "H1")
		sim.EnableEcho(s, "H4")
		flows = []flow{{"H4", "H1", 0.5}, {"H1", "H4", 2.0}, {"H4", "H1", 4.0}}
		if *appName == "bandwidth-cap" {
			flows = []flow{{"H1", "H4", 0.5}}
		}
	case "learning-switch":
		sim.EnableEcho(s, "H1")
		flows = []flow{{"H4", "H1", 0.5}}
	case "authentication", "ids":
		for _, h := range []string{"H1", "H2", "H3", "H4"} {
			sim.EnableEcho(s, h)
		}
		flows = []flow{
			{"H4", "H3", 0.5}, {"H4", "H1", 2.0}, {"H4", "H3", 3.5},
			{"H4", "H2", 5.0}, {"H4", "H3", 6.5},
		}
	case "ring":
		sim.EnableEcho(s, "H2")
		flows = []flow{{"H1", "H2", 0.5}}
	default:
		fmt.Fprintf(os.Stderr, "netsim: no flow script for app %q\n", *appName)
		os.Exit(1)
	}

	var stats []*sim.PingStats
	var labels []string
	for i, f := range flows {
		stats = append(stats, sim.StartPings(s, f.src, f.dst, f.start, 0.25, *pings, 1000*(i+1)))
		labels = append(labels, f.src+"->"+f.dst)
	}
	s.Run(20)

	fmt.Printf("app=%s plane=%s delay=%.1fs\n", a.Name, *plane, *delay)
	for i, st := range stats {
		fmt.Printf("flow %-8s: %d/%d pings succeeded\n", labels[i], st.Succeeded(), len(st.Pings))
		for _, pg := range st.Pings {
			mark := "drop"
			if pg.Replied {
				mark = fmt.Sprintf("rtt=%.1fms", 1000*(pg.ReplyAt-pg.SentAt))
			}
			fmt.Printf("  t=%6.2fs %s %s\n", pg.SentAt, labels[i], mark)
		}
	}
}

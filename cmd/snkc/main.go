// Command snkc is the Stateful NetKAT compiler driver: it takes a program
// (a source file, or one of the built-in paper applications), runs the
// full pipeline — projection, event extraction, ETS checks, NES
// construction, flow-table generation — and prints the artifacts. A
// program whose state graph has loops is compiled as an -unroll-round
// unrolling, after a note saying whether its loops meet the paper's
// locality condition (read from the loop report Build returns). A program
// whose NES is not locally determined is refused with ets.Compile's
// evidence: Theorem 1 covers no other.
//
// Usage:
//
//	snkc -app firewall
//	snkc -src prog.snk -init 0,0 -topo star
//	snkc -app ids -optimize
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"eventnet/internal/apps"
	"eventnet/internal/dataplane"
	"eventnet/internal/ets"
	"eventnet/internal/flowtable"
	"eventnet/internal/nes"
	"eventnet/internal/nkc"
	"eventnet/internal/optimize"
	"eventnet/internal/stateful"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
)

func main() {
	appName := flag.String("app", "", "built-in application: firewall, learning-switch, authentication, bandwidth-cap, ids, ring, walled-garden, distributed-firewall, ids-fattree, failover-diamond, failover-wan, failover-fattree")
	srcPath := flag.String("src", "", "Stateful NetKAT source file")
	topoName := flag.String("topo", "firewall", "topology for -src: firewall, learning-switch, star, ring")
	initVec := flag.String("init", "0", "initial state vector for -src, e.g. 0,0")
	ringD := flag.Int("diameter", 3, "ring diameter (for ring app/topology)")
	capN := flag.Int("cap", 10, "bandwidth cap n")
	arity := flag.Int("arity", 4, "fat-tree arity k for ids-fattree and failover-fattree (k=10 is the 125-switch 10x workload)")
	doOpt := flag.Bool("optimize", false, "run the Section 5.3 rule-sharing heuristic")
	showTables := flag.Bool("tables", false, "print per-configuration flow tables")
	unroll := flag.Int("unroll", 4, "unrolling bound for programs with state-graph loops")
	flag.Parse()

	prog, tp, name, err := loadProgram(*appName, *srcPath, *topoName, *initVec, *ringD, *capN, *arity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snkc:", err)
		os.Exit(1)
	}

	// One compiler cache for both builds: the unrolling of a cyclic
	// program reuses what the build that found its loops compiled.
	cache := nkc.NewProgramCache()
	e, n, _, err := ets.Compile(prog, tp, cache, 0)
	var loop *ets.LoopError
	if errors.As(err, &loop) {
		fmt.Printf("note: the state graph has loops (locality %v); compiling a %d-round unrolling\n", loop.Report.LocalityOK, *unroll)
		e, n, _, err = ets.Compile(prog, tp, cache, *unroll)
	}
	if err == nil {
		err = dataplane.CheckFields(dataplane.ProgramFields(n))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snkc:", err)
		os.Exit(1)
	}
	report(e, n, name, *doOpt, *showTables)
}

// report prints the compiled artifacts.
func report(e *ets.ETS, n *nes.NES, name string, doOpt, showTables bool) {
	fmt.Printf("program %s\n\n", name)
	fmt.Print(e)
	fmt.Println()
	fmt.Print(n)
	fmt.Println("locally determined: true")

	total := 0
	for _, v := range e.Vertices {
		total += v.Tables.TotalRules()
	}
	fmt.Printf("flow rules (all configurations): %d\n", total)

	if showTables {
		for _, v := range e.Vertices {
			fmt.Printf("\nconfiguration %v:\n%v", v.State, v.Tables)
		}
	}

	if doOpt {
		var tabs []flowtable.Tables
		for _, v := range e.Vertices {
			tabs = append(tabs, v.Tables)
		}
		configs, _ := optimize.FromTables(tabs)
		g, err := optimize.Greedy(configs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snkc: optimize:", err)
			os.Exit(1)
		}
		fmt.Printf("optimized rules (trie heuristic): %d -> %d (%.1f%% saved)\n",
			optimize.Naive(configs), g.TotalRules(),
			100*float64(optimize.Naive(configs)-g.TotalRules())/float64(optimize.Naive(configs)))
	}
}

func loadProgram(appName, srcPath, topoName, initVec string, ringD, capN, arity int) (stateful.Program, *topo.Topology, string, error) {
	if appName != "" {
		a, err := apps.ByName(appName, apps.Params{Cap: capN, Diameter: ringD, Arity: arity})
		if err != nil {
			return stateful.Program{}, nil, "", err
		}
		return a.Prog, a.Topo, a.Name, nil
	}
	if srcPath == "" {
		return stateful.Program{}, nil, "", fmt.Errorf("one of -app or -src is required")
	}
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return stateful.Program{}, nil, "", err
	}
	var init []int
	for _, part := range strings.Split(initVec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return stateful.Program{}, nil, "", fmt.Errorf("bad -init: %v", err)
		}
		init = append(init, v)
	}
	prog, err := syntax.ParseProgram(string(src), init)
	if err != nil {
		return stateful.Program{}, nil, "", err
	}
	var tp *topo.Topology
	switch topoName {
	case "firewall":
		tp = topo.Firewall()
	case "learning-switch":
		tp = topo.LearningSwitch()
	case "star":
		tp = topo.Star()
	case "ring":
		tp = topo.Ring(ringD)
	default:
		return stateful.Program{}, nil, "", fmt.Errorf("unknown topology %q", topoName)
	}
	return prog, tp, srcPath, nil
}

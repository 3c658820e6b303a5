package main

// workloads is the catalog of native metrics: what each workload
// reports, under the names README.md documents. A run that emits a
// metric not declared here, or misses one that is, fails the smoke test
// (catalog drift).

func lo(name, unit string) def { return def{Name: name, Unit: unit, Better: "lower"} }
func hi(name, unit string) def { return def{Name: name, Unit: unit, Better: "higher"} }

func (d def) exact() def { d.Exact = true; return d }

// gate makes a native metric an end-to-end one with a bound.
func (d def) gate(bound float64) def { d.Bound = bound; return d }

// benchLayer is what every traced run reports beside its workload's own
// layer metrics: the harness's pair, and the resource use of the system
// under test over the timed region.
var benchLayer = []def{
	hi("bench.span_coverage_pct", "%"), lo("bench.trace_overhead_pct", "%"), hi("bench.ref_scale", "ratio"),
	lo("sut.cpu_cores", "cores"), lo("sut.alloc_mb_per_s", "MiB/s"), lo("sut.gc_cycles", "count"),
}

func layers(ds ...def) []def { return append(append([]def{}, benchLayer...), ds...) }

var workloads = []workloadDef{
	{
		Name: "wire-inject",
		Why:  "the real netd over loopback HTTP: the only workload where the HTTP/JSON boundary does most of the work and the hop loop little; batch vs single-packet splits per-packet from per-request cost",
		Run:  runWireInject,
		Headline: [3]def{
			hi("wire_pps", "packets/s").gate(0.20),
			lo("wire_req_p25_us", "us").gate(0.20),
			hi("wire_rps_b1", "requests/s").gate(0.25),
		},
		Layer: layers(
			lo("client.req_p99_us_b64", "us"), lo("client.req_p99_us_b1", "us"), lo("client.req_p50_us_b1", "us"),
			lo("client.open_p50_us", "us"), lo("client.open_p99_us", "us"), lo("client.lateness_p99_us", "us"),
			lo("client.body_bytes_per_pkt", "B"),
			lo("netd.serve_p50_us_b64", "us"), lo("netd.serve_p50_us_b1", "us"),
			lo("netd.cpu_us_per_pkt_b64", "us"), lo("netd.cpu_us_per_req_b1", "us"), lo("netd.cpu_util", "cores"),
			lo("netd.alloc_bytes_per_pkt", "B"), lo("netd.gc_cycles", "count"),
			lo("netd.quiesce_tail_ms", "ms"), lo("netd.program_p50_ms", "ms"), lo("netd.swap_p50_ms", "ms"),
			lo("netd.scrape_p50_ms", "ms"),
			hi("dataplane.wire_pkts_per_gen", "ratio"), lo("dataplane.wire_hops_per_pkt", "ratio"),
			lo("dataplane.wire_hop_busy_share", "%"),
		),
	},
	{
		Name: "engine-forward",
		Why:  "in-process engine, netd bypassed: the hop loop, matcher and ingress intern+stamp do the work, so a netd change must not show here and a dataplane change shows here first",
		Run:  runEngineForward,
		Headline: [3]def{
			hi("fwd_pps", "packets/s").gate(0.10),
			hi("fwd_pps_fattree", "packets/s").gate(0.10),
			// The issue names two end-to-end metrics here; the third slot
			// carries its layer metric of the served-mode path.
			hi("dataplane.async_pps", "packets/s").gate(0.10),
		},
		Layer: layers(
			lo("dataplane.ns_hop_cap200", "ns"), lo("dataplane.ns_hop_fattree", "ns"), hi("dataplane.async_pps", "packets/s"),
			lo("dataplane.allocs_per_pkt", "count"), lo("dataplane.bytes_per_pkt", "B"),
			lo("dataplane.hops_per_pkt", "ratio").exact(), hi("dataplane.deliveries_per_pkt", "ratio").exact(),
			lo("dataplane.inject_ns_pkt", "ns"), lo("dataplane.run_ns_hop", "ns"), lo("dataplane.deliveries_ns_each", "ns"),
			lo("dataplane.matcher_flat_ns", "ns"), lo("dataplane.matcher_map_ns", "ns"), lo("flowtable.scan_ns", "ns"),
			hi("dataplane.scale_w2", "ratio"), lo("obs.overhead_ratio", "ratio"),
		),
	},
	{
		Name: "swap-under-load",
		Why:  "in-process controller hot-swapping under traffic: delta compile, stage, flip, drain, retire with two live epochs, so a hop-loop gain that slows drains shows",
		Run:  runSwapUnderLoad,
		Headline: [3]def{
			hi("swap_fwd_pps", "packets/s").gate(0.10),
			lo("swap_novel_p50_ms", "ms").gate(0.10),
			lo("swap_memo_p50_ms", "ms").gate(0.21),
		},
		Layer: layers(
			lo("ctrl.compile_p50_ms", "ms"), lo("ctrl.stage_to_retire_p50_ms", "ms"), lo("ctrl.transition_p50_ms", "ms"),
			lo("ctrl.swap_p90_ms_novel", "ms"), lo("ctrl.swap_p90_ms_memo", "ms"),
			lo("ctrl.staged_rules", "count").exact(),
			hi("ctrl.audit_checked", "count"), lo("ctrl.audit_mixed", "count").exact(), lo("ctrl.audit_dropped", "count").exact(),
			lo("ctrl.eventmapping_ms", "ms"), lo("dataplane.mergedpair_ms", "ms"), lo("dataplane.planfor_ms", "ms"),
			hi("ctrl.transition_ratio", "%"),
		),
	},
	{
		Name: "compile-cold-warm",
		Why:  "in-process compiler, no traffic: source text to lowered plan cold, and novel revisions through the warm cache; the same caches used two ways, ten programs vs one 10x program",
		Run:  runCompileColdWarm,
		Headline: [3]def{
			lo("compile_cold_ms", "ms").gate(0.10),
			lo("compile_scale_s", "s").gate(0.10),
			lo("compile_warm_ms", "ms").gate(0.10),
		},
		Layer: layers(
			lo("compile.cold_ms.firewall", "ms"), lo("compile.cold_ms.learning-switch", "ms"),
			lo("compile.cold_ms.authentication", "ms"), lo("compile.cold_ms.bandwidth-cap-10", "ms"),
			lo("compile.cold_ms.ids", "ms"), lo("compile.cold_ms.bandwidth-cap-200", "ms"),
			lo("compile.cold_ms.ids-fattree-4", "ms"), lo("compile.cold_ms.ids-fattree-10", "ms"),
			lo("compile.cold_ms.failover-wan-4", "ms"), lo("compile.cold_ms.bandwidth-cap-2000", "ms"),
			lo("syntax.parse_ms_cap200", "ms"), lo("ets.build_ms_cap200", "ms"),
			lo("nes.tones_ms_cap200", "ms"), lo("nes.locdet_ms_cap200", "ms"),
			lo("syntax.parse_ms_cap2000", "ms"), lo("ets.build_ms_cap2000", "ms"),
			lo("nes.tones_ms_cap2000", "ms"), lo("nes.locdet_ms_cap2000", "ms"),
			lo("dataplane.planfor_ms_cap2000", "ms"), lo("compile.alloc_mb_cap2000", "MiB"),
			lo("ets.states", "count").exact(), lo("ets.events", "count").exact(), lo("nkc.rules_total", "count").exact(),
			lo("nkc.fdd_nodes", "count").exact(), lo("nkc.intern_entries", "count").exact(), lo("nkc.arena_bytes", "count").exact(),
			hi("nkc.seg_hit_pct_cold", "%").exact(), hi("nkc.seg_hit_pct_warm", "%"), hi("nkc.table_hit_pct_warm", "%"),
			hi("nkc.tables_hash_stable", "0/1").exact(),
			lo("nkc.compileall_ms_cap200", "ms"), lo("nkc.compileall_ms_cap2000", "ms"),
			lo("optimize.greedy_ms", "ms"), hi("optimize.rules_saved_pct", "%").exact(),
		),
	},
	{
		Name: "oracle-check",
		Why:  "the Figure 7 machine, the Definition 6 oracle and the simulator: what Theorem 1 and the figures are checked with, reaching dataplane.Plan through the map-form path",
		Run:  runOracleCheck,
		Headline: [3]def{
			hi("oracle_runs_per_s", "runs/s").gate(0.10),
			hi("sim_pkts_per_s", "packets/s").gate(0.10),
			// As on engine-forward: the third slot carries a layer metric, the
			// wall time of regenerating the digested figures.
			lo("sim.fig_regen_ms", "ms").gate(0.10),
		},
		Layer: layers(
			lo("runtime.step_ns", "ns"), lo("runtime.trace_len", "count").exact(),
			lo("trace.check_ms_per_run", "ms"), lo("trace.violations", "count").exact(),
			lo("sim.ns_per_hop", "ns"), lo("sim.fig_regen_ms", "ms"), hi("sim.fig_digest_ok", "0/1").exact(),
		),
	},
}

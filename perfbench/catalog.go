package main

// Metric describes one reported metric. Layer names the repo module
// it measures; Moves names the end-to-end metric and workload a change
// to that layer should move (the prediction a performance change is
// judged against).
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	Moves  string `json:"moves"`
	Note   string `json:"note"`
}

// Workload is one traffic mix, with the reason it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads are the three mixes the benchmark drives.
var Workloads = []Workload{
	{"admit-cold", "1 closed-loop HTTP client (2 in the warm-up) deploys distinct seeded modules and kills them: every request misses the cache, so symexec, policy and placement work"},
	{"admit-warm", "the same loop over a fixed catalog of 8 requests: cache hits, so HTTP/JSON, canonicalize, cache lookup, placement and the journal dominate"},
	{"forward", "1 caller injects smallest UDP bursts of 1, 8 and 64 packets into 3 live modules: vswitch, platform, netsim and pipeline do the work"},
}

// EndToEnd are the metrics a user of the daemon sees, reported by
// every workload with tracing off.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", "all", "",
		"median over repeated set-ups in one run of daemon construction and recovery, resident deploys and first-packet VM boots, up to the first timed op"},
	{"ops_per_s", "1/s", "higher", "all", "",
		"median over 1-s blocks of admit-*: deploy verdicts per second, each placed module's kill inside the clock; forward: injected packets per second in bursts whose emitted packets matched the oracle"},
	{"op_p50_ms", "ms", "lower", "all", "",
		"median over 1-s blocks of each block's median round trip of one op: POST /v1/modules on admit-*, one Simulator.Inject burst call on forward"},
	{"op_p90_ms", "ms", "lower", "all", "",
		"the same with each block's 90th percentile; p99 swings too much between runs to bound"},
	{"live_heap_mb", "MiB", "lower", "all", "",
		"live heap after forced GCs at the end of a fixed warm-up (300 cycles per client; 60000 bursts), so it does not grow with the run's speed"},
}

// PerLayer are the traced run's metrics. A layer a workload does not
// reach reports 0.
var PerLayer = []Metric{
	{"http.transport_us", "us", "lower", "api", "op_p50_ms on admit-warm",
		"client round trips minus ServeHTTP (loopback TCP and net/http on both ends), per deploy cycle"},
	{"api.handler_self_us", "us", "lower", "api", "op_p50_ms on admit-warm",
		"POST ServeHTTP minus the controller's deploy span: routing, JSON, simulator registration, and the wait for the controller lock"},
	{"api.kill_us", "us", "lower", "api", "ops_per_s on admit-*",
		"DELETE ServeHTTP (controller kill and its journal append included), per deploy cycle"},
	{"api.deploy_p99_ms", "ms", "lower", "api", "op_p90_ms on admit-*",
		"diagnostic only: p99 of the untraced POST round trips"},
	{"api.inject_self_ns_per_pkt", "ns", "lower", "api", "ops_per_s on forward",
		"Simulator.Inject time minus the untraced replica's time for the same burst: request parsing, the mutex and emit conversion"},
	{"controller.canonicalize_us", "us", "lower", "controller", "op_p50_ms on admit-warm",
		"canonicalize stage per deploy cycle"},
	{"controller.cache_lookup_us", "us", "lower", "controller", "op_p50_ms on admit-warm",
		"cache-lookup stages per deploy cycle"},
	{"controller.other_us", "us", "lower", "controller", "op_p90_ms on admit-*",
		"deploy span minus its stages: bookkeeping under the controller lock"},
	{"controller.rate_drift", "ratio", "higher", "controller", "ops_per_s on admit-cold",
		"completed cycles in the last tenth of the window over the first tenth; 1 means no fall"},
	{"security.symexec_us", "us", "lower", "security", "ops_per_s on admit-cold",
		"security-symexec stage per deploy cycle"},
	{"symexec.memo_hit_ratio", "ratio", "higher", "symexec", "ops_per_s on admit-cold",
		"element memo hits over lookups in the untraced blocks"},
	{"symexec.cache_hit_ratio", "ratio", "higher", "symexec", "op_p50_ms on admit-warm",
		"whole-config cache hits over lookups in the untraced blocks; about 0 on admit-cold"},
	{"policy.check_us", "us", "lower", "policy", "op_p50_ms on admit-cold",
		"policy-check stages per deploy cycle"},
	{"topology.placement_us", "us", "lower", "topology", "op_p50_ms on admit-cold and admit-warm",
		"placement stages (network compile) per deploy cycle"},
	{"journal.append_us", "us", "lower", "journal", "op_p50_ms on admit-warm",
		"journal-append stage per deploy cycle (the write; the benchmark runs -fsync none)"},
	{"journal.bytes_per_op", "B", "lower", "journal", "op_p50_ms on admit-warm",
		"journal file growth per deploy cycle, kill records included"},
	{"journal.appends_per_op", "count", "lower", "journal", "op_p50_ms on admit-warm",
		"innet_journal_appends_total growth per deploy cycle in the untraced blocks; each append is one fsync under innetd's default -fsync always"},
	{"vswitch.self_ns_per_pkt", "ns", "lower", "vswitch", "ops_per_s on forward",
		"Switch.Process time minus the platform.Deliver it calls"},
	{"vswitch.new_flow_share", "ratio", "lower", "vswitch", "ops_per_s on forward",
		"the daemon's vswitch new flows over dispatched packets in the untraced blocks"},
	{"vswitch.miss_share", "ratio", "lower", "vswitch", "ops_per_s on forward",
		"the daemon's vswitch misses over packets processed in the untraced blocks"},
	{"platform.deliver_ns_per_pkt", "ns", "lower", "platform", "ops_per_s on forward",
		"platform.Deliver time (steering and scheduling the processing event)"},
	{"platform.fastpath_share", "ratio", "higher", "platform", "ops_per_s on forward",
		"packets run through a compiled pipeline over packets dispatched, untraced blocks"},
	{"platform.drops_per_kpkt", "count", "lower", "platform", "ops_per_s on forward",
		"platform lifecycle drops plus pipeline drops (filter denials included) per 1000 packets, untraced blocks"},
	{"netsim.events_per_pkt", "count", "lower", "netsim", "ops_per_s on forward",
		"netsim events dispatched per packet by the untraced replica"},
	{"netsim.run_self_ns_per_pkt", "ns", "lower", "netsim", "ops_per_s on forward",
		"Sim.RunUntil time: event dispatch with the processing it runs"},
	{"netsim.sched_ns_per_pkt", "ns", "lower", "netsim", "ops_per_s on forward",
		"RunUntil time minus standalone pipeline exec time: heap, closures and per-event platform work"},
	{"pipeline.exec_ns_per_pkt", "ns", "lower", "pipeline", "ops_per_s on forward",
		"standalone CompileConfig/NewExec/RunOne (graph walk for the fallback module) on the same modules and packets"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "runtime", "ops_per_s on admit-cold and forward",
		"GC CPU over GC plus user CPU in the untraced blocks"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "runtime", "ops_per_s on admit-cold and forward",
		"heap bytes allocated per deploy cycle or per packet, untraced blocks"},
	{"runtime.allocs_per_op", "count", "lower", "runtime", "ops_per_s on admit-cold and forward",
		"heap objects allocated per deploy cycle or per packet, untraced blocks"},
	{"trace.overhead_pct", "%", "lower", "trace", "",
		"100 × (traced total per op / untraced total per op − 1), from interleaved blocks"},
	{"trace.unattributed_pct", "%", "lower", "trace", "",
		"share of the traced total that no span covers"},
	{"failed_ratio", "ratio", "lower", "all", "",
		"transport errors, unexpected statuses and oracle mismatches over attempted ops (also in the result's failed/attempted)"},
}

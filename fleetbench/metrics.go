package main

// metricDef names one reported metric. For per-layer metrics, moves says
// which end-to-end metric, on which workload, a change in this layer
// should show up in.
type metricDef struct {
	name, unit, better, moves string
}

var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "windows_per_s", unit: "windows/s", better: "higher"},
	{name: "score_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "session_open_p50_ms", unit: "ms", better: "lower"},
	{name: "first_score_p50_ms", unit: "ms", better: "lower"},
	{name: "sessions_per_s", unit: "sessions/s", better: "higher"},
	{name: "cpu_us_per_window", unit: "us", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

// reportedMetrics are end-to-end figures printed by every run but kept
// out of the gated set: sustained_rate_wps is the verified rate of a
// ladder step, so it moves in whole steps when a neighbour steals CPU
// time — a step function of host noise more than of the code.
var reportedMetrics = []metricDef{
	{name: "sustained_rate_wps", unit: "windows/s", better: "higher"},
}

var layerMetrics = []metricDef{
	{"report.sustained_rate_wps", "windows/s", "higher", "itself (paced-routed: highest sustained ladder step; closed loops: their verified rate)"},
	{"client.send_us_p50", "us", "lower", "score_latency_p50_ms on paced-routed"},
	{"client.read_wait_share", "ratio", "lower", "windows_per_s on bulk-direct (a high share means server-bound)"},

	{"stream.encode_samples_ns_per_row", "ns", "lower", "windows_per_s on bulk-direct"},
	{"stream.decode_samples_ns_per_row", "ns", "lower", "windows_per_s on bulk-direct"},
	{"stream.decode_scores_ns_per_score", "ns", "lower", "windows_per_s on bulk-direct"},
	{"stream.allocs_per_frame", "count", "lower", "score_latency_p50_ms on paced-routed (per-frame fixed cost)"},
	{"stream.bytes_per_window", "bytes", "lower", "windows_per_s on bulk-direct"},

	{"route.relay_remainder_us_p50", "us", "lower", "score_latency_p50_ms on paced-routed; no change predicted on bulk-direct"},
	{"route.relay_dropped_frames", "count", "lower", "failed_share and sustained_rate_wps on paced-routed"},
	{"route.handoffs", "count", "lower", "none: must stay 0 (no failover in these workloads)"},
	{"route.dial_overhead_ms_p50", "ms", "lower", "session_open_p50_ms on churn-routed"},

	{"serve.admit_wait_ns_per_window", "ns", "lower", "windows_per_s on bulk-direct"},
	{"serve.fill_wait_ns_per_window", "ns", "lower", "score_latency_p50_ms on paced-routed"},
	{"serve.score_ns_per_window", "ns", "lower", "windows_per_s on bulk-direct"},
	{"serve.emit_ns_per_window", "ns", "lower", "score_latency_p50_ms on paced-routed"},
	{"serve.windows_per_batch", "windows", "higher", "windows_per_s on bulk-direct"},
	{"serve.coalesce_p50_ms", "ms", "lower", "score_latency_p50_ms on paced-routed"},
	{"serve.samples_dropped", "count", "lower", "failed_share and sustained_rate_wps on paced-routed"},
	{"serve.scores_dropped", "count", "lower", "failed_share and sustained_rate_wps on paced-routed"},
	{"serve.flushes.fill", "count", "higher", "score_latency_p50_ms on paced-routed"},
	{"serve.flushes.deadline", "count", "lower", "score_latency_p50_ms on paced-routed"},
	{"serve.flushes.drain", "count", "lower", "score_latency_p50_ms on paced-routed"},
	{"serve.empty_wakeups", "count", "lower", "cpu_us_per_window on paced-routed"},
	{"serve.session_setup_ms_p50", "ms", "lower", "session_open_p50_ms on churn-routed"},

	{"detect.score_batch_ns_per_window.f64", "ns", "lower", "windows_per_s and cpu_us_per_window on bulk-direct"},
	{"detect.score_batch_ns_per_window.f32", "ns", "lower", "cpu_us_per_window on paced-routed (small)"},
	{"detect.score_batch_ns_per_window.int8", "ns", "lower", "windows_per_s and cpu_us_per_window on bulk-direct"},

	{"nn.pack_ns_per_window.f64", "ns", "lower", "windows_per_s on bulk-direct"},
	{"nn.gemm_ns_per_window.f64", "ns", "lower", "windows_per_s on bulk-direct"},
	{"nn.pack_ns_per_window.f32", "ns", "lower", "cpu_us_per_window on paced-routed"},
	{"nn.gemm_ns_per_window.f32", "ns", "lower", "cpu_us_per_window on paced-routed"},
	{"nn.quantize_ns_per_window.int8", "ns", "lower", "windows_per_s on bulk-direct"},
	{"nn.gemm_ns_per_window.int8", "ns", "lower", "windows_per_s on bulk-direct"},
	{"nn.requant_ns_per_window.int8", "ns", "lower", "windows_per_s on bulk-direct"},

	{"tensor.gemm_flops_per_window.f64", "flops", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},
	{"tensor.gemm_flops_per_window.f32", "flops", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},
	{"tensor.gemm_flops_per_window.int8", "flops", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},
	{"tensor.gemm_bytes_per_window.f64", "bytes", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},
	{"tensor.gemm_bytes_per_window.f32", "bytes", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},
	{"tensor.gemm_bytes_per_window.int8", "bytes", "lower", "denominator of nn.gemm (computed from model shapes); moved only by a model change"},

	{"proc.allocs_per_window", "count", "lower", "windows_per_s on bulk-direct, cpu_us_per_window on paced-routed"},
	{"proc.gc_cycles", "count", "lower", "cpu_us_per_window on every workload"},
	{"proc.sched_wait_p99_us", "us", "lower", "separates waiting for a core from compute in every stage figure"},

	{"gen.lag_p99_ms", "ms", "lower", "validity of paced-routed: a step whose lag passes 20 ms is not sustained"},
	{"paced.overload_failed_share", "ratio", "lower", "sustained_rate_wps on paced-routed (loss past capacity)"},
	{"check.failed_share", "ratio", "lower", "must stay 0: windows owed but not verified, plus failed dials, over attempts"},

	{"budget.total_us", "us", "lower", "score_latency_p50_ms on paced-routed and bulk-direct"},
	{"budget.client_send_us", "us", "lower", "score_latency_p50_ms"},
	{"budget.route_remainder_us", "us", "lower", "score_latency_p50_ms on paced-routed"},
	{"budget.admit_wait_us", "us", "lower", "score_latency_p50_ms"},
	{"budget.fill_wait_us", "us", "lower", "score_latency_p50_ms on paced-routed"},
	{"budget.compute_us", "us", "lower", "score_latency_p50_ms on bulk-direct"},
	{"budget.compute.nn_us", "us", "lower", "score_latency_p50_ms on bulk-direct"},
	{"budget.emit_us", "us", "lower", "score_latency_p50_ms"},
	{"budget.unattributed_us", "us", "lower", "none: what the layers' own figures do not explain"},
	{"budget.unattributed_share", "ratio", "lower", "none: ROADMAP targets <= 0.15"},
}

func init() {
	for _, e := range append(e2eMetrics, reportedMetrics...) {
		layerMetrics = append(layerMetrics, metricDef{"trace.overhead." + e.name, "ratio", "lower",
			"none: traced minus untraced " + e.name + ", over untraced"})
	}
}

package main

// metricDef names one metric, its unit and which way is better.
// BENCHMARK.json repeats the catalogue and adds each end-to-end metric's
// regression bound; a test keeps the two identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of a workload sees, measured on
// untraced jobs. Every workload reports every one.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
	{"quality", "score", "higher"},
	{"out_mib", "MiB", "lower"},
}

// perLayerMetrics are measured on traced jobs, from spans the benchmark
// records around each layer's public entry points. A metric of a layer
// a workload's traced jobs do not reach reads 0.
var perLayerMetrics = []metricDef{
	{"ingest.busy_s", "s", "lower"},
	{"ingest.shapes", "count", "lower"},
	{"ingest.mb_per_s", "MB/s", "higher"},

	{"fill.new_s", "s", "lower"},
	{"fill.first_emit_s", "s", "lower"},
	{"fill.size_emit_s", "s", "lower"},
	{"fill.self_s", "s", "lower"},
	{"fill.window_gap_p50_ms", "ms", "lower"},
	{"fill.window_gap_p99_ms", "ms", "lower"},
	{"fill.windows", "count", "lower"},
	{"fill.candidates", "count", "lower"},
	{"fill.fills", "count", "lower"},
	{"fill.fill_yield", "ratio", "higher"},
	{"fill.fallback_cold", "count", "lower"},
	{"fill.fallback_simplex", "count", "lower"},
	{"fill.degraded", "count", "lower"},
	{"fill.peak_in_flight", "count", "lower"},

	{"dlp.calls", "count", "lower"},
	{"dlp.vars", "count", "lower"},
	{"dlp.constraints", "count", "lower"},
	{"dlp.busy_s", "s", "lower"},
	{"dlp.busy_share", "ratio", "lower"},
	{"dlp.call_p50_us", "us", "lower"},
	{"dlp.call_p99_us", "us", "lower"},
	{"dlp.errors", "count", "lower"},

	{"layio.write_busy_s", "s", "lower"},
	{"layio.write_shapes", "count", "lower"},
	{"layio.write_mib", "MiB", "lower"},
	{"layio.write_mib_per_s", "MiB/s", "higher"},

	{"fillcache.hits", "count", "higher"},
	{"fillcache.misses", "count", "lower"},
	{"fillcache.stale", "count", "lower"},
	{"fillcache.errors", "count", "lower"},
	{"fillcache.hit_ratio", "ratio", "higher"},
	{"fillcache.entries", "count", "lower"},
	{"fillcache.disk_mib", "MiB", "lower"},
	{"fillcache.write_overhead_s", "s", "lower"},
	{"eco.invalidated_windows", "count", "lower"},
	{"eco.moved_wires", "count", "lower"},

	{"serve.requests", "count", "higher"},
	{"serve.tail_pct", "%", "higher"},
	{"serve.latency_tail_s", "s", "lower"},
	{"serve.conn_wait_tail_s", "s", "lower"},
	{"serve.gen_late_max_s", "s", "lower"},
	{"serve.queue_wait_mean_s", "s", "lower"},
	{"serve.job_mean_s", "s", "lower"},
	{"serve.layout_cache_hit_ratio", "ratio", "higher"},

	{"runtime.alloc_mib", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},

	{"check.drc_violations", "count", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
}

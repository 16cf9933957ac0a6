package main

import "busenc/internal/codec"

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names and units (main_test.go keeps the two in step) and adds the
// end-to-end bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user sees, reported by every workload with
// -trace 0. latency_ms is one pricing pass (its fastest tenth) for the
// pricing workloads and the median request, timed from its scheduled
// send at the fixed open-loop rate, for serve-mixed. peak_rss_mb is the
// pricing process's peak: per pass, or per second of traffic in the
// daemon, and the median of those.
var endToEnd = []metricDef{
	{"latency_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics, reported by every workload with
// -trace 1, each measured on that workload's input.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.decode_ns_per_entry", "ns", "lower"},
		{"trace.index_ms", "ms", "lower"},
	}
	for _, name := range codec.Names() {
		defs = append(defs, metricDef{"codec.encode_ns_per_entry." + name, "ns", "lower"})
	}
	return append(defs,
		metricDef{"codec.planeset_ns_per_entry", "ns", "lower"},
		metricDef{"codec.seed_sweep_ms", "ms", "lower"},
		metricDef{"bus.transpose_ns_per_block", "ns", "lower"},
		metricDef{"bus.count_ns_per_entry", "ns", "lower"},
		metricDef{"core.fanout_send_wait_ms", "ms", "lower"},
		metricDef{"core.fanout_worker_wait_ms", "ms", "lower"},
		metricDef{"dist.inproc_sweep_ms", "ms", "lower"},
		metricDef{"dist.overhead_ms", "ms", "lower"},
		metricDef{"dist.worker_spawns", "count", "lower"},
		metricDef{"serve.upload_ms_p50", "ms", "lower"},
		metricDef{"serve.eval_hit_ms_p50", "ms", "lower"},
		metricDef{"serve.eval_miss_ms_p50", "ms", "lower"},
		metricDef{"serve.eval_miss_ms_p90", "ms", "lower"},
		metricDef{"obs.overhead_pct", "%", "lower"},
	)
}()

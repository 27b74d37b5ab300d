package main

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports: what a user of
// ratd sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"predict_p50_us", "us", "lower"},
	{"predict_goodput_rps", "1/s", "higher"},
	{"ops_ok_frac", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports. Each comment names
// the end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	// The untraced open loop's tail. It is reported here, not gated:
	// on a shared virtual machine the p99 follows the host's own
	// wake-up stalls (gen.late_p99_us tracks it), not the code.
	{"predict_p99_us", "us", "lower"},
	// predict_p50_us on predict-hot.
	{"client.conn_reuse_frac", "frac", "higher"},
	{"http.write_us", "us", "lower"},
	{"http.ttfb_us", "us", "lower"},
	{"http.read_us", "us", "lower"},
	{"http.transport_us", "us", "lower"},
	// predict_p50_us and predict_goodput_rps on predict-hot.
	{"server.handler_hit_us", "us", "lower"},
	{"server.stage.cache_us", "us", "lower"},
	// predict_p50_us on predict-tail.
	{"server.handler_miss_us", "us", "lower"},
	{"server.cache_hit_ratio", "frac", "higher"},
	{"server.cache_evictions_per_req", "count", "lower"},
	// predict_p99_us and predict_goodput_rps on predict-tail.
	{"server.stage.batch_wait_us", "us", "lower"},
	{"server.batch_size_mean", "count", "higher"},
	// predict_p50_us on predict-tail.
	{"server.stage.kernel_us", "us", "lower"},
	{"server.stage.encode_us", "us", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.req_bytes", "B", "lower"},
	{"wire.resp_bytes", "B", "lower"},
	{"core.predict_ns", "ns", "lower"},
	{"core.predict_multi_ns", "ns", "lower"},
	// predict_p99_us on bulk-mix.
	{"server.stage.admission_us", "us", "lower"},
	{"server.inflight_peak.predict", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.brownout_level_max", "count", "lower"},
	{"tenant.take_ns", "ns", "lower"},
	{"tenant.rejected", "count", "lower"},
	// The bulk loop's rates, from the traced run. They are reported
	// here, not gated: they are CPU-bound, and the CPU speed a shared
	// 2-vCPU virtual machine gets swings up to twofold over minutes
	// (explore_cands_per_s read 9.8M-19.3M/s over five consecutive
	// runs of one build), far past any bound a gate could hold.
	{"batch_ws_per_s", "1/s", "higher"},
	{"explore_cands_per_s", "1/s", "higher"},
	{"explore_dist_cands_per_s", "1/s", "higher"},
	// batch_ws_per_s on bulk-mix.
	{"core.predict_batch_ns_per_ws", "ns", "lower"},
	// explore_cands_per_s on bulk-mix.
	{"explore.run_cands_per_s", "1/s", "higher"},
	{"explore.http_overhead_frac", "frac", "lower"},
	{"explore.eval_indices_ns", "ns", "lower"},
	{"explore.frontier_ns", "ns", "lower"},
	{"explore.select_top_ns", "ns", "lower"},
	// explore_dist_cands_per_s on bulk-mix.
	{"cluster.shards", "count", "lower"},
	{"cluster.shard_latency_ms", "ms", "lower"},
	{"cluster.overhead_frac", "frac", "lower"},
	{"cluster.merge_ms", "ms", "lower"},
	{"cluster.coordinator_run_ms", "ms", "lower"},
	{"cluster.redispatched", "count", "lower"},
	{"cluster.retried", "count", "lower"},
	// predict_goodput_rps on predict-hot and predict-tail.
	{"ratd.cpu_us_per_req", "us", "lower"},
	// Generator honesty: lateness and backlog of the open loop.
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.backlog_max", "count", "lower"},
	{"gen.queued_frac", "frac", "lower"},
	{"gen.bottleneck", "count", "lower"},
	// Workload property shares and exact requests per endpoint.
	{"share.raw_hit", "frac", "higher"},
	{"share.canonical_hit", "frac", "higher"},
	{"share.miss", "frac", "lower"},
	{"share.multi", "frac", "lower"},
	{"count.predict", "count", "higher"},
	{"count.predict_batch", "count", "higher"},
	{"count.explore", "count", "higher"},
	{"count.explore_distributed", "count", "higher"},
	{"ops.failed_frac", "frac", "lower"},
	// The RAT budget: predicted (sum of layers) against measured.
	{"budget.predicted_us", "us", "lower"},
	{"budget.measured_p50_us", "us", "lower"},
	{"trace.overhead_us", "us", "lower"},
	// Host fingerprint.
	{"host.nproc", "count", "higher"},
	{"host.gomaxprocs", "count", "higher"},
}

// unitOf returns a metric's declared unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("e2ebench: undeclared metric " + name) // a bug in this file, not an input
}

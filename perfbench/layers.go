package main

// perLayer are the metrics a -trace 1 run reports, for every workload;
// a layer the workload does not exercise reads 0.
var perLayer = []declared{
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.cpu_us_per_req", "us"},
	{"wire.encode_ns", "ns"}, {"wire.resp_decode_ns", "ns"},
	{"serve.decode_ns", "ns"}, {"serve.direct_ns", "ns"}, {"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"}, {"serve.loopback_us", "us"},
	{"prob.dist_ns", "ns"},
	{"core.miss_ns", "ns"}, {"core.hit_ns", "ns"}, {"core.hit_pct", "%"}, {"core.memo_bytes_per_key", "B"},
	{"cluster.hop_us", "us"},
	{"calibrate.env_s", "s"},
	{"experiments.tables_s", "s"}, {"experiments.cm2_s", "s"}, {"experiments.paragon_s", "s"},
	{"experiments.sor_s", "s"}, {"experiments.ext_s", "s"}, {"experiments.paper_err_pct", "%"},
	{"runner.speedup", "x"},
	{"ladder.model_err_pct", "%"},
	{"trace.overhead_p50_ms", "ms"}, {"trace.overhead_cpu_us_per_req", "us"},
}

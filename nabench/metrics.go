package main

// The reported metrics. BENCHMARK.json at the root of the repository
// repeats both lists; TestMetricListsMatchBenchmarkJSON keeps them equal.
//
// Every workload reports every end-to-end metric, so the names are by role
// (README.md maps each to the workload's own quantity):
//
//	           pingpong-tcp        stream-shm
//	lat1       8 B round trip      32 B window (64 puts)
//	lat2       256 KiB round trip  64 KiB window (32)
//
// The lat2 median, tail percentiles and rates do not repeat within the
// bound from run to run on every workload; the traced run reports them as
// diag.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat1_p50_us", "us", "lower", 0.25},
}

var perLayer = []metricDef{
	// TCP ladder: raw net.Conn -> wire -> netfab -> core -> fompi.
	{Name: "tcp.raw.rtt8_p50_us", Unit: "us", Better: "lower"},
	{Name: "tcp.raw.rtt256k_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.append8_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode8_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.framer256k_ns", Unit: "ns", Better: "lower"},
	{Name: "netfab.rtt8_p50_us", Unit: "us", Better: "lower"},
	{Name: "netfab.rtt256k_p50_us", Unit: "us", Better: "lower"},
	{Name: "netfab.self8_us", Unit: "us", Better: "lower"},
	{Name: "core.rtt8_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.rtt256k_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.self8_us", Unit: "us", Better: "lower"},
	{Name: "fompi.rtt8_p50_us", Unit: "us", Better: "lower"},
	{Name: "fompi.rtt256k_p50_us", Unit: "us", Better: "lower"},
	{Name: "fompi.self8_us", Unit: "us", Better: "lower"},
	{Name: "fompi.putnotify_ns", Unit: "ns", Better: "lower"},
	{Name: "fompi.flush_us", Unit: "us", Better: "lower"},
	{Name: "fompi.wait_us", Unit: "us", Better: "lower"},
	{Name: "netfab.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "netfab.frames_per_op_256k", Unit: "count", Better: "lower"},
	{Name: "netfab.tx_flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "netfab.frames_per_read", Unit: "count", Better: "higher"},
	{Name: "fabric.link_acks_per_op", Unit: "count", Better: "lower"},
	{Name: "fabric.link_acks_per_op_256k", Unit: "count", Better: "lower"},
	{Name: "fabric.retransmits", Unit: "count", Better: "lower"},
	{Name: "fabric.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "fabric.pool_oversize", Unit: "count", Better: "lower"},
	// shm ladder: copy() -> shmfab -> fompi.
	{Name: "mem.copy64k_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "shmfab.msg32_kmsg_s", Unit: "kmsg/s", Better: "higher"},
	{Name: "shmfab.bw64k_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "fompi.msg32_kmsg_s", Unit: "kmsg/s", Better: "higher"},
	{Name: "fompi.bw64k_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.window_wait_us", Unit: "us", Better: "lower"},
	{Name: "shmfab.entries_per_msg", Unit: "count", Better: "lower"},
	{Name: "shmfab.compact_frac", Unit: "ratio", Better: "higher"},
	{Name: "shmfab.send_stalls", Unit: "count", Better: "lower"},
	{Name: "shmfab.idle_wake_p50_us", Unit: "us", Better: "lower"},
	// kv and active messages, on the kv-tcp traffic.
	{Name: "kv.getasync_us", Unit: "us", Better: "lower"},
	{Name: "kv.putasync_us", Unit: "us", Better: "lower"},
	{Name: "kv.drainacks_us", Unit: "us", Better: "lower"},
	{Name: "kv.ack_waits_per_put", Unit: "count", Better: "lower"},
	{Name: "core.am.dispatched_per_put", Unit: "count", Better: "lower"},
	{Name: "core.am.queued_hw", Unit: "count", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "kv.max_kops", Unit: "kop/s", Better: "higher"},
	// The process under the workload's traced pass.
	{Name: "proc.sched_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines", Unit: "count", Better: "lower"},
	{Name: "proc.steal_pct", Unit: "%", Better: "lower"},
	// End-to-end diagnostics, from the traced run's untraced pass:
	// percentiles over all samples and the rate (8 B round trips/s,
	// 32 B messages/s).
	{Name: "diag.lat1_p90_us", Unit: "us", Better: "lower"},
	{Name: "diag.lat1_p99_us", Unit: "us", Better: "lower"},
	{Name: "diag.lat2_p50_us", Unit: "us", Better: "lower"},
	{Name: "diag.lat2_p90_us", Unit: "us", Better: "lower"},
	{Name: "diag.lat2_p99_us", Unit: "us", Better: "lower"},
	{Name: "diag.kops", Unit: "kop/s", Better: "higher"},
	// Set-up breakdown.
	{Name: "runtime.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "fompi.win_alloc_ms", Unit: "ms", Better: "lower"},
	{Name: "kv.open_ms", Unit: "ms", Better: "lower"},
	{Name: "kv.preload_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

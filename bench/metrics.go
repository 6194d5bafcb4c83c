package main

// metricDef declares one metric exactly as BENCHMARK.json lists it. Every
// declared metric is reported on every workload, so each is defined for all
// four; figures that exist only for some workloads (per-kind write latencies,
// the open loop's dispatcher lateness) are printed and written to -out as
// detail instead. So are the median latencies: the open loop's is mostly
// wake-ups of idle virtual CPUs, which the host prices differently from run
// to run (README.md, "Where this departs").
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// Bounds are at least twice the widest run-to-run spread (quartile distance
// over median, ten seeds) seen on a quiet sandbox, and cover the 10-15 % the
// sandbox's own speed drifts over an hour; README.md has the figures.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.15},
	{"mb_per_s", "MB/s", higher, 0.15},
	{"op_p90_us", "us", lower, 0.15},
	{"slo_ok_frac", "fraction", higher, 0.02},
	{"write_amp", "ratio", lower, 0.05},
	{"space_amp", "ratio", lower, 0.03},
}

var perLayerDefs = []metricDef{
	// driver: the benchmark itself, rung 1's traced window.
	{Name: "driver.op_n", Unit: "count", Better: higher},
	{Name: "driver.op_p50_us", Unit: "us", Better: lower},
	{Name: "driver.op_p95_us", Unit: "us", Better: lower},
	{Name: "driver.op_p99_us", Unit: "us", Better: lower},
	{Name: "driver.op_p999_us", Unit: "us", Better: lower},
	{Name: "driver.op_max_us", Unit: "us", Better: lower},
	{Name: "driver.read_n", Unit: "count", Better: higher},
	{Name: "driver.read_p50_us", Unit: "us", Better: lower},
	{Name: "driver.read_p95_us", Unit: "us", Better: lower},
	{Name: "driver.read_p99_us", Unit: "us", Better: lower},
	{Name: "driver.read_p999_us", Unit: "us", Better: lower},
	{Name: "driver.read_max_us", Unit: "us", Better: lower},
	{Name: "driver.append_n", Unit: "count", Better: higher},
	{Name: "driver.insert_n", Unit: "count", Better: higher},
	{Name: "driver.delete_n", Unit: "count", Better: higher},
	{Name: "driver.fail_frac", Unit: "fraction", Better: lower},
	{Name: "driver.opseq_crc", Unit: "count", Better: lower},
	{Name: "durability.acked_lost", Unit: "count", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "ladder.residual_pct", Unit: "%", Better: lower},

	{Name: "wire.read_req_codec_ns", Unit: "ns", Better: lower},
	{Name: "wire.append4k_req_codec_ns", Unit: "ns", Better: lower},
	{Name: "wire.data_resp_codec_ns", Unit: "ns", Better: lower},
	{Name: "wire.bytes_per_read_req", Unit: "count", Better: lower},

	{Name: "server.ping_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "server.service_p50_us", Unit: "us", Better: lower},
	{Name: "server.service_p95_us", Unit: "us", Better: lower},
	{Name: "server.service_mean_us", Unit: "us", Better: lower},
	{Name: "server.transport_p50_us", Unit: "us", Better: lower},
	{Name: "server.frontend_self_p50_us", Unit: "us", Better: lower},
	{Name: "server.chunks_per_read", Unit: "count", Better: lower},
	{Name: "server.errs", Unit: "count", Better: lower},

	{Name: "engine.op_p50_us", Unit: "us", Better: lower},
	{Name: "engine.read_p50_us", Unit: "us", Better: lower},
	{Name: "engine.self_p50_us", Unit: "us", Better: lower},
	{Name: "engine.overhead_p50_us", Unit: "us", Better: lower},
	{Name: "engine.scale_2c", Unit: "ratio", Better: higher},
	{Name: "engine.lock_wait_mean_us", Unit: "us", Better: lower},

	{Name: "store.op_p50_us", Unit: "us", Better: lower},
	{Name: "store.read_p50_us", Unit: "us", Better: lower},

	{Name: "eos.op_cpu_p50_us", Unit: "us", Better: lower},
	{Name: "eos.read_cpu_p50_us", Unit: "us", Better: lower},
	{Name: "eos.insert_cpu_p50_us", Unit: "us", Better: lower},
	{Name: "eos.delete_cpu_p50_us", Unit: "us", Better: lower},
	{Name: "eos.append_cpu_p50_us", Unit: "us", Better: lower},
	{Name: "eos.read_io_calls_per_op", Unit: "count", Better: lower},
	{Name: "eos.insert_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "eos.delete_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "eos.append_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "eos.sim_ms_per_op", Unit: "ms", Better: lower},
	{Name: "eos.index_levels", Unit: "count", Better: lower},
	{Name: "eos.util_ratio", Unit: "ratio", Better: higher},
	{Name: "esm.read_io_calls_per_op", Unit: "count", Better: lower},
	{Name: "esm.insert_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "esm.delete_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "esm.append_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "esm.sim_ms_per_op", Unit: "ms", Better: lower},
	{Name: "esm.index_levels", Unit: "count", Better: lower},
	{Name: "esm.util_ratio", Unit: "ratio", Better: higher},
	{Name: "starburst.read_io_calls_per_op", Unit: "count", Better: lower},
	{Name: "starburst.insert_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "starburst.delete_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "starburst.append_pages_written_per_op", Unit: "count", Better: lower},
	{Name: "starburst.sim_ms_per_op", Unit: "ms", Better: lower},
	{Name: "starburst.index_levels", Unit: "count", Better: lower},
	{Name: "starburst.util_ratio", Unit: "ratio", Better: higher},

	{Name: "disk.read_calls_per_op", Unit: "count", Better: lower},
	{Name: "disk.write_calls_per_op", Unit: "count", Better: lower},
	{Name: "disk.pages_read_per_op", Unit: "count", Better: lower},
	{Name: "disk.pages_written_per_op", Unit: "count", Better: lower},
	{Name: "disk.barriers_per_write", Unit: "count", Better: lower},

	{Name: "buffer.hit_rate", Unit: "fraction", Better: higher},
	{Name: "buffer.evictions_per_op", Unit: "count", Better: lower},
	{Name: "buffer.flushes_per_op", Unit: "count", Better: lower},
	{Name: "buffer.fix_hit_ns", Unit: "ns", Better: lower},
	{Name: "buffer.fixrun_miss_ns", Unit: "ns", Better: lower},

	{Name: "buddy.alloc_ns", Unit: "ns", Better: lower},
	{Name: "buddy.free_ns", Unit: "ns", Better: lower},
	{Name: "buddy.dir_io_per_alloc", Unit: "count", Better: lower},
	{Name: "buddy.frag_index", Unit: "ratio", Better: lower},
	{Name: "buddy.data_pages", Unit: "count", Better: lower},
	{Name: "buddy.meta_pages", Unit: "count", Better: lower},

	{Name: "filevol.self_p50_us", Unit: "us", Better: lower},
	{Name: "filevol.pread_4k_ns", Unit: "ns", Better: lower},
	{Name: "filevol.pread_us_per_mb", Unit: "us", Better: lower},
	{Name: "filevol.pwrite_4k_ns", Unit: "ns", Better: lower},
	{Name: "filevol.pwrite_us_per_mb", Unit: "us", Better: lower},
	{Name: "filevol.fdatasync_p50_us", Unit: "us", Better: lower},
	{Name: "filevol.fdatasync_p95_us", Unit: "us", Better: lower},
	{Name: "filevol.fsyncs_per_write", Unit: "count", Better: lower},
	{Name: "filevol.avg_batch", Unit: "count", Better: higher},
}

package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none. Where lists the workloads on which a per-layer
// metric measures something; it reads 0 on the others.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Where  []string `json:"-"`
}

const (
	rs = "rank-scale"
	mx = "matrix"
	tq = "trace-query"
)

var everywhere = []string{rs, mx, tq}

func layer(name, unit, better string, where ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Where: where}
}

// Units: "s" and "ms" are host time; "sim_s" is simulated time. Counts and
// sim_s values are deterministic for a fixed seed.
const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is printed by every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, everywhere},
	{"unit_s", "s", lower, 0.25, everywhere},
	{"unit_cpu_s", "s", lower, 0.25, everywhere},
	{"peak_rss_mb", "MB", lower, 0.25, everywhere},
}

// perLayer is printed by every traced run of every workload; a metric of a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	layer("bench.units", "count", higher, everywhere...),
	layer("bench.traced_unit_s", "s", lower, everywhere...),
	layer("bench.self_s", "s", lower, everywhere...),
	layer("error_rate", "ratio", lower, everywhere...),

	layer("sim.spans", "count", lower, everywhere...),
	layer("sim.spawned", "count", lower, everywhere...),
	layer("sim.virtual_s", "sim_s", lower, everywhere...),
	layer("sim.host_ns_per_span", "ns", lower, everywhere...),

	layer("cluster.new_s", "s", lower, everywhere...),

	layer("framework.attach_s", "s", lower, rs, mx),
	layer("framework.untraced_run_s", "s", lower, rs, mx),
	layer("framework.traced_run_s", "s", lower, rs, mx),
	layer("framework.drain_s", "s", lower, rs, mx),

	layer("lanltrace.run_s", "s", lower, mx),
	layer("tracefs.run_s", "s", lower, mx),
	layer("partrace.run_s", "s", lower, mx),
	layer("multilayer.run_s", "s", lower, mx),
	layer("pathtrace.run_s", "s", lower, mx),
	layer("lanltrace.trace_events", "count", lower, mx),
	layer("tracefs.trace_events", "count", lower, mx),
	layer("partrace.trace_events", "count", lower, mx),
	layer("multilayer.trace_events", "count", lower, mx),
	layer("pathtrace.trace_events", "count", lower, mx),

	layer("harness.executed", "count", lower, mx),
	layer("harness.shared", "count", higher, mx),
	layer("harness.cache_hit_ratio", "ratio", higher, mx),
	layer("harness.peak_concurrency", "count", higher, mx),
	layer("harness.parallel_efficiency", "ratio", higher, mx),

	layer("mpi.ops", "count", lower, everywhere...),
	layer("vfs.syscalls", "count", lower, everywhere...),
	layer("vfs.fs_ops", "count", lower, everywhere...),
	layer("netsim.msgs", "count", lower, everywhere...),
	layer("pfs.ops", "count", lower, everywhere...),
	layer("disk.ios", "count", lower, everywhere...),
	layer("mpi.sim_busy_s", "sim_s", lower, everywhere...),
	layer("vfs.syscalls.sim_busy_s", "sim_s", lower, everywhere...),
	layer("vfs.fs_ops.sim_busy_s", "sim_s", lower, everywhere...),
	layer("netsim.sim_busy_s", "sim_s", lower, everywhere...),
	layer("pfs.sim_busy_s", "sim_s", lower, everywhere...),
	layer("disk.sim_busy_s", "sim_s", lower, everywhere...),
	layer("mpi.sim_excl_s", "sim_s", lower, everywhere...),
	layer("vfs.syscalls.sim_excl_s", "sim_s", lower, everywhere...),
	layer("vfs.fs_ops.sim_excl_s", "sim_s", lower, everywhere...),
	layer("netsim.sim_excl_s", "sim_s", lower, everywhere...),
	layer("pfs.sim_excl_s", "sim_s", lower, everywhere...),
	layer("disk.sim_excl_s", "sim_s", lower, everywhere...),

	layer("convert_mb_s", "MB/s", higher, tq),
	layer("query_p50_ms", "ms", lower, tq),
	layer("query_p95_ms", "ms", lower, tq),
	layer("query_samples", "count", higher, tq),
	layer("slice_s", "s", lower, tq),
	layer("trace.v1_decode_mb_s", "MB/s", higher, tq),
	layer("trace.v2_encode_mb_s", "MB/s", higher, tq),
	layer("trace.v2_bytes_per_record", "B", lower, tq),
	layer("trace.v2_open_ms", "ms", lower, tq),
	layer("trace.blocks_decoded_frac", "ratio", lower, tq),
	layer("trace.scan_match_ratio", "ratio", higher, tq),
	layer("trace.scan_mrec_s", "Mrec/s", higher, tq),

	layer("analysis.slice_records_per_s", "rec/s", higher, tq),
	layer("analysis.slice_conservation", "ratio", lower, tq),

	layer("go.alloc_mb", "MB", lower, everywhere...),
	layer("go.mallocs", "count", lower, everywhere...),
	layer("go.gc_cpu_s", "s", lower, everywhere...),
}

// unitOf returns a metric's unit from the catalogue.
func unitOf(name string) string {
	for _, ms := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

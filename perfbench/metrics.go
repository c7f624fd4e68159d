package main

// target records, for a per-layer metric, which end-to-end metric it
// should move and on which workloads, so a later change quotes this map
// instead of re-deriving it. Names, units and directions live in
// BENCHMARK.json; every per-layer metric there has an entry here.
type target struct {
	moves []string
	on    []string
}

var (
	all      = []string{"fleet_ab", "large_objects", "daemon_observe"}
	fleetAB  = []string{"fleet_ab"}
	large    = []string{"large_objects"}
	daemonOn = []string{"daemon_observe"}
	fanOut   = []string{"fleet_ab", "daemon_observe"}
	headline = []string{"vsec_per_s", "sim_ops_per_s"}
	opsRate  = []string{"sim_ops_per_s"}
	vsec     = []string{"vsec_per_s"}
	ticks    = []string{"vsec_per_s", "tick_p50_ms", "tick_p90_ms"}
	daemonTk = []string{"tick_p50_ms", "tick_p90_ms"}
	tailTick = []string{"tick_p90_ms"}
	ckptTick = []string{"tick_p90_ms", "peak_rss_mb"}
)

// layerTargets maps each per-layer metric, named <module>.<quantity>, to
// the end-to-end metric it should move and the workloads it moves it on.
// Every traced run measures every layer; on a workload not listed the
// prediction is no change. The tick_* targets are the daemon tick
// percentiles daemon_observe prints.
var layerTargets = map[string]target{
	"rng.draw_ns":        {headline, fleetAB},
	"workload.self_frac": {vsec, fleetAB},

	"core.malloc_ns_p50":   {opsRate, all},
	"core.malloc_ns_p99":   {opsRate, all},
	"core.free_ns_p50":     {opsRate, all},
	"core.free_ns_p99":     {opsRate, all},
	"core.tick_ns":         {opsRate, all},
	"core.model_malloc_ns": {opsRate, all},
	"core.frag_ratio":      {[]string{"peak_rss_mb"}, all},

	"percpu.hit_ns":                 {opsRate, fanOut},
	"percpu.miss_ns":                {opsRate, fleetAB},
	"percpu.alloc_miss_ratio":       {opsRate, fleetAB},
	"transfercache.hit_ratio":       {opsRate, fleetAB},
	"centralfreelist.spans_created": {opsRate, fleetAB},

	"pageheap.large_alloc_ns":    {vsec, large},
	"pageheap.large_free_ns":     {vsec, large},
	"pageheap.allocs":            {vsec, large},
	"pageheap.hugepage_coverage": {[]string{"peak_rss_mb"}, large},

	"snapshot.encode_ms": {ckptTick, daemonOn},
	"snapshot.decode_ms": {ckptTick, daemonOn},
	"snapshot.bytes":     {ckptTick, daemonOn},

	"fleet.machine_s_p50":   {ticks, fanOut},
	"fleet.machine_s_max":   {ticks, fanOut},
	"fleet.reduce_ms":       {vsec, fleetAB},
	"sched.straggler_ratio": {ticks, fanOut},
	"sched.busy_frac":       {ticks, fanOut},
	"sched.speedup_j2":      {ticks, fanOut},

	"daemon.tick_ms":               {daemonTk, daemonOn},
	"daemon.observe_overhead_frac": {daemonTk, daemonOn},
	"daemon.checkpoint_ms":         {tailTick, daemonOn},
	"daemon.checkpoint_bytes":      {tailTick, daemonOn},
	"gwp.overhead_frac":            {daemonTk, daemonOn},
	"gwp.collect_ms":               {tailTick, daemonOn},
	"gwp.window_bytes":             {tailTick, daemonOn},

	"trace.overhead_frac": {nil, all},
}

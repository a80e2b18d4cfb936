package main

// metricDef names one metric; the two tables below are the single
// source BENCHMARK.json, the printed report, -compare and README.md
// agree on (bench_test.go holds BENCHMARK.json to them).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see, reported by
// every workload from the untraced run. Beside each bound stands the
// largest A/A spread seen on the reference box: interquartile range ÷
// median over ten seeds, the worst of four workloads × six sets of ten
// (README.md has the tables), and in brackets the worst of the three
// sets during which the host stayed quiet. ISSUE 12 starts timing bounds
// at 10 % and peak_rss_mb at 5 % and widens them to the observed spread;
// the PR driver rejects the benchmark when any set of ten spreads wider
// than the bound, and back-to-back sets of one commit disagree by a
// factor of two and more (cold-store query_p50_ms: 10.8 % then 22.3 %).
// So a bound is twice the largest spread seen, rounded up to a percent
// and capped at the driver's 25 % — which every timing metric reaches on
// this box, where a neighbour slows three runs in ten by a third.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},                         // spread 29.7 % (15.6 %)
	{"query_p50_ms", "ms", lower, 0.25},                   // spread 32.1 % (18.4 %)
	{"query_p95_ms", "ms", lower, 0.25},                   // spread 36.4 % (27.2 %)
	{"throughput_qps", "1/s", higher, 0.25},               // spread 29.2 % (15.2 %)
	{"cpu_ms_per_query", "ms", lower, 0.25},               // spread 28.7 % (15.1 %)
	{"success_ratio", "ratio", higher, 0.001},             // spread 0: any failure is a regression
	{"peak_rss_mb", "MB", lower, 0.13},                    // spread 6.1 % (5.4 %)
	{"stored_bytes_per_input_byte", "ratio", lower, 0.05}, // spread 0.1 %: the issue's starting bound
}

// perLayer are the single-layer metrics, reported from the traced run.
// Prefix = module; counts are per measured phase unless _per_query.
var perLayer = []metricDef{
	// Compile pipeline, replayed on every distinct script.
	{Name: "piglatin.parse_us", Unit: "us", Better: lower},
	{Name: "logical.build_us", Unit: "us", Better: lower},
	{Name: "mrcompile.compile_us", Unit: "us", Better: lower},
	{Name: "mrcompile.jobs_per_query", Unit: "count", Better: lower},

	// Matcher: MatcherStats deltas, probe spans, per-query results.
	{Name: "core.matcher.probes", Unit: "count", Better: lower},
	{Name: "core.matcher.candidates_per_probe", Unit: "count", Better: lower},
	{Name: "core.matcher.traversals_per_probe", Unit: "count", Better: lower},
	{Name: "core.matcher.neg_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.matcher.index_entries", Unit: "count", Better: lower},
	{Name: "core.matcher.probe_ms_per_query", Unit: "ms", Better: lower},
	{Name: "core.matcher.reuse_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.matcher.jobs_reused_ratio", Unit: "ratio", Better: higher},

	// Storage manager: StorageStats deltas, claim.wait spans, timed Sweep.
	{Name: "core.storage.claims_granted", Unit: "count", Better: lower},
	{Name: "core.storage.claim_waits", Unit: "count", Better: lower},
	{Name: "core.storage.claim_wait_ms", Unit: "ms", Better: lower},
	{Name: "core.storage.entries_stored_per_query", Unit: "count", Better: lower},
	{Name: "core.storage.evictions", Unit: "count", Better: lower},
	{Name: "core.storage.evicted_bytes", Unit: "B", Better: lower},
	{Name: "core.storage.sweep_ms", Unit: "ms", Better: lower},
	{Name: "core.storage.usage_bytes", Unit: "B", Better: lower},

	// Durable journal and leases: wrapper calls under <ns>/repo and
	// <ns>/locks, DurabilityStats, one timed Recover.
	{Name: "core.durable.appends", Unit: "count", Better: lower},
	{Name: "core.durable.append_bytes", Unit: "B", Better: lower},
	{Name: "core.durable.append_ms_per_query", Unit: "ms", Better: lower},
	{Name: "core.durable.lease_ops", Unit: "count", Better: lower},
	{Name: "core.durable.lease_ms_per_query", Unit: "ms", Better: lower},
	{Name: "core.durable.compactions", Unit: "count", Better: lower},
	{Name: "core.durable.recover_ms", Unit: "ms", Better: lower},
	{Name: "core.durable.recovered_entries", Unit: "count", Better: lower},

	// Delta refresh: DeltaStats deltas, refresh.* spans.
	{Name: "core.refresh.refreshes", Unit: "count", Better: higher},
	{Name: "core.refresh.failed", Unit: "count", Better: lower},
	{Name: "core.refresh.delta_bytes_read", Unit: "B", Better: lower},
	{Name: "core.refresh.cold_bytes_avoided", Unit: "B", Better: higher},
	{Name: "core.refresh.ms_per_refresh", Unit: "ms", Better: lower},
	{Name: "core.refresh.classify_ms", Unit: "ms", Better: lower},
	{Name: "core.refresh.delta_ms", Unit: "ms", Better: lower},
	{Name: "core.refresh.merge_ms", Unit: "ms", Better: lower},
	{Name: "core.refresh.drift_ratio", Unit: "ratio", Better: lower},

	// Engine: Result.JobStats, job.exec spans.
	{Name: "mapreduce.jobs_run", Unit: "count", Better: lower},
	{Name: "mapreduce.map_tasks", Unit: "count", Better: lower},
	{Name: "mapreduce.reduce_tasks", Unit: "count", Better: lower},
	{Name: "mapreduce.exec_ms_per_job", Unit: "ms", Better: lower},
	{Name: "mapreduce.exec_self_ms_per_job", Unit: "ms", Better: lower},
	{Name: "mapreduce.input_mb_per_exec_s", Unit: "MB/s", Better: higher},

	// Decoded-dataset cache: BatchCacheStats deltas.
	{Name: "mapreduce.cache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "mapreduce.cache.hits", Unit: "count", Better: higher},
	{Name: "mapreduce.cache.misses", Unit: "count", Better: lower},
	{Name: "mapreduce.cache.evictions", Unit: "count", Better: lower},
	{Name: "mapreduce.cache.used_bytes", Unit: "B", Better: lower},
	{Name: "mapreduce.cache.partition_replays", Unit: "count", Better: higher},

	// Codecs, replayed over the workload's own input part files.
	{Name: "tuple.decode_text_mb_s", Unit: "MB/s", Better: higher},
	{Name: "tuple.encode_text_mb_s", Unit: "MB/s", Better: higher},

	// DFS: the metering wrapper.
	{Name: "dfs.read.calls", Unit: "count", Better: lower},
	{Name: "dfs.read.bytes", Unit: "B", Better: lower},
	{Name: "dfs.read.ms", Unit: "ms", Better: lower},
	{Name: "dfs.write.calls", Unit: "count", Better: lower},
	{Name: "dfs.write.bytes", Unit: "B", Better: lower},
	{Name: "dfs.write.ms", Unit: "ms", Better: lower},
	{Name: "dfs.rename.calls", Unit: "count", Better: lower},
	{Name: "dfs.rename.ms", Unit: "ms", Better: lower},
	{Name: "dfs.cas.calls", Unit: "count", Better: lower},
	{Name: "dfs.cas.ms", Unit: "ms", Better: lower},
	{Name: "dfs.meta.calls", Unit: "count", Better: lower},
	{Name: "dfs.meta.ms", Unit: "ms", Better: lower},
	{Name: "dfs.delete.calls", Unit: "count", Better: lower},
	{Name: "dfs.delete.ms", Unit: "ms", Better: lower},
	{Name: "dfs.files_created_per_query", Unit: "count", Better: lower},
	{Name: "dfs.write_amp", Unit: "ratio", Better: lower},
	{Name: "dfs.busy_share", Unit: "ratio", Better: lower},

	// HTTP front end: client clock vs the engine's, GET /metrics.
	{Name: "service.http_overhead_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.rejected", Unit: "count", Better: lower},
	{Name: "service.completed", Unit: "count", Better: higher},

	// Simulated clock: must repeat exactly (Equation 1).
	{Name: "cluster.sim_time_s", Unit: "s", Better: lower},

	// Process and benchmark.
	{Name: "proc.allocs_per_query", Unit: "count", Better: lower},
	{Name: "proc.alloc_mb_per_query", Unit: "MB", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "oracle.checked", Unit: "count", Better: higher},
	{Name: "oracle.mismatches", Unit: "count", Better: lower},
}

// exactOnOneClient lists the counted per-layer metrics: on a 1-client
// workload they must read the same on every run of one seed, so they
// gate cleanly where wall time is noisy. Left out: allocation counts
// and cache residency (GC and scheduling), and every byte meter that
// includes journal or lease records — those carry dataset versions as
// variable-width integers, and which version a dataset gets depends on
// how the tasks' commits interleave, so they wobble by a few bytes. The
// data-plane bytes (result.DFS outside journal and locks) are exact.
var exactOnOneClient = []string{
	"mrcompile.jobs_per_query",
	"core.matcher.probes", "core.matcher.candidates_per_probe", "core.matcher.traversals_per_probe",
	"core.matcher.neg_hit_ratio", "core.matcher.index_entries",
	"core.matcher.reuse_hit_ratio", "core.matcher.jobs_reused_ratio",
	"core.storage.claims_granted", "core.storage.claim_waits", "core.storage.entries_stored_per_query",
	"core.storage.evictions", "core.storage.evicted_bytes", "core.storage.usage_bytes",
	"core.durable.appends", "core.durable.lease_ops",
	"core.durable.compactions", "core.durable.recovered_entries",
	"core.refresh.refreshes", "core.refresh.failed", "core.refresh.delta_bytes_read", "core.refresh.cold_bytes_avoided",
	"mapreduce.jobs_run", "mapreduce.map_tasks", "mapreduce.reduce_tasks",
	"mapreduce.cache.hits", "mapreduce.cache.misses",
	"dfs.read.calls", "dfs.write.calls",
	"dfs.rename.calls", "dfs.cas.calls", "dfs.meta.calls", "dfs.delete.calls",
	"dfs.files_created_per_query",
	"service.rejected", "service.completed",
	"cluster.sim_time_s",
	"oracle.checked", "oracle.mismatches",
}

// cacheBound are the exactOnOneClient metrics that stop being exact once
// the batch cache evicts (mapreduce.cache.evictions > 0): which entry
// the LRU drops depends on how the two task goroutines interleave, so
// on cold-store — whose cache is smaller than its input by design —
// hits, misses and the DFS reads behind them move by a percent or two.
var cacheBound = []string{
	"mapreduce.cache.hits", "mapreduce.cache.misses", "dfs.read.calls", "dfs.meta.calls",
}

// metrics maps metric name → value.
type metrics map[string]float64

// endToEndMetrics derives the eight user-visible numbers of a run:
// timing metrics are the median over passes of the per-pass value.
func endToEndMetrics(ph *phase, setups []float64) metrics {
	var p50, p95, qps []float64
	for _, ps := range ph.passes {
		p50 = append(p50, ps.P50Ms)
		p95 = append(p95, ps.P95Ms)
		qps = append(qps, ps.QPS)
	}
	c := ph.counts
	m := metrics{
		"setup_s":          median(setups),
		"query_p50_ms":     median(p50),
		"query_p95_ms":     median(p95),
		"throughput_qps":   median(qps),
		"cpu_ms_per_query": ms(ph.cpu) / float64(max(c.Queries, 1)),
		"success_ratio":    1 - failedRatio(c),
		"peak_rss_mb":      ph.rssMB,
	}
	if ph.inputs > 0 {
		m["stored_bytes_per_input_byte"] = float64(ph.inputs+ph.usage) / float64(ph.inputs)
	}
	return m
}

// failedRatio is (errors + exhausted 429s + oracle mismatches) ÷
// queries attempted.
func failedRatio(c counts) float64 {
	return float64(c.Failed+c.Mismatches) / float64(max(c.Queries, 1))
}

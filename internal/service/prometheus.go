package service

import (
	"fmt"
	"io"
)

// WritePrometheus emits the bundle in the Prometheus text exposition
// format (version 0.0.4): the four wall-latency histograms plus the
// headline counters and gauges of every subsystem. GET
// /metrics?format=prometheus serves it; the JSON bundle stays the
// default body.
func (b StatsBundle) WritePrometheus(w io.Writer) {
	b.Latency.Query.WritePrometheus(w, "restore_query_latency_seconds")
	b.Latency.Probe.WritePrometheus(w, "restore_probe_latency_seconds")
	b.Latency.ClaimWait.WritePrometheus(w, "restore_claim_wait_seconds")
	b.Latency.Refresh.WritePrometheus(w, "restore_refresh_latency_seconds")

	gauge := func(name string, v any) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", name, name, v)
	}
	counter := func(name string, v any) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %v\n", name, name, v)
	}

	gauge("restore_storage_entries", b.Storage.Entries)
	gauge("restore_storage_usage_bytes", b.Storage.UsageBytes)
	counter("restore_storage_evictions_total", b.Storage.Evictions)
	counter("restore_claims_granted_total", b.Storage.ClaimsGranted)
	counter("restore_claims_shared_total", b.Storage.ClaimsShared)

	counter("restore_matcher_probes_total", b.Matcher.Probes)
	counter("restore_matcher_candidates_total", b.Matcher.Candidates)
	counter("restore_matcher_traversals_total", b.Matcher.FullTraversals)
	counter("restore_matcher_matches_total", b.Matcher.Matches)
	counter("restore_matcher_negative_hits_total", b.Matcher.NegativeHits)
	gauge("restore_matcher_index_entries", b.Matcher.IndexEntries)

	counter("restore_batch_cache_hits_total", b.BatchCache.Hits)
	counter("restore_batch_cache_misses_total", b.BatchCache.Misses)

	counter("restore_delta_refreshes_total", b.Delta.Refreshes)
	counter("restore_delta_refresh_failed_total", b.Delta.Failed)
	counter("restore_delta_bytes_read_total", b.Delta.DeltaBytesRead)
	counter("restore_delta_cold_bytes_avoided_total", b.Delta.ColdBytesAvoided)

	counter("restore_durable_dropped_appends_total", b.Durability.DroppedAppends)

	gauge("restore_memory_heap_live_bytes", b.Memory.HeapLiveBytes)
	gauge("restore_memory_heap_goal_bytes", b.Memory.HeapGoalBytes)
	gauge("restore_memory_batch_cache_bytes", b.Memory.BatchCacheBytes)
	gauge("restore_memory_dfs_bytes", b.Memory.DFSBytes)

	if svc := b.Service; svc != nil {
		gauge("restore_service_sessions_active", svc.SessionsActive)
		counter("restore_service_submitted_total", svc.Submitted)
		counter("restore_service_rejected_total", svc.Rejected)
		counter("restore_service_completed_total", svc.Completed)
		counter("restore_service_failed_total", svc.Failed)
		counter("restore_service_canceled_total", svc.Canceled)
		gauge("restore_service_queued", svc.Queued)
		gauge("restore_service_in_flight", svc.InFlight)
		counter("restore_service_queries_with_reuse_total", svc.QueriesWithReuse)
	}
}

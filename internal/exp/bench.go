package exp

import (
	"encoding/json"
	"io"
	"time"
)

// BenchArtifact is the machine-readable perf artifact CI uploads as
// BENCH_<sha>.json: the service-level load-harness report of one
// commit, so a later PR's artifact diffs cleanly against this one.
type BenchArtifact struct {
	// SHA identifies the commit the artifact measures.
	SHA string `json:"sha"`
	// GeneratedAt stamps the run (RFC 3339).
	GeneratedAt time.Time `json:"generatedAt"`
	// Load is the restore-load harness report, when a load run was part
	// of the job.
	Load *LoadReport `json:"load,omitempty"`
}

// WriteJSON writes the artifact as one indented JSON document.
func (a *BenchArtifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// LoadReport is the load harness's service-level measurement: latency
// percentiles, throughput, reuse-hit ratio, and admission rejections,
// in total and per tenant.
type LoadReport struct {
	// Addr is the server driven; Sessions, QueriesPerSession and Skew
	// describe the workload shape; Mix the query names offered
	// (most popular first under the Zipfian draw).
	Addr              string   `json:"addr"`
	Sessions          int      `json:"sessions"`
	QueriesPerSession int      `json:"queriesPerSession"`
	Skew              float64  `json:"skew"`
	Mix               []string `json:"mix,omitempty"`

	// Completed, Failed and Canceled count terminal queries; Rejected
	// counts 429 responses observed (each retry that was again rejected
	// counts once more).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`

	// WallSeconds is the harness's total wall time; Throughput is
	// completed queries per second over it.
	WallSeconds float64 `json:"wallSeconds"`
	Throughput  float64 `json:"throughput"`

	// Latency percentiles of completed queries, submit → result,
	// milliseconds.
	LatencyP50Ms float64 `json:"latencyP50Ms"`
	LatencyP95Ms float64 `json:"latencyP95Ms"`
	LatencyP99Ms float64 `json:"latencyP99Ms"`
	LatencyMaxMs float64 `json:"latencyMaxMs"`

	// Reuse accounting over completed queries: MapReduce jobs run
	// versus whole-job reuses, rewrites applied, queries with at least
	// one reuse, and the query-level reuse-hit ratio
	// (QueriesWithReuse/Completed).
	JobsRun          int64   `json:"jobsRun"`
	JobsReused       int64   `json:"jobsReused"`
	Rewrites         int64   `json:"rewrites"`
	QueriesWithReuse int64   `json:"queriesWithReuse"`
	ReuseHitRatio    float64 `json:"reuseHitRatio"`

	// Batch-cache accounting scraped from the server's /metrics after
	// the run: decoded-dataset cache hits and misses across every job
	// the load executed, and their ratio. Zero when the harness could
	// not scrape the server or the cache is disabled.
	BatchCacheHits     int64   `json:"batchCacheHits"`
	BatchCacheMisses   int64   `json:"batchCacheMisses"`
	BatchCacheHitRatio float64 `json:"batchCacheHitRatio"`

	// Incremental-maintenance accounting scraped alongside: entries
	// delta-refreshed after input appends, appended bytes their delta
	// jobs read, and the cold-recompute bytes those refreshes avoided.
	DeltaRefreshes        int64 `json:"deltaRefreshes"`
	DeltaRefreshFailed    int64 `json:"deltaRefreshFailed"`
	DeltaBytesRead        int64 `json:"deltaBytesRead"`
	DeltaColdBytesAvoided int64 `json:"deltaColdBytesAvoided"`

	// Server-side stage-latency breakdown scraped from the /metrics
	// histograms after the run: where a query's wall time went —
	// matcher probes, claim waits and delta refreshes. Always emitted
	// (zero counts when the harness could not scrape) so dashboards can
	// rely on the columns.
	ProbeLatency     StageLatency `json:"probeLatency"`
	ClaimWaitLatency StageLatency `json:"claimWaitLatency"`
	RefreshLatency   StageLatency `json:"refreshLatency"`

	// PerTenant breaks the traffic down by tenant.
	PerTenant map[string]*TenantLoad `json:"perTenant,omitempty"`
}

// StageLatency is one server-side histogram's percentile summary, as
// interpolated from the cumulative buckets at scrape time.
type StageLatency struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// TenantLoad is one tenant's slice of a load run.
type TenantLoad struct {
	Sessions         int     `json:"sessions"`
	Completed        int64   `json:"completed"`
	Failed           int64   `json:"failed"`
	Canceled         int64   `json:"canceled"`
	Rejected         int64   `json:"rejected"`
	LatencyP50Ms     float64 `json:"latencyP50Ms"`
	LatencyP99Ms     float64 `json:"latencyP99Ms"`
	JobsRun          int64   `json:"jobsRun"`
	JobsReused       int64   `json:"jobsReused"`
	Rewrites         int64   `json:"rewrites"`
	QueriesWithReuse int64   `json:"queriesWithReuse"`
}

// Percentile returns the p-th percentile (0..100) of sorted
// millisecond samples (nearest-rank). Zero for an empty set.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

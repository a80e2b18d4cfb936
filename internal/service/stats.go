package service

import (
	"encoding/json"
	"io"
	"runtime/metrics"

	"repro"
)

// StatsBundle is the one machine-readable stats document of a System:
// the /metrics endpoint's body, and exactly what `restore-cli
// -stats-json` prints, so dashboards parse one schema whether they
// watch a server or a one-shot run.
type StatsBundle struct {
	// Storage, Matcher and Durability are the engine subsystems'
	// snapshots (Durability is zero without Config.Durability); the
	// lease counters are Storage.Leases.
	Storage    restore.StorageStats    `json:"storage"`
	Matcher    restore.MatcherStats    `json:"matcher"`
	Durability restore.DurabilityStats `json:"durability"`
	// BatchCache snapshots the engine's decoded-dataset cache (the
	// in-memory fast path); zero when the cache is disabled.
	BatchCache restore.BatchCacheStats `json:"batchCache"`
	// Delta snapshots incremental maintenance: stored entries
	// delta-refreshed after input appends instead of recomputed cold.
	Delta restore.DeltaStats `json:"delta"`
	// Latency carries the wall-latency histograms (submit→done, probe,
	// claim-wait, refresh) with interpolated p50/p95/p99 and cumulative
	// buckets; always present so scrapers can rely on the shape.
	Latency restore.LatencySnapshot `json:"latency"`
	// Memory is the process's memory at snapshot time.
	Memory MemoryStats `json:"memory"`
	// Service carries the serving front-end's per-tenant counters; nil
	// when the bundle was taken from a System with no server in front
	// (restore-cli).
	Service *ServiceStats `json:"service,omitempty"`
}

// SystemStats snapshots the engine-side stats of sys into a bundle.
func SystemStats(sys *restore.System) StatsBundle {
	return StatsBundle{
		Storage:    sys.StorageStats(),
		Matcher:    sys.MatcherStats(),
		Durability: sys.DurabilityStats(),
		BatchCache: sys.BatchCacheStats(),
		Delta:      sys.DeltaStats(),
		Latency:    sys.LatencyStats(),
		Memory:     memoryStats(sys),
	}
}

// MemoryStats is the process's memory: the Go heap as the garbage
// collector sees it, beside the two resident data sets of a System —
// the decoded-dataset cache and the DFS's stored bytes (in memory on
// the memory backend, on disk on the disk backend).
type MemoryStats struct {
	// HeapLiveBytes is the heap the last GC found live;
	// HeapGoalBytes the heap size at which the next GC starts.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// BatchCacheBytes is the decoded batches the cache holds.
	BatchCacheBytes int64 `json:"batch_cache_bytes"`
	// DFSBytes is the bytes the DFS stores.
	DFSBytes int64 `json:"dfs_bytes"`
}

func memoryStats(sys *restore.System) MemoryStats {
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(heap)
	return MemoryStats{
		HeapLiveBytes:   heap[0].Value.Uint64(),
		HeapGoalBytes:   heap[1].Value.Uint64(),
		BatchCacheBytes: sys.BatchCacheStats().UsedBytes,
		DFSBytes:        sys.FS().TotalBytes(),
	}
}

// WriteJSON writes the bundle as one indented JSON document.
func (b StatsBundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ServiceStats is the serving front-end's counter snapshot: admission
// traffic, live depth, and reuse accounting, in total and per tenant.
type ServiceStats struct {
	// SessionsCreated and SessionsActive count sessions ever opened and
	// currently open.
	SessionsCreated int64 `json:"sessionsCreated"`
	SessionsActive  int64 `json:"sessionsActive"`

	TenantCounters

	// Tenants breaks the counters down by tenant identity.
	Tenants map[string]*TenantCounters `json:"tenants,omitempty"`
}

// TenantCounters is one tenant's (or the whole service's) counter set.
type TenantCounters struct {
	// Weight, MaxInFlight and MaxQueued echo the effective quota (zero
	// on the service-wide totals).
	Weight      int `json:"weight,omitempty"`
	MaxInFlight int `json:"maxInFlight,omitempty"`
	MaxQueued   int `json:"maxQueued,omitempty"`

	// Submitted counts queries accepted for admission; Rejected those
	// turned away with 429 (over-quota); Admitted those that reached
	// System.Submit; Completed/Failed/Canceled the terminal states.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`

	// Queued and InFlight are the live depths.
	Queued   int64 `json:"queued"`
	InFlight int64 `json:"inFlight"`

	// JobsRun and JobsReused total the completed queries' MapReduce
	// jobs executed versus answered whole from the repository; Rewrites
	// counts the repository reuses applied (whole-job and sub-plan);
	// QueriesWithReuse counts completed queries with at least one
	// reuse of either kind. QueriesWithReuse/Completed is the
	// service-level reuse-hit ratio.
	JobsRun          int64 `json:"jobsRun"`
	JobsReused       int64 `json:"jobsReused"`
	Rewrites         int64 `json:"rewrites"`
	QueriesWithReuse int64 `json:"queriesWithReuse"`
}

// ReuseHitRatio is the share of completed queries answered at least
// partly from the repository (0 when none completed yet).
func (c *TenantCounters) ReuseHitRatio() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.QueriesWithReuse) / float64(c.Completed)
}

// serviceMeter accumulates ServiceStats under the server's lock.
type serviceMeter struct {
	total   TenantCounters
	tenants map[string]*TenantCounters
}

func newServiceMeter() *serviceMeter {
	return &serviceMeter{tenants: map[string]*TenantCounters{}}
}

// forTenant returns (creating) the tenant's counter set.
func (m *serviceMeter) forTenant(tenant string, quota TenantQuota) *TenantCounters {
	c := m.tenants[tenant]
	if c == nil {
		q := quota.resolved()
		c = &TenantCounters{Weight: q.Weight, MaxInFlight: q.MaxInFlight, MaxQueued: q.MaxQueued}
		m.tenants[tenant] = c
	}
	return c
}

// add applies fn to both the service-wide totals and the tenant's set.
func (m *serviceMeter) add(tenant string, quota TenantQuota, fn func(*TenantCounters)) {
	fn(&m.total)
	fn(m.forTenant(tenant, quota))
}

// snapshot deep-copies the counters.
func (m *serviceMeter) snapshot() ServiceStats {
	out := ServiceStats{TenantCounters: m.total, Tenants: map[string]*TenantCounters{}}
	// The totals row carries no quota of its own.
	out.Weight, out.MaxInFlight, out.MaxQueued = 0, 0, 0
	for name, c := range m.tenants {
		cp := *c
		out.Tenants[name] = &cp
	}
	return out
}

package restore

import (
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// Re-exported data model types.
type (
	// Tuple is one row of a dataset.
	Tuple = tuple.Tuple
	// Bag is a collection of tuples (appears in grouped results).
	Bag = tuple.Bag
)

// Options configures ReStore behaviour per workflow; see core.Options.
type Options = core.Options

// Heuristic selects which operator outputs the sub-job enumerator
// materializes.
type Heuristic = core.Heuristic

// JobState is the lifecycle of one MapReduce job within a submitted
// query, reported by Query.Status.
type JobState = core.JobState

// Storage-management types; see internal/core's StorageManager.
type (
	// EvictionPolicy selects repository entries to evict when the store
	// exceeds Config.MaxRepositoryBytes.
	EvictionPolicy = core.EvictionPolicy
	// ReuseWindowPolicy evicts entries idle beyond a window first
	// (the paper's Rule 3 adapted to a budget), then the least recently
	// used. With a zero window it is plain LRU.
	ReuseWindowPolicy = core.ReuseWindowPolicy
	// CostBenefitPolicy evicts the entries with the least reuse benefit
	// per stored byte first (the default under a budget).
	CostBenefitPolicy = core.CostBenefitPolicy
	// StorageStats snapshots repository usage, claim-protocol traffic,
	// evictions and janitor activity.
	StorageStats = core.StorageStats
	// MatcherStats snapshots the plan-matcher subsystem: index probes
	// and candidate counts, full containment traversals, matches, and
	// the signature index's size.
	MatcherStats = core.MatcherStats
	// SweepReport reports one janitor pass.
	SweepReport = core.SweepResult
	// DurabilityStats snapshots the durable repository: recovery size,
	// event-log traffic, compactions, and lazy plan decodes.
	DurabilityStats = core.DurabilityStats
	// BatchCacheStats snapshots the engine's decoded-dataset cache:
	// hits, misses, resident bytes, evictions and invalidations.
	BatchCacheStats = mapreduce.BatchCacheStats
	// DeltaStats snapshots incremental maintenance: stored entries
	// delta-refreshed after input appends, appended bytes read, and
	// cold recompute bytes avoided.
	DeltaStats = core.DeltaStats
	// TraceSnapshot is one query's recorded span tree (see Query.Trace
	// and internal/obs for the span taxonomy).
	TraceSnapshot = obs.TraceJSON
	// TraceSpan is one span of a TraceSnapshot.
	TraceSpan = obs.SpanJSON
	// LatencySnapshot carries the system's wall-latency histograms
	// (submit→done, probe, claim-wait, refresh) with interpolated
	// p50/p95/p99 and cumulative buckets.
	LatencySnapshot = obs.LatencySnapshot
)

// ExplainTrace renders a query's trace snapshot as the human-readable
// reuse-provenance report (restore-cli -explain).
func ExplainTrace(w io.Writer, t *TraceSnapshot) { obs.Explain(w, t) }

// The job lifecycle states.
const (
	// JobPending: not yet dispatched (dependencies incomplete, or the
	// query was cancelled before the job started).
	JobPending = core.JobPending
	// JobRunning: being matched, rewritten and executed.
	JobRunning = core.JobRunning
	// JobReused: answered entirely from the repository; never ran.
	JobReused = core.JobReused
	// JobDone: executed to completion.
	JobDone = core.JobDone
	// JobFailed: execution returned an error.
	JobFailed = core.JobFailed
	// JobCanceled: aborted by context cancellation after starting.
	JobCanceled = core.JobCanceled
)

// The sub-job enumeration heuristics of the paper's Section 4.
const (
	// HeuristicOff stores no sub-jobs.
	HeuristicOff = core.HeuristicOff
	// Conservative stores outputs of size-reducing operators
	// (Project and Filter).
	Conservative = core.Conservative
	// Aggressive additionally stores outputs of expensive operators
	// (Join, Group, CoGroup).
	Aggressive = core.Aggressive
	// NoHeuristic stores the output of every physical operator.
	NoHeuristic = core.NoHeuristic
)

// Config configures a System.
type Config struct {
	// Topology is the simulated cluster (defaults to the paper's
	// 14 workers × 4 map slots × 2 reduce slots).
	Topology cluster.Topology
	// Cost is the simulated cost model.
	Cost cluster.CostModel
	// SimScale maps actual stored bytes to simulated bytes, letting
	// megabyte-scale test data stand in for the paper's 15 GB and
	// 150 GB instances.
	SimScale float64
	// RecordScale maps actual records to simulated ones (defaults to
	// SimScale).
	RecordScale float64
	// MaxCachedBatchBytes bounds the engine's decoded-dataset batch
	// cache — the in-memory fast path that feeds repeated reads of hot
	// datasets (repository outputs, warm inputs) from resident columnar
	// batches instead of re-reading and re-parsing part files. Zero
	// selects the default (256 MiB); negative disables the cache. The
	// budget counts what the cache adds beyond the DFS's file text —
	// column vectors, string headers, boxed values, line offsets and
	// unescaped strings (tuple.Batch.MemBytes) — and the text the
	// batches' strings slice only when the DFS does not hold it in
	// memory itself: the in-memory backend's text is not counted, a
	// Disk read's buffer is. Outputs and simulated times are identical
	// with the cache on or off.
	MaxCachedBatchBytes int64
	// DefaultReducers is the reduce parallelism for statements without
	// a PARALLEL clause (default: the cluster's reduce slots).
	DefaultReducers int
	// WorkflowWorkers bounds how many MapReduce jobs of one workflow
	// run concurrently (independent jobs of the DAG only; dependencies
	// are always respected). Zero means GOMAXPROCS(0); 1 forces the serial
	// execution order of stock Pig. Simulated times are identical at
	// any setting. WithWorkers overrides it per query.
	WorkflowWorkers int
	// MaxRepositoryBytes bounds the bytes the repository retains for
	// reuse: when the maintenance after a query, or a janitor pass,
	// finds the stored outputs over this budget, the Eviction policy
	// picks entries to drop until they fit. Zero means unbounded.
	MaxRepositoryBytes int64
	// Eviction is the policy ranking entries for budget eviction; nil
	// defaults to CostBenefitPolicy. ReuseWindowPolicy is the
	// alternative; with a zero Window it is plain LRU.
	Eviction EvictionPolicy
	// NamespaceRoot is the DFS directory ReStore's managed namespaces
	// live under: per-query sub-job outputs go under
	// "<root>/restore/<qid>", temporaries (including staged STORE
	// outputs) under "<root>/tmp/<qid>", the durable repository under
	// "<root>/repo" and leases under "<root>/locks". The janitor's
	// orphan sweep reclaims only the first two trees, so no user
	// dataset outside the root is ever its. Empty means ".restore".
	NamespaceRoot string
	// JanitorInterval starts a background janitor goroutine running
	// Sweep every interval: it reaps expired claims and pins of dead
	// processes, runs the maintenance pass every query runs (the
	// entries the DFS change feed moved, the reuse window, the byte
	// budget and — on a durable store — due log compactions), and
	// reclaims the per-query namespaces of dead queries. Zero disables
	// the goroutine; Sweep still runs a pass on demand. Held claims and
	// pins are renewed by the lease heartbeat, not the janitor.
	JanitorInterval time.Duration
	// Durability makes the repository survive restarts and lets several
	// Systems opened over one DFS (see Recover) share it.
	Durability DurabilityConfig
	// Options configures ReStore (reuse off by default: the engine then
	// behaves like stock Pig/Hadoop).
	Options Options
}

// DurabilityConfig configures the durable repository: a crash-safe
// manifest + append-only event log on the DFS, and the lifetime of the
// claim leases. Zero-valued, durability is off and the repository lives
// in process memory exactly as before.
type DurabilityConfig struct {
	// Enabled turns the subsystem on: every repository mutation is
	// journaled to the DFS before it is acknowledged, and recovery
	// (Recover, or opening over a DFS that already holds a log) replays
	// manifest + log — rebuilding the signature index from persisted
	// footprints without decoding any stored plan. A claim waiter reads
	// the holder's entry from the log, so Systems in different processes
	// sharing one DFS share in-flight materializations (serialized by
	// the claim leases under "<ns-root>/locks/") instead of duplicating
	// them.
	Enabled bool
	// CompactEvery folds the event log into a fresh manifest after this
	// many appended records (0 = default 64, negative = never compact
	// automatically).
	CompactEvery int
	// LeaseTTL bounds how long a crashed process's claims can block
	// peers and its pins can shield entries from their eviction (0 =
	// default 1 minute). It applies to every System's claims and pins,
	// durable or not; a live System renews both every third of it.
	LeaseTTL time.Duration
}

// DefaultConfig returns a configuration mirroring the paper's testbed
// with ReStore disabled.
func DefaultConfig() Config {
	topo := cluster.DefaultTopology()
	return Config{
		Topology:        topo,
		Cost:            cluster.DefaultCostModel(),
		SimScale:        1,
		DefaultReducers: topo.ReduceSlots(),
	}
}

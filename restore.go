// Package restore is the public API of the ReStore reproduction: a
// dataflow system (a Pig Latin subset compiled to MapReduce workflows),
// a laptop-scale MapReduce engine with a simulated cluster clock, and
// the ReStore extension that stores and reuses the outputs of MapReduce
// jobs and sub-jobs across queries.
//
// Quick start:
//
//	sys := restore.New(restore.DefaultConfig())
//	sys.WriteDataset("events", rows)
//	res, err := sys.Execute(`
//	    A = load 'events' as (user, amount);
//	    B = group A by user;
//	    C = foreach B generate group, SUM(A.amount);
//	    store C into 'totals';
//	`)
//	rows, err := res.Output("totals")
//
// Execute both runs the query (for real, on the embedded engine) and
// reports the simulated "time on Hadoop" for the paper's 15-node
// cluster. It is the synchronous wrapper over the query-handle API:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	q, err := sys.Submit(ctx, script,
//	    restore.WithOptions(restore.Options{Reuse: true, KeepWholeJobs: true}),
//	    restore.WithTag("dashboard-refresh"))
//	// ... q.Status() reports per-job states while the query runs ...
//	res, err := q.Wait()
//
// Submit returns immediately with a *Query handle: Wait blocks for the
// result, Done exposes a completion channel for select loops, Status
// snapshots per-job lifecycle states (pending, running, reused, done),
// and Result fetches the outcome without blocking. Cancelling the
// submission context (or exceeding its deadline) aborts the workflow
// promptly: unstarted jobs never run, in-flight jobs release their
// engine task slots, Wait returns the context's error, and nothing is
// published — each query's STORE outputs are staged in a private temp
// namespace and atomically renamed into place only when the whole
// workflow commits.
//
// Reuse is configured per query: WithOptions, WithHeuristic,
// WithWorkers and WithTag override the System's defaults for one
// submission only, so reuse-on and reuse-off queries run side by side
// on one System. Config.Options remains the default for submissions
// that pass no options.
//
// # Concurrency model
//
// A System serves many clients at once: Submit, Execute, Compile,
// WriteDataset and ReadDataset may be called concurrently from any
// number of goroutines against one System. Four layers make this safe:
//
//   - DAG scheduling. Within one workflow, jobs are scheduled over the
//     dependency DAG: independent jobs run concurrently on a bounded
//     worker pool (Config.WorkflowWorkers or WithWorkers, default
//     NumCPU), and a job starts only after every job it depends on
//     completed. Across workflows, Config.MaxClusterJobs optionally
//     caps the total number of jobs running at once (global admission).
//     The simulated time still comes from the paper's Equation 1
//     (critical path over the DAG), so concurrency changes wall time
//     only.
//
//   - Locking discipline. The repository of stored job outputs is
//     internally synchronized (entries are immutable once inserted;
//     re-registration swaps in fresh entries); the DFS is safe for
//     concurrent use; the driver's simulated clock and query counter
//     are atomic. Workflow structures are never shared: every
//     submission clones its compiled workflow, and within one execution
//     all whole-job-reuse mutations (dropping a job, redirecting its
//     dependants' loads) happen under a per-execution workflow lock,
//     before the affected dependants start.
//
//   - Per-query configuration. Each submission takes an immutable
//     snapshot of the System's options at Submit time, then applies its
//     ExecOptions. A query's configuration can never change mid-flight,
//     and queries with different options interleave freely.
//
//   - Output staging. Every query writes its user STORE outputs under
//     its private temp namespace and atomically renames them into place
//     when the workflow commits, so concurrent queries storing to the
//     same path leave it holding exactly one query's complete dataset —
//     never an interleaving of part files — and cancelled or failed
//     queries publish nothing.
//
// SetOptions, SetScales and SetSimScale still take a write lock that
// waits for all in-flight queries to drain; prefer per-query
// ExecOptions for tuning, and reserve SetOptions for changing the
// defaults of a quiet System.
//
// # Storage management
//
// The repository of stored outputs is an actively managed shared
// resource:
//
//   - Claims. Before materializing a sub-job output, a query claims its
//     plan fingerprint; a concurrent query about to materialize the
//     same sub-job blocks until the winner commits, then rewrites
//     against the freshly committed entry instead of duplicating the
//     work. Claims are on whenever a query stores anything; when a
//     winner aborts, the waiters contend for the claim again.
//
//   - Budget. Config.MaxRepositoryBytes bounds the bytes the repository
//     retains; when exceeded, the Config.Eviction policy (reuse-window,
//     LRU, or the default cost-benefit) picks victims. Entries read by
//     in-flight rewrites are pinned and never evicted.
//
//   - Janitor. With Config.JanitorInterval > 0, a background goroutine
//     owned by the System periodically vacuums invalid entries, dead
//     queries' orphaned namespaces (restore/<qid>/…, tmp/<qid>/… — the
//     two are reserved, managed prefixes), and over-budget entries.
//     Sweep runs one pass synchronously. Close stops the janitor; a
//     closed System rejects new submissions but lets in-flight queries
//     finish.
//
// System.Queries lists the in-flight query handles, and Cancel aborts
// them by ID or tag; StorageStats reports repository usage, claim
// traffic, evictions and janitor activity.
//
// # Durability and multi-process serving
//
// With Config.Durability enabled, the repository survives restarts and
// is shared by every System recovered over the same DFS:
//
//   - Event log. Every repository mutation appends a record — entry
//     metadata, fingerprint, signature footprint, scan position, and
//     the plan as an opaque blob — to an append-only log on the DFS
//     before the mutation is acknowledged; periodic compaction folds
//     the log into a manifest via write-temp-then-rename. Recover
//     replays manifest + log, rebuilding the signature index from the
//     persisted footprints without decoding a single stored plan
//     (plans decode lazily on first use by a containment traversal).
//     A crash at any boundary recovers to exactly the acknowledged
//     state.
//
//   - Claim leases. Materialization claims are backed by TTL'd lease
//     records with fencing versions in a locks namespace on the DFS, so
//     two processes about to materialize the same sub-job resolve to
//     one winner; the loser waits on the lease, folds the winner's log
//     records into its own repository, and reuses the committed entry.
//     The janitor reaps expired leases, so a crashed process's
//     in-flight claims unblock its peers within the TTL.
//
// Each recovered System gets a process-unique writer identity: query
// IDs, repository entry IDs and the janitor's orphan sweep are scoped
// by it, so co-tenants never collide in the shared namespaces.
// DurabilityStats reports recovery size and log traffic; CompactLog and
// RefreshRepository expose the background maintenance on demand.
//
// # Plan matching
//
// Reuse opportunities are found through a signature index rather than
// the paper's sequential repository scan: a probe nominates only the
// entries whose signature footprint could be contained in the incoming
// job, in the same preference order the scan would visit them, so match
// cost scales with plan size instead of repository size. The scan stays
// in internal/core as the reference the differential suites compare the
// index against: the two choose identical entries. MatcherStats reports
// probe, candidate and traversal counts and the index's size.
package restore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mapreduce"
	"repro/internal/mrcompile"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// Re-exported data model types.
type (
	// Tuple is one row of a dataset.
	Tuple = tuple.Tuple
	// Value is one field of a Tuple: nil, int64, float64, string,
	// Tuple, or *Bag.
	Value = tuple.Value
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
	// (the paper's Rule 3 adapted to a budget).
	ReuseWindowPolicy = core.ReuseWindowPolicy
	// LRUPolicy evicts the least recently used entries first.
	LRUPolicy = core.LRUPolicy
	// CostBenefitPolicy evicts the entries with the least reuse benefit
	// per stored byte first (the default under a budget).
	CostBenefitPolicy = core.CostBenefitPolicy
	// StorageStats snapshots repository usage, claim-protocol traffic,
	// evictions and janitor activity.
	StorageStats = core.StorageStats
	// MatcherStats snapshots the plan-matcher subsystem: index probes
	// and candidate counts, full containment traversals, memoized
	// rejections, and the signature index's size.
	MatcherStats = core.MatcherStats
	// SweepReport reports one janitor pass.
	SweepReport = core.SweepResult
	// DurabilityStats snapshots the durable repository: recovery size,
	// event-log traffic, compactions, and lazy plan decodes.
	DurabilityStats = core.DurabilityStats
	// LeaseStats snapshots the cross-process lease manager.
	LeaseStats = core.LeaseStats
	// BatchCacheStats snapshots the engine's decoded-dataset cache:
	// hits, misses, resident bytes, evictions, invalidations, and
	// shuffle partition replay counts.
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
	// SplitSize is the simulated input split size (default 128 MiB).
	SplitSize int64
	// MaxCachedBatchBytes bounds the engine's decoded-dataset batch
	// cache — the in-memory fast path that feeds repeated reads of hot
	// datasets (repository outputs, warm inputs) from resident columnar
	// batches instead of re-reading and re-parsing part files. Zero
	// selects the default (256 MiB); negative disables the cache.
	// Outputs and simulated times are identical with the cache on or
	// off.
	MaxCachedBatchBytes int64
	// DefaultReducers is the reduce parallelism for statements without
	// a PARALLEL clause (default: the cluster's reduce slots).
	DefaultReducers int
	// WorkflowWorkers bounds how many MapReduce jobs of one workflow
	// run concurrently (independent jobs of the DAG only; dependencies
	// are always respected). Zero means NumCPU; 1 forces the serial
	// execution order of stock Pig. Simulated times are identical at
	// any setting. WithWorkers overrides it per query.
	WorkflowWorkers int
	// MaxClusterJobs caps how many MapReduce jobs run at once across
	// ALL concurrent queries of this System (global admission control;
	// each job holds one slot only while it executes, never across
	// dependency waits). Zero means unlimited. Like WorkflowWorkers it
	// bounds real resource use only; simulated times are unchanged.
	MaxClusterJobs int
	// MaxRepositoryBytes bounds the bytes the repository retains for
	// reuse: when a sweep finds the stored outputs over this budget,
	// the Eviction policy picks entries to drop until they fit. Zero
	// means unbounded.
	MaxRepositoryBytes int64
	// Eviction is the policy ranking entries for budget eviction; nil
	// defaults to CostBenefitPolicy. ReuseWindowPolicy and LRUPolicy
	// are the alternatives.
	Eviction EvictionPolicy
	// NamespaceRoot confines ReStore's managed DFS namespaces to a
	// directory of their own: per-query sub-job outputs go under
	// "<root>/restore/<qid>" and temporaries (including staged STORE
	// outputs) under "<root>/tmp/<qid>", and the janitor's orphan sweep
	// reclaims only those two trees. The default "" keeps the legacy
	// top-level "restore/<qid>" and "tmp/<qid>" layout, in which those
	// two prefixes are reserved — user datasets written there are
	// treated as ReStore's own and may be reclaimed. Set a root (e.g.
	// ".restore") to make every user-visible path off limits to the
	// janitor.
	NamespaceRoot string
	// JanitorInterval starts a background janitor goroutine sweeping
	// the storage every interval: invalid entries (Rule 4), orphaned
	// per-query namespaces of dead queries, over-budget entries, and —
	// on a durable store — expired cross-process leases and due log
	// compactions. Zero disables the goroutine; Sweep still runs a pass
	// on demand.
	JanitorInterval time.Duration
	// NegCacheEntries bounds the cross-query negative-containment cache
	// (rejected containment tests memoized across submissions, keyed by
	// entry version and job fingerprint and invalidated on entry
	// replacement or removal). Zero keeps the default
	// (core.DefaultNegCacheSize); negative disables the cache.
	NegCacheEntries int
	// Durability makes the repository survive restarts and lets several
	// Systems opened over one DFS (see Recover) share it.
	Durability DurabilityConfig
	// Options configures ReStore (reuse off by default: the engine then
	// behaves like stock Pig/Hadoop).
	Options Options
}

// DurabilityConfig configures the durable repository: a crash-safe
// manifest + append-only event log on the DFS, plus cross-process claim
// leases. Zero-valued, durability is off and the repository lives in
// process memory exactly as before.
type DurabilityConfig struct {
	// Enabled turns the subsystem on: every repository mutation is
	// journaled to the DFS before it is acknowledged, recovery (Recover,
	// or opening over a DFS that already holds a log) replays
	// manifest + log — rebuilding the signature index from persisted
	// footprints without decoding any stored plan — and materialization
	// claims are backed by TTL'd lease records under "<ns-root>/locks/",
	// so Systems in different processes sharing one DFS share in-flight
	// materializations instead of duplicating them.
	Enabled bool
	// Path is the DFS directory holding the manifest and event log;
	// empty defaults to "<NamespaceRoot>/repo".
	Path string
	// CompactEvery folds the event log into a fresh manifest after this
	// many appended records (0 = default 64, negative = never compact
	// automatically).
	CompactEvery int
	// LeaseTTL bounds how long a crashed process's claims can block
	// peers (0 = default 1 minute); LeasePoll is the cross-process lease
	// polling interval (0 = default 2ms).
	LeaseTTL  time.Duration
	LeasePoll time.Duration
}

// DefaultConfig returns a configuration mirroring the paper's testbed
// with ReStore disabled.
func DefaultConfig() Config {
	topo := cluster.DefaultTopology()
	return Config{
		Topology:        topo,
		Cost:            cluster.DefaultCostModel(),
		SimScale:        1,
		SplitSize:       128 << 20,
		DefaultReducers: topo.ReduceSlots(),
	}
}

// System is a live instance: a DFS, a MapReduce engine, a repository of
// stored job outputs, and the ReStore driver. Execute may be called
// concurrently from many goroutines; see the package comment for the
// concurrency model.
type System struct {
	// mu serializes reconfiguration (SetOptions, SetScales) against
	// in-flight Execute calls: executions hold the read side for their
	// full duration, reconfiguration takes the write side.
	mu     sync.RWMutex
	fs     dfs.Backend
	eng    *mapreduce.Engine
	repo   *core.Repository
	store  *core.StorageManager
	driver *core.Driver
	cfg    Config
	nquery atomic.Int64

	// durable is the durability subsystem's event log (nil when
	// Config.Durability is off); qidPrefix makes query IDs unique across
	// processes sharing one DFS ("w2q3" instead of "q3").
	durable   *core.DurableLog
	qidPrefix string

	// qmu guards the in-flight query registry. A query is registered
	// before its first DFS write and deregistered only after its
	// execution fully returns, so the janitor's live-query snapshot
	// never misses a namespace that is still being written.
	qmu     sync.Mutex
	queries map[string]*Query

	closed      atomic.Bool
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New creates a System over a fresh, empty DFS.
func New(cfg Config) *System {
	s, err := Recover(cfg, dfs.New())
	if err != nil {
		// A fresh DFS holds no manifest or log to mis-decode; reaching
		// here means the configuration itself is unusable.
		panic(fmt.Sprintf("restore: New: %v", err))
	}
	return s
}

// Recover opens a System over an existing DFS. With Config.Durability
// enabled it replays the durable repository — manifest plus event log —
// rebuilding the signature index from the persisted footprints (no
// stored plan is decoded) and resuming the simulated clock past every
// persisted event; on a DFS holding no log yet, it initializes one.
// Several Systems may be recovered over one DFS concurrently: they
// share the repository through the event log and serialize sub-job
// materialization through cross-process claim leases, and each gets a
// process-unique writer identity (query IDs, entry IDs and the
// janitor's orphan sweep are all scoped by it).
//
// Without durability, Recover simply attaches a fresh in-memory
// repository to the given DFS: nothing of the repository outlives the
// System.
func Recover(cfg Config, fs dfs.Backend) (*System, error) {
	if cfg.DefaultReducers <= 0 {
		if cfg.Topology.Workers > 0 {
			cfg.DefaultReducers = cfg.Topology.ReduceSlots()
		} else {
			cfg.DefaultReducers = cluster.DefaultTopology().ReduceSlots()
		}
	}
	if cfg.Cost.DiskReadBW == 0 {
		cfg.Cost = cluster.DefaultCostModel()
	}
	cfg.NamespaceRoot = strings.Trim(cfg.NamespaceRoot, "/")
	eng := mapreduce.New(fs, mapreduce.Config{
		Topology:            cfg.Topology,
		Cost:                cfg.Cost,
		SimScale:            cfg.SimScale,
		RecordScale:         cfg.RecordScale,
		SplitSize:           cfg.SplitSize,
		MaxCachedBatchBytes: cfg.MaxCachedBatchBytes,
	})

	var (
		repo    *core.Repository
		durable *core.DurableLog
		leases  *core.LeaseManager
		prefix  string
	)
	if cfg.Durability.Enabled {
		root := strings.Trim(cfg.Durability.Path, "/")
		if root == "" {
			root = core.NamespacePath(cfg.NamespaceRoot, "repo")
		}
		var err error
		durable, repo, err = core.OpenDurableLog(fs, core.DurableConfig{
			Root:         root,
			CompactEvery: cfg.Durability.CompactEvery,
		})
		if err != nil {
			return nil, err
		}
		leases = core.NewLeaseManager(fs, core.NamespacePath(cfg.NamespaceRoot, "locks"),
			durable.Writer(), cfg.Durability.LeaseTTL, cfg.Durability.LeasePoll)
		durable.SetCompactLock(leases)
		prefix = durable.Writer()
	} else {
		repo = core.NewRepository()
	}
	if cfg.NegCacheEntries != 0 {
		repo.SetNegCacheSize(cfg.NegCacheEntries)
	}

	store := core.NewStorageManager(repo, fs, cfg.MaxRepositoryBytes, cfg.Eviction)
	store.SetNamespaceRoot(cfg.NamespaceRoot)
	if durable != nil {
		store.SetDurable(durable, leases)
		store.SetQueryPrefix(prefix + "q")
		store.SetPins(core.NewPinSet(fs, core.NamespacePath(cfg.NamespaceRoot, "pins"),
			durable.Writer(), cfg.Durability.LeaseTTL))
	}
	driver := core.NewDriver(eng, repo, cfg.Options)
	driver.Store = store
	driver.Workers = cfg.WorkflowWorkers
	driver.NamespaceRoot = cfg.NamespaceRoot
	if cfg.MaxClusterJobs > 0 {
		driver.Admission = make(chan struct{}, cfg.MaxClusterJobs)
	}
	if durable != nil {
		driver.ResumeClock(durable.MaxSimTime())
	}
	s := &System{
		fs:        fs,
		eng:       eng,
		repo:      repo,
		store:     store,
		driver:    driver,
		cfg:       cfg,
		durable:   durable,
		qidPrefix: prefix,
		queries:   map[string]*Query{},
	}
	if cfg.JanitorInterval > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor(cfg.JanitorInterval)
	}
	return s, nil
}

// janitor is the background storage sweeper: every interval it vacuums
// invalid entries, reclaims dead queries' namespaces and enforces the
// byte budget, until Close.
func (s *System) janitor(every time.Duration) {
	defer close(s.janitorDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep runs one storage-maintenance pass synchronously — exactly what
// the background janitor runs per tick: the validity and reuse-window
// vacuum, budget eviction, and reclamation of per-query namespaces
// whose query is no longer in flight and whose data no repository entry
// references.
func (s *System) Sweep() SweepReport {
	// The early live-query snapshot must precede the manager's
	// entry-root snapshot: a query completing in between is protected
	// by whichever of the two saw it. The registry is additionally
	// re-consulted at delete time, protecting queries submitted after
	// the snapshot whose namespaces are being written mid-sweep.
	early := map[string]bool{}
	s.qmu.Lock()
	for id := range s.queries {
		early[id] = true
	}
	s.qmu.Unlock()
	live := func(qid string) bool {
		if early[qid] {
			return true
		}
		s.qmu.Lock()
		_, ok := s.queries[qid]
		s.qmu.Unlock()
		return ok
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := s.store.Sweep(s.driver.Now(), s.driver.Opts.EvictionWindow)
	res.OrphanDatasets, res.OrphanBytes = s.store.VacuumOrphans(live)
	return res
}

// Close stops the background janitor and marks the System closed: new
// submissions fail with ErrClosed, while queries already in flight run
// to completion (Wait on their handles to drain them). Close is
// idempotent and safe to call concurrently.
func (s *System) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	return nil
}

// StorageStats snapshots the storage manager: repository usage against
// the configured budget, claim-protocol traffic, evictions, and
// janitor activity.
func (s *System) StorageStats() StorageStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Stats()
}

// MatcherStats snapshots the plan-matcher subsystem: how many indexed
// candidate probes (and linear scans) the repository has served, the
// candidate and full-traversal counts behind them, and the signature
// index's current size.
func (s *System) MatcherStats() MatcherStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.repo.MatcherStats()
}

// LeaseStats snapshots the cross-process claim-lease manager (grants,
// takeovers, reaps, fencing losses, renewals). The zero value is
// returned when durability is off: leases exist only on a durable
// store.
func (s *System) LeaseStats() LeaseStats {
	return s.StorageStats().Leases
}

// BatchCacheStats snapshots the engine's decoded-dataset cache — the
// in-memory fast path. The cache survives SetScales/SetSimScale engine
// rebuilds; the zero value is returned when the cache is disabled
// (Config.MaxCachedBatchBytes < 0).
func (s *System) BatchCacheStats() BatchCacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.CacheStats()
}

// DeltaStats snapshots the driver's incremental-maintenance counters:
// how many stored entries were delta-refreshed after their inputs grew
// by appended part files, the appended bytes those refreshes read, and
// the cold recompute bytes they avoided.
func (s *System) DeltaStats() DeltaStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.driver.DeltaStats()
}

// LatencyStats snapshots the system's wall-latency histograms:
// submit→done per completed query, matcher probes, claim waits, and
// delta refreshes, each with interpolated p50/p95/p99 and cumulative
// buckets. Histograms record for every query, traced or not.
func (s *System) LatencyStats() LatencySnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.driver.Metrics.Snapshot()
}

// FS exposes the distributed file system.
func (s *System) FS() dfs.Backend { return s.fs }

// Repository exposes the ReStore repository.
func (s *System) Repository() *core.Repository {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.repo
}

// Options returns the current ReStore options.
func (s *System) Options() Options {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.driver.Opts
}

// SetOptions reconfigures ReStore for subsequent Execute calls. It
// waits for in-flight executions to drain.
func (s *System) SetOptions(opts Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.driver.Opts = opts
}

// SetSimScale adjusts the byte scale-up of the simulated clock; useful
// after loading data, to size it to a target simulated volume.
func (s *System) SetSimScale(scale float64) {
	s.SetScales(scale, scale)
}

// SetScales adjusts the byte and record scale-up factors of the
// simulated clock independently. It waits for in-flight executions to
// drain before swapping the engine.
func (s *System) SetScales(simScale, recordScale float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := s.eng.Config()
	cfg.SimScale = simScale
	cfg.RecordScale = recordScale
	s.eng = mapreduce.New(s.fs, cfg)
	s.driver.Engine = s.eng
}

// WriteDataset stores rows as a single-part dataset at path.
func (s *System) WriteDataset(path string, rows []Tuple) error {
	w := s.fs.Create(strings.TrimSuffix(path, "/") + "/part-00000")
	tw := tuple.NewWriter(w)
	for _, r := range rows {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return w.Close()
}

// ReadDataset returns every tuple stored under path.
func (s *System) ReadDataset(path string) ([]Tuple, error) {
	files := s.fs.List(path)
	if len(files) == 0 {
		return nil, fmt.Errorf("restore: dataset %q does not exist", path)
	}
	var out []Tuple
	for _, f := range files {
		data, err := s.fs.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			out = append(out, tuple.DecodeText(line))
		}
	}
	return out, nil
}

// DurabilityStats snapshots the durable repository subsystem: recovery
// size, log append/replay/compaction traffic, and the crash-injection
// wedge state. The zero value is returned when durability is off.
func (s *System) DurabilityStats() DurabilityStats {
	if s.durable == nil {
		return DurabilityStats{}
	}
	return s.durable.Stats()
}

// CompactLog folds the durable event log into a fresh manifest now
// (normally this happens automatically every
// Config.Durability.CompactEvery records). A no-op without durability.
func (s *System) CompactLog() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.Compact()
}

// RefreshRepository folds entries committed by other processes sharing
// this DFS into the local repository, returning how many were applied.
// Executions refresh automatically; this is for callers inspecting the
// repository between queries. A no-op without durability.
func (s *System) RefreshRepository() int {
	if s.durable == nil {
		return 0
	}
	return s.durable.Refresh()
}

// Result reports one executed query.
type Result struct {
	*core.Result
	sys *System
}

// Output returns the rows of the query's STORE destination, following
// any whole-job-reuse redirection.
func (r *Result) Output(userPath string) ([]Tuple, error) {
	path := userPath
	if p, ok := r.FinalOutputs[userPath]; ok && p != "" {
		path = p
	}
	return r.sys.ReadDataset(path)
}

// Compile parses and compiles a script without executing it, returning
// the workflow's job count — useful for inspecting how a query maps to
// MapReduce jobs.
func (s *System) Compile(script string) (int, error) {
	wf, err := s.compile(script, s.tempPrefix(fmt.Sprintf("%sc%d", s.qidPrefix, s.nquery.Add(1))))
	if err != nil {
		return 0, err
	}
	return len(wf.Jobs), nil
}

// tempPrefix is the per-query temp namespace the compiler writes
// inter-job temporaries under, honoring Config.NamespaceRoot.
func (s *System) tempPrefix(id string) string {
	return core.NamespacePath(s.cfg.NamespaceRoot, "tmp", id)
}

func (s *System) compile(script, tempPrefix string) (*physical.Workflow, error) {
	parsed, err := piglatin.Parse(script)
	if err != nil {
		return nil, err
	}
	lp, err := logical.Build(parsed)
	if err != nil {
		return nil, err
	}
	lp = logical.Optimize(lp)
	return mrcompile.Compile(lp, mrcompile.Options{
		TempPrefix:      tempPrefix,
		DefaultReducers: s.cfg.DefaultReducers,
	})
}

// ExecOption tunes one query submission, overriding the System's
// default configuration for that query only.
type ExecOption func(*execConfig)

// execConfig is the resolved per-submission configuration: seeded from
// the System's defaults at Submit time, then adjusted by the
// submission's ExecOptions in order.
type execConfig struct {
	opts     Options
	workers  int
	tag      string
	tenant   string
	observer func(jobID string, state JobState)
	progress func(jobID string, done, total int, sim time.Duration)
	// linearScan routes the matcher through the reference sequential
	// scan; set only by the indexed-vs-scan differential suite.
	linearScan bool
}

// WithOptions replaces the query's entire ReStore configuration,
// instead of inheriting the System's Config.Options. Apply it before
// finer-grained options like WithHeuristic when combining them.
func WithOptions(opts Options) ExecOption {
	return func(c *execConfig) { c.opts = opts }
}

// WithHeuristic overrides only the sub-job materialization heuristic.
func WithHeuristic(h Heuristic) ExecOption {
	return func(c *execConfig) { c.opts.Heuristic = h }
}

// WithWorkers overrides how many of this query's jobs may run
// concurrently (zero means NumCPU; 1 forces stock Pig's serial order).
func WithWorkers(n int) ExecOption {
	return func(c *execConfig) { c.workers = n }
}

// WithTag attaches a client-chosen label to the query, reported by
// Query.Status — useful when one dashboard multiplexes many tenants.
func WithTag(tag string) ExecOption {
	return func(c *execConfig) { c.tag = tag }
}

// WithTenant attaches a tenant identity to the query. The tenant is
// reported by Query.Tenant and QueryStatus, so a serving front-end
// multiplexing many clients over one System (internal/service) can
// account, list and cancel per tenant. Unlike WithTag it names who
// submitted the query rather than what the query is.
func WithTenant(tenant string) ExecOption {
	return func(c *execConfig) { c.tenant = tenant }
}

// withJobObserver registers a synchronous per-job lifecycle callback;
// unexported, for deterministic lifecycle tests.
func withJobObserver(fn func(jobID string, state JobState)) ExecOption {
	return func(c *execConfig) { c.observer = fn }
}

// withJobProgress registers a synchronous task-progress callback —
// called while the job executes, i.e. while it holds its claims and
// leases; unexported, for deterministic cross-process claim tests.
func withJobProgress(fn func(jobID string, done, total int, sim time.Duration)) ExecOption {
	return func(c *execConfig) { c.progress = fn }
}

// ErrInFlight is returned by Query.Result while the query is still
// executing.
var ErrInFlight = errors.New("restore: query still executing")

// ErrClosed is returned by Submit and Execute after System.Close.
var ErrClosed = errors.New("restore: system closed")

// JobProgress is the task-level progress of one MapReduce job within a
// submitted query.
type JobProgress struct {
	// State is the job's lifecycle state (same value as Status.Jobs).
	State JobState
	// TasksDone and TasksTotal count the job's completed map and reduce
	// tasks; both are zero until the job's input is split.
	TasksDone  int
	TasksTotal int
	// SimTime is the simulated execution time accumulated by the job's
	// completed tasks while it runs, and its final Equation 1 time once
	// done. Zero for reused jobs: their work was answered from the
	// repository.
	SimTime time.Duration
}

// QueryStatus is a point-in-time snapshot of a submitted query.
type QueryStatus struct {
	// ID is the unique query ID ("q1", "q2", ...).
	ID string
	// Tag is the WithTag label, if any.
	Tag string
	// Tenant is the WithTenant identity, if any.
	Tenant string
	// Done reports whether the query has finished (successfully or not).
	Done bool
	// Err is the terminal error of a finished query (nil on success or
	// while running; context.Canceled after cancellation).
	Err error
	// Jobs maps each MapReduce job ID of the compiled workflow to its
	// lifecycle state. Jobs a cancelled query never dispatched stay
	// JobPending.
	Jobs map[string]JobState
	// Progress maps each job ID to its task-level progress, so long
	// workflows stay observable while they run — including while the
	// claim protocol has a job waiting on another query's
	// materialization (the job shows running with no tasks done yet).
	Progress map[string]JobProgress
	// SimTimeSoFar sums the simulated execution time of the query's
	// completed and in-flight tasks across all jobs.
	SimTimeSoFar time.Duration
}

// Query is a handle on one submitted script: an asynchronous execution
// whose progress can be observed, whose result can be awaited, and
// whose lifetime is bound to the context passed to Submit. All methods
// are safe for concurrent use.
type Query struct {
	id     string
	tag    string
	tenant string
	sys    *System

	done   chan struct{}
	cancel context.CancelFunc
	trace  *obs.Trace

	mu       sync.Mutex
	jobs     map[string]JobState
	progress map[string]JobProgress
	res      *Result
	err      error
}

// ID returns the unique query ID.
func (q *Query) ID() string { return q.id }

// Tag returns the WithTag label, if any.
func (q *Query) Tag() string { return q.tag }

// Tenant returns the WithTenant identity, if any.
func (q *Query) Tenant() string { return q.tenant }

// Trace snapshots the query's span trace: submit → compile → per-job
// probe (with candidate-level reuse provenance) → claim → refresh →
// execution → commit. It may be called while the query is still
// running (open spans are closed at the snapshot instant) and returns
// nil when tracing was disabled (Options.DisableTrace).
func (q *Query) Trace() *TraceSnapshot { return q.trace.Snapshot() }

// Cancel aborts the query as if its submission context had been
// cancelled: unstarted jobs stay pending, running jobs release their
// engine slots, staged outputs are discarded, and Wait returns
// context.Canceled. Cancelling a finished query is a no-op.
func (q *Query) Cancel() { q.cancel() }

// Done returns a channel closed when the query finishes, for use in
// select loops alongside other events.
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the query finishes and returns its result. If the
// submission context was cancelled, Wait returns the context's error
// (context.Canceled or context.DeadlineExceeded).
func (q *Query) Wait() (*Result, error) {
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.res, q.err
}

// Result returns the query's outcome without blocking: ErrInFlight
// while it is still executing, otherwise exactly what Wait returns.
func (q *Query) Result() (*Result, error) {
	select {
	case <-q.done:
		return q.Wait()
	default:
		return nil, ErrInFlight
	}
}

// Status snapshots the query's per-job lifecycle states and task-level
// progress.
func (q *Query) Status() QueryStatus {
	st := QueryStatus{ID: q.id, Tag: q.tag, Tenant: q.tenant}
	select {
	case <-q.done:
		st.Done = true
	default:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if st.Done {
		st.Err = q.err
	}
	st.Jobs = make(map[string]JobState, len(q.jobs))
	st.Progress = make(map[string]JobProgress, len(q.jobs))
	for id, s := range q.jobs {
		st.Jobs[id] = s
		p := q.progress[id]
		p.State = s
		st.Progress[id] = p
		st.SimTimeSoFar += p.SimTime
	}
	return st
}

// Submit parses and compiles a Pig Latin script, then starts executing
// it asynchronously, returning a Query handle immediately — before any
// MapReduce job has run. Compilation errors are returned synchronously;
// execution errors surface through Wait/Result.
//
// The query runs with an immutable configuration snapshot: the System's
// current options and worker bound, adjusted by the given ExecOptions.
// Cancelling ctx aborts the workflow promptly (unstarted jobs stay
// pending, running jobs release their engine slots, staged outputs are
// discarded) and Wait returns ctx.Err().
func (s *System) Submit(ctx context.Context, script string, opts ...ExecOption) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	qid := fmt.Sprintf("%sq%d", s.qidPrefix, s.nquery.Add(1))

	// Per-execution snapshot: the System's defaults as of now, then the
	// submission's own options. Resolved before compilation so the
	// trace — which wants a compile span — knows whether this query is
	// traced. Reconfiguration after this point never affects this
	// query.
	s.mu.RLock()
	ec := execConfig{opts: s.driver.Opts, workers: s.driver.Workers}
	s.mu.RUnlock()
	for _, o := range opts {
		o(&ec)
	}

	var tr *obs.Trace
	rootSpan := obs.NoSpan
	if !ec.opts.DisableTrace {
		tr = obs.NewTrace(qid, ec.opts.TraceTasks)
		rootSpan = tr.Start(obs.NoSpan, obs.KindSubmit, qid)
	}
	compileSpan := tr.Start(rootSpan, obs.KindCompile, "")
	wf, err := s.compile(script, s.tempPrefix(qid))
	tr.End(compileSpan)
	if err != nil {
		return nil, err
	}

	// The execution runs under a cancellable child of the caller's
	// context, so the handle (and the System's Cancel) can abort it.
	qctx, cancel := context.WithCancel(ctx)
	q := &Query{
		id:       qid,
		tag:      ec.tag,
		tenant:   ec.tenant,
		sys:      s,
		done:     make(chan struct{}),
		cancel:   cancel,
		trace:    tr,
		jobs:     make(map[string]JobState, len(wf.Jobs)),
		progress: make(map[string]JobProgress, len(wf.Jobs)),
	}
	for _, j := range wf.Jobs {
		q.jobs[j.ID] = JobPending
	}

	cfg := core.ExecConfig{
		Opts:       ec.opts,
		Workers:    ec.workers,
		Trace:      tr,
		LinearScan: ec.linearScan,
		OnJobState: func(jobID string, state JobState) {
			q.mu.Lock()
			q.jobs[jobID] = state
			q.mu.Unlock()
			if ec.observer != nil {
				ec.observer(jobID, state)
			}
		},
		OnJobProgress: func(jobID string, done, total int, sim time.Duration) {
			q.mu.Lock()
			p := q.progress[jobID]
			p.TasksDone, p.TasksTotal, p.SimTime = done, total, sim
			q.progress[jobID] = p
			q.mu.Unlock()
			if ec.progress != nil {
				ec.progress(jobID, done, total, sim)
			}
		},
	}

	// Register the handle before the first DFS write so the janitor's
	// live-query snapshot always covers the namespace being written;
	// deregistration happens only after the execution fully returns.
	s.qmu.Lock()
	s.queries[qid] = q
	s.qmu.Unlock()

	go func() {
		// Hold the read side for the execution's duration, as Execute
		// always did: reconfiguration (SetOptions, SetScales) drains
		// in-flight queries.
		s.mu.RLock()
		res, err := s.driver.Execute(qctx, wf, qid, cfg)
		s.mu.RUnlock()
		s.qmu.Lock()
		delete(s.queries, qid)
		s.qmu.Unlock()
		cancel() // release the context's resources
		if err != nil {
			tr.Note(rootSpan, "failed: "+err.Error())
		}
		tr.End(rootSpan)
		q.mu.Lock()
		if err != nil {
			q.err = err
		} else {
			q.res = &Result{Result: res, sys: s}
		}
		q.mu.Unlock()
		close(q.done)
	}()
	return q, nil
}

// Queries returns the in-flight query handles, sorted by ID. A handle
// leaves the registry only when its execution has fully finished, so a
// returned handle may report Done by the time it is inspected.
func (s *System) Queries() []*Query {
	s.qmu.Lock()
	out := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	s.qmu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].id, out[j].id
		if len(a) != len(b) {
			return len(a) < len(b) // q2 before q10
		}
		return a < b
	})
	return out
}

// Cancel aborts every in-flight query whose ID or tag equals idOrTag
// and returns how many were cancelled.
func (s *System) Cancel(idOrTag string) int {
	n := 0
	for _, q := range s.Queries() {
		if q.id == idOrTag || (q.tag != "" && q.tag == idOrTag) {
			q.Cancel()
			n++
		}
	}
	return n
}

// Execute parses, compiles, and runs a Pig Latin script through the
// ReStore pipeline, blocking until it completes: it is Submit followed
// by Wait, with no cancellation. It is safe to call from many
// goroutines at once; each call gets a unique query ID and private
// temp-path namespace.
func (s *System) Execute(script string) (*Result, error) {
	return s.ExecuteContext(context.Background(), script)
}

// ExecuteContext is Execute with a context and per-query options: it
// submits the script and waits for the result.
func (s *System) ExecuteContext(ctx context.Context, script string, opts ...ExecOption) (*Result, error) {
	q, err := s.Submit(ctx, script, opts...)
	if err != nil {
		return nil, err
	}
	return q.Wait()
}

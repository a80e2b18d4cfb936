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
//   - DAG scheduling. Within one workflow, jobs are scheduled in the
//     dependency order the compiled workflow's TopoJobs computed, once
//     per query: independent jobs run concurrently on a bounded worker
//     pool (Config.WorkflowWorkers or WithWorkers, default
//     GOMAXPROCS(0)), and a job starts only after every job it depends
//     on completed. Across workflows, the engine's task slots (its
//     Parallelism, GOMAXPROCS(0)) bound the tasks running at once; each
//     slot owns the scratch memory of the one task it runs.
//     The simulated time still comes from the paper's Equation 1
//     (critical path over the DAG), so concurrency changes wall time
//     only.
//
//   - Locking discipline. The repository of stored job outputs is
//     internally synchronized (entries are immutable once inserted;
//     re-registration swaps in fresh entries); the DFS is safe for
//     concurrent use; the driver's simulated clock and the System's
//     query counter are atomic. Workflow structures are never shared: every
//     submission clones its compiled workflow, and within one execution
//     all whole-job-reuse mutations (dropping a job, redirecting its
//     dependants' loads) happen under a per-execution workflow lock,
//     before the affected dependants start.
//
//   - Per-query configuration. A System is immutable after New or
//     Recover; tune per query. Each submission starts from
//     Config.Options and applies its own ExecOptions, so queries with
//     different options interleave freely and none changes mid-flight.
//
//   - Output staging. Every query writes its user STORE outputs under
//     its private temp namespace and atomically renames them into place,
//     in path order, when the workflow commits, so concurrent queries
//     storing to the same path leave it holding exactly one query's
//     complete dataset — never an interleaving of part files — and
//     queries cancelled or failed before the commit publish nothing. A
//     rename failing mid-commit leaves the outputs renamed before it in
//     place and discards the rest. One script's STORE paths may not be
//     equal or nested, and no STORE path may contain the query's own
//     stage path (on the default layout, 'tmp' does).
//
// To size the simulated clock to loaded data, load the DFS first, set
// Config.SimScale and Config.RecordScale from it, then Recover over it.
//
// # Storage management
//
// The repository of stored outputs is an actively managed shared
// resource:
//
//   - Claims. Before materializing a sub-job output, a query claims its
//     plan fingerprint by taking a TTL'd lease record in a locks
//     namespace on the DFS; a concurrent query about to materialize the
//     same sub-job blocks until the winner releases the lease, then
//     rewrites against the freshly committed entry instead of
//     duplicating the work. Claims are on whenever a query stores
//     anything; when a winner aborts, the waiters contend for the claim
//     again.
//
//   - Budget. Config.MaxRepositoryBytes bounds the bytes the repository
//     retains; when exceeded, the Config.Eviction policy (reuse-window,
//     which with no window is plain LRU, or the default cost-benefit)
//     picks victims. Entries read by in-flight rewrites are pinned and
//     never evicted — by this System or, through the pin records beside
//     the claim leases, by a peer.
//
//   - Maintenance. After every query, the System reads the DFS change
//     feed — every dataset version bump, by this System, a raw DFS write
//     or a peer — and removes the entries it made dead: invalid and not
//     refreshable by pure append. It deletes the outputs refreshes
//     replaced, removes entries idle beyond Options.EvictionWindow and
//     enforces the budget.
//
//   - Janitor. With Config.JanitorInterval > 0, a background goroutine
//     owned by the System periodically reaps expired leases, runs the
//     same maintenance pass, and reclaims dead queries' orphaned
//     namespaces (<root>/restore/<qid>/… and <root>/tmp/<qid>/…, under
//     Config.NamespaceRoot, ".restore" by default). Sweep runs one pass
//     synchronously. Close stops the janitor; a closed System rejects
//     new submissions but lets in-flight queries finish.
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
//   - Shared claims. A claim is a lease on the shared DFS, so two
//     processes about to materialize the same sub-job resolve to one
//     winner; the loser waits on the lease, folds the winner's log
//     records into its own repository, and reuses the committed entry.
//     Sweeps reap expired leases and pins, so a crashed process's
//     in-flight claims unblock its peers within the TTL; a live
//     process's one lease heartbeat renews what it holds.
//
// Each recovered System gets a process-unique writer identity: query
// IDs, repository entry IDs and the janitor's orphan sweep are scoped
// by it, so co-tenants never collide in the shared namespaces.
// DurabilityStats reports recovery size and log traffic. Compaction
// (every Config.Durability.CompactEvery records) and folding in peers'
// records (before each execution) happen on their own.
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

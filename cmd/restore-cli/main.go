// Command restore-cli runs Pig Latin scripts through the ReStore
// pipeline against a generated PigMix instance, reporting what was
// reused, what was stored, and the simulated cluster time of each run.
//
// Usage:
//
//	restore-cli -query L3                     # run a PigMix query once
//	restore-cli -query L3 -repeat 3 -reuse -heuristic aggressive
//	restore-cli -query L3 -repeat 2 -reuse -explain  # reuse-provenance report
//	restore-cli -query L3 -trace              # dump the span trace as JSON
//	restore-cli -script myquery.pig -reuse    # run a script from a file
//	restore-cli -timeout 30s -query L5        # cancel runs exceeding 30s
//	restore-cli -max-repo-mb 64 -evict lru    # bound the repository
//	restore-cli -durable -recover-check ...   # journal + prove recovery
//	restore-cli -durable -backend disk -data-dir /var/restore  # persist to disk
//	restore-cli -backend disk -data-dir /var/restore -scale tiny -append-net-days 1
//	restore-cli -list                         # list PigMix queries
//
// Repeated runs share one repository, so with -reuse the second and
// later runs demonstrate ReStore's rewrites. Every run is submitted
// through the query-handle API with per-query options; -timeout bounds
// each run with a context deadline, aborting its remaining jobs.
// -max-repo-mb caps the bytes the repository retains (the -evict
// policy picks victims), and -janitor starts the background storage
// sweeper at the given interval. -ns-root confines ReStore's managed
// namespaces to a directory of their own so user datasets under tmp/
// or restore/ are never reclaimed. The matcher's per-run statistics
// print after the runs.
//
// -durable journals every repository mutation to a manifest + event
// log on the DFS under <ns-root>/repo (-compact-every, -lease-ttl tune
// it)
// and prints the log's statistics after the runs; -recover-check then
// recovers a second System over the same DFS — as a restarted process
// would — and reruns the script warm, proving the recovered repository
// answers with reuse and that recovery decoded no stored plans.
// -stats-json replaces the human-readable closing stats with one JSON
// document in the same schema a restore-server's /metrics endpoint
// serves, so dashboards parse one format for both.
//
// -backend picks the DFS substrate: "memory" (the default, volatile)
// or "disk", which persists datasets and the record log under
// -data-dir so a killed process's acknowledged state survives a real
// restart — rerunning with the same -data-dir recovers the repository
// and skips regenerating the PigMix instance.
//
// -append-net-days is a maintenance mode: it appends that many daily
// partitions to the net-traffic flow log on the selected backend and
// exits without running a query. Growing a stopped server's disk
// directory this way drives the incremental-maintenance path — the
// restarted server delta-refreshes its stored net-traffic aggregates
// on the next probe instead of recomputing the grown log cold.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/engineflags"
	"repro/internal/pigmix"
	"repro/internal/service"
)

func main() {
	// The engine flags (-scale, -reuse, -heuristic, -backend, -durable,
	// …) are declared once for this command and restore-server.
	ef := engineflags.Register(flag.CommandLine, "15GB", false, "off")
	var (
		queryFlag   = flag.String("query", "", "PigMix query name (L2..L8, L11, variants)")
		scriptFlag  = flag.String("script", "", "path to a Pig Latin script file")
		repeatFlag  = flag.Int("repeat", 1, "number of times to run the query")
		listFlag    = flag.Bool("list", false, "list available PigMix queries and exit")
		printFlag   = flag.Bool("print", false, "print up to 20 output rows")
		timeoutFlag = flag.Duration("timeout", 0, "per-run deadline; a run exceeding it is cancelled (0 = none)")
		tagFlag     = flag.String("tag", "", "label attached to each submitted query")
		recoverFlag = flag.Bool("recover-check", false, "after the runs, recover a fresh System from the durable log and verify it reuses identically")
		statsJSON   = flag.Bool("stats-json", false, "print the final stats as one JSON document (the /metrics schema) instead of text")
		appendFlag  = flag.Int("append-net-days", 0, "append this many daily partitions to the backend's net-traffic flow log and exit (no query runs)")
		traceFlag   = flag.Bool("trace", false, "print each run's span trace as JSON")
		explainFlag = flag.Bool("explain", false, "print each run's reuse-provenance report (which entries were nominated, rejected and why, and what won)")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println("PigMix queries:", strings.Join(pigmix.Names(), ", "))
		return
	}

	eng, err := ef.Resolve()
	if err != nil {
		fail(err)
	}
	scale := eng.Scale
	if *recoverFlag && !ef.Durable {
		fail(fmt.Errorf("-recover-check needs -durable"))
	}

	var script, output string
	switch {
	case *appendFlag > 0:
		// Maintenance mode: grow the flow log, no script to run.
	case *queryFlag != "":
		q, err := pigmix.Get(*queryFlag)
		if err != nil {
			fail(err)
		}
		script, output = q.Script, q.Output
	case *scriptFlag != "":
		data, err := os.ReadFile(*scriptFlag)
		if err != nil {
			fail(err)
		}
		script = string(data)
	default:
		fail(fmt.Errorf("pass -query or -script (or -list)"))
	}

	fs, closeFS, err := ef.OpenBackend()
	if err != nil {
		fail(err)
	}
	defer closeFS()
	if *appendFlag > 0 {
		// Maintenance mode: append daily partitions to an existing flow
		// log and exit, without building a System. Run against a disk
		// backend while its server is stopped (the disk backend's lock
		// is exclusive); the restarted server then sees the grown input
		// and delta-refreshes its stored net-traffic entries on the
		// next probe. Seed 6 matches the seed+5 the seed-1 Generate
		// call below uses, so appended days carry the bytes a larger
		// initial generation would have written.
		if fs.Size(pigmix.PathNetTraffic) == 0 {
			fail(fmt.Errorf("-append-net-days: backend has no %s dataset to grow", pigmix.PathNetTraffic))
		}
		rows := pigmix.NetTrafficRowsFor(scale)
		for i := 0; i < *appendFlag; i++ {
			day, err := pigmix.AppendNetTrafficDay(fs, rows, 6)
			if err != nil {
				fail(err)
			}
			fmt.Printf("appended net-traffic day %d (%d rows)\n", day, rows)
		}
		return
	}
	sys, err := ef.OpenSystem(&eng, fs, "")
	if err != nil {
		fail(err)
	}
	defer sys.Close()

	// Reuse policy and worker bound are per-query options on each
	// submission, not global state: concurrent clients of one System
	// could each pass their own.
	execOpts := []restore.ExecOption{
		restore.WithOptions(eng.Options),
		restore.WithWorkers(ef.Workers),
	}
	if *tagFlag != "" {
		execOpts = append(execOpts, restore.WithTag(*tagFlag))
	}

	for i := 0; i < *repeatFlag; i++ {
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if *timeoutFlag > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		}
		// Submit + Wait (instead of ExecuteContext) keeps the query
		// handle so -trace/-explain can read the recorded span tree.
		q, err := sys.Submit(ctx, script, execOpts...)
		if err != nil {
			cancel()
			fail(err)
		}
		res, err := q.Wait()
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fail(fmt.Errorf("run %d cancelled after %v: %w", i+1, *timeoutFlag, err))
			}
			fail(err)
		}
		fmt.Printf("run %d: simulated %v on the 15-node cluster  (jobs run %d, reused %d, rewrites %d, stored %d entries)\n",
			i+1, res.SimTime.Round(res.SimTime/1000+1), res.JobsRun, res.JobsReused, len(res.Rewrites), len(res.Stored))
		for _, ev := range res.Rewrites {
			kind := "sub-plan"
			if ev.WholeJob {
				kind = "whole job"
			}
			fmt.Printf("  reused %s via entry %s (%s), plan %d → %d ops\n",
				kind, ev.EntryID, ev.Path, ev.OpsBefore, ev.OpsAfter)
		}
		if *printFlag && output != "" {
			rows, err := res.Output(output)
			if err != nil {
				fail(err)
			}
			for j, r := range rows {
				if j == 20 {
					fmt.Printf("  … %d more rows\n", len(rows)-20)
					break
				}
				fmt.Println("  ", r)
			}
		}
		if *explainFlag {
			restore.ExplainTrace(os.Stdout, q.Trace())
			// Where each executed job's wall time went inside the text
			// codec, summed over its (concurrent) tasks.
			for _, js := range res.JobStats {
				fmt.Printf("  job %s text codec: decode %v, encode+write %v — summed over %d tasks, job wall %v\n",
					js.JobID, js.DecodeTime.Round(time.Microsecond), js.EncodeTime.Round(time.Microsecond),
					js.MapTasks+js.RedTasks, js.WallTime.Round(time.Microsecond))
			}
		}
		if *traceFlag {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(q.Trace()); err != nil {
				fail(err)
			}
		}
	}
	if *statsJSON {
		// One machine-readable document, byte-compatible with what a
		// restore-server's /metrics endpoint returns for the same System.
		if err := service.SystemStats(sys).WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		if *recoverFlag {
			recoverCheck(eng.Config, sys, script)
		}
		return
	}
	st := sys.StorageStats()
	fmt.Printf("repository: %d entries, %.1f MB retained", st.Entries, float64(st.UsageBytes)/(1<<20))
	if st.BudgetBytes > 0 {
		fmt.Printf(" of %.1f MB budget (%s policy, %d evictions)",
			float64(st.BudgetBytes)/(1<<20), st.Policy, st.Evictions)
	}
	fmt.Printf("; DFS holds %.1f MB actual\n", float64(sys.FS().TotalBytes())/(1<<20))
	if st.ClaimWaits > 0 || st.ClaimsShared > 0 {
		fmt.Printf("claims: %d granted, %d waits, %d shared in flight\n",
			st.ClaimsGranted, st.ClaimWaits, st.ClaimsShared)
	}
	ms := sys.MatcherStats()
	if ms.Probes > 0 || ms.Scans > 0 {
		fmt.Printf("matcher: %d probes (%d candidates), %d scans (%d visited), %d traversals, %d matches; index %d entries / %d signatures\n",
			ms.Probes, ms.Candidates, ms.Scans, ms.ScanVisited,
			ms.FullTraversals, ms.Matches,
			ms.IndexEntries, ms.IndexSignatures)
	}
	bc := sys.BatchCacheStats()
	if bc.Hits+bc.Misses > 0 {
		fmt.Printf("batch cache: %d hits / %d misses (%.0f%% hit ratio), %.1f MB resident of %.1f MB budget, %d evictions, %d invalidations\n",
			bc.Hits, bc.Misses, 100*bc.HitRatio(),
			float64(bc.UsedBytes)/(1<<20), float64(bc.BudgetBytes)/(1<<20),
			bc.Evictions, bc.Invalidations)
	}
	if dl := sys.DeltaStats(); dl.Refreshes+dl.Failed > 0 {
		fmt.Printf("delta refresh: %d refreshed (%d failed), %.1f MB appended bytes read, %.1f MB cold recompute avoided\n",
			dl.Refreshes, dl.Failed,
			float64(dl.DeltaBytesRead)/(1<<20), float64(dl.ColdBytesAvoided)/(1<<20))
	}
	if ef.Durable {
		ds := sys.DurabilityStats()
		fmt.Printf("durable log (%s at %s): %d appends, %d compactions, %d live records, %d entries recovered at open\n",
			ds.Writer, ds.Root, ds.Appends, ds.Compactions, ds.LogRecords, ds.RecoveredEntries)
	}
	if *recoverFlag {
		recoverCheck(eng.Config, sys, script)
	}
}

// recoverCheck simulates a restart: recover a fresh System over the
// same DFS from the durable log and verify it answers a warm run from
// the recovered repository.
func recoverCheck(cfg restore.Config, sys *restore.System, script string) {
	decodesBefore := sys.DurabilityStats().PlanDecodes
	cold, err := restore.Recover(cfg, sys.FS())
	if err != nil {
		fail(fmt.Errorf("recover-check: %w", err))
	}
	defer cold.Close()
	ds := cold.DurabilityStats()
	fmt.Printf("recover-check: recovered %d entries (writer %s), %d stored plans decoded during recovery\n",
		ds.RecoveredEntries, ds.Writer, ds.PlanDecodes-decodesBefore)
	res, err := cold.ExecuteContext(context.Background(), script,
		restore.WithOptions(restore.Options{Reuse: true}))
	if err != nil {
		fail(fmt.Errorf("recover-check run: %w", err))
	}
	fmt.Printf("recover-check: warm run reused %d job(s) via %d rewrite(s), simulated %v\n",
		res.JobsReused, len(res.Rewrites), res.SimTime.Round(res.SimTime/1000+1))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "restore-cli:", err)
	os.Exit(1)
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7), plus ablations of the design choices called
// out in DESIGN.md. Each figure benchmark runs the full experiment and
// reports its headline aggregate as custom metrics; the rendered tables
// land in the benchmark log (visible in `go test -bench . -v` output
// and in bench_output.txt).
package restore_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/piglatin"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// benchReport runs one experiment per iteration and logs the table once.
func benchReport(b *testing.B, run func() (*exp.Report, error)) *exp.Report {
	b.Helper()
	var rep *exp.Report
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.Log("\n" + rep.String())
	return rep
}

// BenchmarkFigure9 regenerates the whole-job reuse experiment.
func BenchmarkFigure9(b *testing.B) {
	benchReport(b, exp.Figure9)
}

// BenchmarkFigure10 regenerates the sub-job reuse experiment (150GB,
// Aggressive heuristic).
func BenchmarkFigure10(b *testing.B) {
	benchReport(b, exp.Figure10)
}

// BenchmarkFigure11 regenerates the overhead-by-scale comparison.
func BenchmarkFigure11(b *testing.B) {
	benchReport(b, exp.Figure11)
}

// BenchmarkFigure12 regenerates the speedup-by-scale comparison.
func BenchmarkFigure12(b *testing.B) {
	benchReport(b, exp.Figure12)
}

// BenchmarkFigure13 regenerates the heuristic reuse-time comparison.
func BenchmarkFigure13(b *testing.B) {
	benchReport(b, exp.Figure13)
}

// BenchmarkFigure14 regenerates the heuristic generation-time
// comparison (the L6 outlier).
func BenchmarkFigure14(b *testing.B) {
	benchReport(b, exp.Figure14)
}

// BenchmarkFigure15 regenerates the whole-job vs sub-job comparison.
func BenchmarkFigure15(b *testing.B) {
	benchReport(b, exp.Figure15)
}

// BenchmarkFigure16 regenerates the Project data-reduction sweep.
func BenchmarkFigure16(b *testing.B) {
	benchReport(b, exp.Figure16)
}

// BenchmarkFigure17 regenerates the Filter selectivity sweep.
func BenchmarkFigure17(b *testing.B) {
	benchReport(b, exp.Figure17)
}

// BenchmarkTable1 regenerates the stored-bytes accounting.
func BenchmarkTable1(b *testing.B) {
	benchReport(b, exp.Table1)
}

// BenchmarkTable2 regenerates the synthetic data set's field table.
func BenchmarkTable2(b *testing.B) {
	benchReport(b, exp.Table2)
}

// pigmixSystem builds a small warm system for the ablation benches.
func pigmixSystem(b *testing.B, opts restore.Options) *restore.System {
	b.Helper()
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	return scaledSystem(b, cfg, pigmix.Scale15GB)
}

func runPigMix(b *testing.B, sys *restore.System, name string, opts ...restore.ExecOption) *restore.Result {
	b.Helper()
	q, err := pigmix.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.ExecuteContext(context.Background(), q.Script, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationMatchOrder quantifies repository ordering Rule 1:
// with the subsumption-ordered scan, a warm L3 run reuses the whole
// join job first; the metric reports the simulated reuse time, to be
// compared with BenchmarkFigure13's per-entry alternatives.
func BenchmarkAblationMatchOrder(b *testing.B) {
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		sys := pigmixSystem(b, restore.Options{KeepWholeJobs: true, Heuristic: restore.Conservative})
		runPigMix(b, sys, "L3")
		res := runPigMix(b, sys, "L3", restore.WithOptions(restore.Options{Reuse: true}))
		if len(res.Rewrites) == 0 {
			b.Fatal("no rewrites")
		}
		if !res.Rewrites[0].WholeJob {
			b.Fatal("ordered repository should match the whole join job first")
		}
		simTime = res.SimTime
	}
	b.ReportMetric(simTime.Minutes(), "sim-min")
}

// BenchmarkAblationEviction measures the reuse-window eviction policy
// (Section 5 Rule 3): entries idle beyond the window are dropped and
// their storage reclaimed.
func BenchmarkAblationEviction(b *testing.B) {
	var kept, evicted int
	for i := 0; i < b.N; i++ {
		sys := pigmixSystem(b, restore.Options{Heuristic: restore.Aggressive, KeepWholeJobs: true})
		runPigMix(b, sys, "L3")
		total := sys.Repository().Len()
		removed, _ := sys.Repository().Vacuum(sys.FS(), 1000*time.Hour, time.Hour, nil, nil)
		evicted = len(removed)
		kept = sys.Repository().Len()
		if kept != 0 {
			b.Fatalf("idle entries survived the window: %d", kept)
		}
		if evicted != total {
			b.Fatalf("evicted %d of %d", evicted, total)
		}
	}
	b.ReportMetric(float64(evicted), "evicted")
}

// BenchmarkAblationHeuristicStorage compares the bytes each heuristic
// materializes on L3 (the Table 1 trade-off as a single metric pair).
func BenchmarkAblationHeuristicStorage(b *testing.B) {
	for _, h := range []restore.Heuristic{restore.Conservative, restore.Aggressive, restore.NoHeuristic} {
		b.Run(h.String(), func(b *testing.B) {
			var stored int64
			for i := 0; i < b.N; i++ {
				sys := pigmixSystem(b, restore.Options{Heuristic: h})
				res := runPigMix(b, sys, "L3")
				stored = res.ExtraStoredSimBytes
			}
			b.ReportMetric(float64(stored)/(1<<30), "stored-GB")
		})
	}
}

// BenchmarkMatcherScan measures the plan matcher itself: containment
// tests of one L3 job against repositories of growing size.
func BenchmarkMatcherScan(b *testing.B) {
	sys := pigmixSystem(b, restore.Options{Heuristic: restore.NoHeuristic, KeepWholeJobs: true})
	// Populate the repository with entries from several queries.
	for _, q := range []string{"L2", "L3", "L4", "L6", "L7"} {
		runPigMix(b, sys, q)
	}
	repo := sys.Repository()
	b.Logf("repository holds %d entries", repo.Len())

	q, _ := pigmix.Get("L3")
	n, err := sys.Compile(q.Script)
	if err != nil || n == 0 {
		b.Fatalf("compile: %v", err)
	}
	// Benchmark repeated warm executions, which include the full scan +
	// rewrite cycle per job.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPigMix(b, sys, "L3", restore.WithOptions(restore.Options{Reuse: true}))
		if len(res.Rewrites) == 0 {
			b.Fatal("no rewrites on warm repository")
		}
	}
}

// BenchmarkEngineGroupJob measures raw engine throughput on a
// group/aggregate job (rows/op are real rows processed, not simulated).
func BenchmarkEngineGroupJob(b *testing.B) {
	sys := pigmixSystem(b, restore.Options{})
	script := `
A = load 'pigmix/page_views' as (user, action, timespent, query_term, ip_addr, timestamp, estimated_revenue, page_info, page_links);
B = foreach A generate user, estimated_revenue;
G = group B by user;
S = foreach G generate group, SUM(B.estimated_revenue);
store S into 'bench/out';
`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Execute(script); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pigmix.Scale15GB.PageViews), "rows/job")
}

// BenchmarkEquationOne sanity-benches the workflow critical-path
// computation used by every experiment (Equation 1 of the paper).
func BenchmarkEquationOne(b *testing.B) {
	times := map[string]time.Duration{}
	deps := map[string][]string{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("j%d", i)
		times[id] = time.Duration(i) * time.Second
		if i > 0 {
			deps[id] = []string{fmt.Sprintf("j%d", i-1)}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cluster.CriticalPath(times, deps) <= 0 {
			b.Fatal("bad critical path")
		}
	}
}

// BenchmarkConcurrentClients measures the multi-client serving path: 8
// goroutines issue shared-prefix queries against one warm System with
// reuse enabled, each writing a private output. Throughput scales with
// the thread-safe repository and the DAG scheduler sharing the
// engine-wide task pool.
func BenchmarkConcurrentClients(b *testing.B) {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Conservative}
	sys := restore.New(cfg)
	rows := make([]restore.Tuple, 0, 64)
	for i := 0; i < 64; i++ {
		rows = append(rows, restore.Tuple{fmt.Sprintf("u%d", i%7), int64(i)})
	}
	if err := sys.WriteDataset("events", rows); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			out := fmt.Sprintf("bench/cc/%d", seq.Add(1))
			script := fmt.Sprintf(`
a = load 'events' as (user, amount);
d = distinct a;
g = group d by user;
s = foreach g generate group, SUM(d.amount);
store s into '%s';
`, out)
			if _, err := sys.Execute(script); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentProbe characterizes read-lock contention on the
// signature index (the PR-4 follow-up): many clients probe a warm
// repository while a churn goroutine replaces and evicts entries —
// exactly the shape of a fleet of dashboards sharing one System under
// storage pressure. Reported ops are indexed Probe calls.
func BenchmarkConcurrentProbe(b *testing.B) {
	sys := pigmixSystem(b, restore.Options{Heuristic: restore.NoHeuristic, KeepWholeJobs: true})
	for _, q := range []string{"L2", "L3", "L4", "L6", "L7"} {
		runPigMix(b, sys, q)
	}
	repo := sys.Repository()
	entries := repo.Entries()
	if len(entries) == 0 {
		b.Fatal("no entries to probe")
	}
	b.Logf("repository holds %d entries", len(entries))
	probe := entries[len(entries)/2].Plan

	// Churn: continuous same-fingerprint replacements (re-sort +
	// re-index under the write lock) and remove/re-insert cycles.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := entries[i%len(entries)]
			repo.Insert(&core.Entry{Plan: e.Plan, OutputPath: e.OutputPath,
				Stats: e.Stats, InputVersions: e.InputVersions, OutputVersion: e.OutputVersion})
			if i%7 == 0 {
				if removed := repo.Remove(e.ID); removed != nil {
					repo.Insert(&core.Entry{Plan: removed.Plan, OutputPath: removed.OutputPath,
						Stats: removed.Stats, InputVersions: removed.InputVersions})
				}
			}
		}
	}()

	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := 0
			repo.Probe(probe, func(e *core.Entry) bool { n++; return true }, nil)
			_ = n
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
}

// warmRepeatSystem builds the warm-repeat workload: a tiny PigMix
// instance plus n synthetic repository entries that never match the
// probe query — the restore-cli -repeat shape, where every submission
// pays full matching against a large repository and then actually runs
// its jobs. cacheOff disables the decoded-dataset batch cache so the
// on/off sub-benchmarks isolate the fast path's contribution.
func warmRepeatSystem(b *testing.B, n int, cacheOff bool) *restore.System {
	b.Helper()
	cfg := restore.DefaultConfig()
	// Reuse on but nothing stored: every run probes the repository,
	// misses, and executes — the steady state under diverse traffic.
	cfg.Options = restore.Options{Reuse: true, Heuristic: restore.HeuristicOff}
	if cacheOff {
		cfg.MaxCachedBatchBytes = -1
	}
	sys := scaledSystem(b, cfg, pigmix.TinyScale)
	fs := sys.FS()

	repo := sys.Repository()
	for i := 0; i < n; i++ {
		script, err := piglatin.Parse(fmt.Sprintf(`
A = load 'data/src%d' as (a, b, c);
B = filter A by a > %d;
store B into 'stored/e%d';
`, i, i, i))
		if err != nil {
			b.Fatal(err)
		}
		lp, err := logical.Build(script)
		if err != nil {
			b.Fatal(err)
		}
		wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: fmt.Sprintf("tmp/wr%d", i), DefaultReducers: 2})
		if err != nil {
			b.Fatal(err)
		}
		out := fmt.Sprintf("stored/e%d", i)
		if err := fs.WriteFile(out+"/part-00000", []byte("1\t2\t3\n")); err != nil {
			b.Fatal(err)
		}
		in := fmt.Sprintf("data/src%d", i)
		repo.Insert(&core.Entry{
			Plan:          core.SigOf(wf.Jobs[0].Plan),
			OutputPath:    out,
			InputVersions: map[string]int64{in: fs.Version(in)},
			Stats:         core.EntryStats{InputSimBytes: int64(1000 + i), OutputSimBytes: 100},
		})
	}
	return sys
}

// BenchmarkWarmRepeat measures the steady-state per-query cost of a
// repeated PigMix query against 1k- and 10k-entry repositories, batch
// cache on and off. Two curves matter: cache-on must beat cache-off at
// every size (the decode is paid once, not per run), and the 1k→10k
// growth must stay ~flat (submit-path overhead does not scale with
// repository size). The hit ratio is reported as a custom metric.
func BenchmarkWarmRepeat(b *testing.B) {
	q, err := pigmix.Get("L2")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		for _, mode := range []struct {
			name string
			off  bool
		}{{"cache", false}, {"nocache", true}} {
			b.Run(fmt.Sprintf("%s/%d", mode.name, n), func(b *testing.B) {
				sys := warmRepeatSystem(b, n, mode.off)
				if _, err := sys.Execute(q.Script); err != nil { // warm-up
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Execute(q.Script); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				bc := sys.BatchCacheStats()
				b.ReportMetric(bc.HitRatio(), "hit-ratio")
			})
		}
	}
}

// BenchmarkSubmitHash times the lease-name hash on the submit path —
// the two-seed rapidhash-style tuple.Hash64 — over a realistic
// fingerprint string. Every submission names one claim lease per job,
// so this cost is paid on the critical path of warm repeats.
func BenchmarkSubmitHash(b *testing.B) {
	fp := "J1|load(page_views)>filter(a>100)>group(b)>foreach(group,COUNT)|R3|store(tmp/q1/out)"
	b.Run("hash64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tuple.Hash64(fp, 0)
			_ = tuple.Hash64(fp, 1)
		}
	})
}

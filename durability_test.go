// End-to-end suite for the durability subsystem: crash-injected
// recovery, cross-process (two-System) claim leases over one DFS, the
// legacy snapshot format, and the atomic Save path.
package restore

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// durableConfig is a durability-enabled configuration storing
// aggressively, so workloads populate the repository.
func durableConfig() Config {
	cfg := DefaultConfig()
	cfg.Options = Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive}
	cfg.Durability = DurabilityConfig{Enabled: true, CompactEvery: -1} // compaction only on demand
	return cfg
}

func seedEventsFS(t *testing.T, fs dfs.Backend) {
	t.Helper()
	cfg := DefaultConfig()
	sys, err := Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	seedEvents(t, sys)
}

// durableWorkload runs a small mixed workload: a one-job aggregation, a
// two-job chain sharing its prefix, and a rerun that reuses.
func durableWorkload(t *testing.T, sys *System, ns string) {
	t.Helper()
	for i, script := range []string{
		fmt.Sprintf(oneJobScript, ns+"/out0"),
		fmt.Sprintf(twoJobScript, ns+"/out1"),
		fmt.Sprintf(oneJobScript, ns+"/out2"),
	} {
		if _, err := sys.Execute(script); err != nil {
			t.Fatalf("workload query %d: %v", i, err)
		}
	}
}

// repoFingerprint renders everything Probe depends on: the entry list
// in scan order with identity, stats, and validity-relevant fields.
func repoFingerprint(r *core.Repository) string {
	var b strings.Builder
	for _, e := range RepositoryEntries(r) {
		fmt.Fprintf(&b, "%s|%s|%+v|%v|%v\n", e.ID, e.OutputPath, e.Stats, e.WholeJob, e.StoredAt)
	}
	return b.String()
}

// TestRecoverAfterRestart is the durability value proposition: a System
// is closed, a new one recovers over the same DFS, and a warm query
// reuses the previous process's stored outputs with the exact SimTime a
// same-process rerun would have reported — without decoding any stored
// plan during recovery.
func TestRecoverAfterRestart(t *testing.T) {
	// Reference: one long-lived system, cold run then warm rerun.
	fsRef := dfstest.New(t)
	seedEventsFS(t, fsRef)
	ref, err := Recover(durableConfig(), fsRef)
	if err != nil {
		t.Fatal(err)
	}
	durableWorkload(t, ref, "ref")
	refWarm, err := ref.Execute(fmt.Sprintf(oneJobScript, "ref/warm"))
	if err != nil {
		t.Fatal(err)
	}

	// Restart flow: same workload, then recovery in a "new process".
	fs := dfstest.New(t)
	seedEventsFS(t, fs)
	sysA, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	durableWorkload(t, sysA, "ref") // same namespace → same plans as ref
	preCrash := repoFingerprint(sysA.Repository())
	if err := sysA.Close(); err != nil {
		t.Fatal(err)
	}

	decodesBefore := core.PlanDecodes()
	sysB, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer sysB.Close()
	st := sysB.DurabilityStats()
	if st.RecoveredEntries == 0 {
		t.Fatal("recovery found no entries; premise broken")
	}
	if d := core.PlanDecodes() - decodesBefore; d != 0 {
		t.Fatalf("cold recovery decoded %d stored plans, want 0", d)
	}
	if got := repoFingerprint(sysB.Repository()); got != preCrash {
		t.Fatalf("recovered repository diverged\n--- recovered ---\n%s--- pre-restart ---\n%s", got, preCrash)
	}

	warm, err := sysB.Execute(fmt.Sprintf(oneJobScript, "ref/warm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Rewrites) == 0 {
		t.Fatal("recovered system reused nothing on a warm query")
	}
	if warm.SimTime != refWarm.SimTime {
		t.Fatalf("recovered warm SimTime %v, uncrashed reference %v", warm.SimTime, refWarm.SimTime)
	}
}

// TestRecoverCrashMatrix crashes a live System after every DFS
// mutation of a log compaction — the compaction lease, the temporary
// manifest write, the rename that publishes it, each trimmed record, the
// lease release — and requires the recovered System to hold the
// pre-crash repository and to report the same warm-query SimTime as an
// uncrashed run. A counted subtest is named after the first mutation
// its crash loses; append-done crashes right after the last record of
// one more query, with no compaction.
func TestRecoverCrashMatrix(t *testing.T) {
	// Uncrashed reference for the warm-query SimTime.
	fsRef := dfstest.New(t)
	seedEventsFS(t, fsRef)
	ref, err := Recover(durableConfig(), fsRef)
	if err != nil {
		t.Fatal(err)
	}
	durableWorkload(t, ref, "m")
	refWarm, err := ref.Execute(fmt.Sprintf(oneJobScript, "m/warm"))
	if err != nil {
		t.Fatal(err)
	}

	// setup runs the workload and one more query, every record of which
	// is durable before the compaction starts.
	setup := func(t *testing.T) (*dfstest.Faulty, *System) {
		fs := &dfstest.Faulty{Backend: dfstest.New(t)}
		seedEventsFS(t, fs)
		sys, err := Recover(durableConfig(), fs)
		if err != nil {
			t.Fatal(err)
		}
		durableWorkload(t, sys, "m")
		if _, err := sys.Execute(fmt.Sprintf(oneJobScript, "m/extra")); err != nil {
			t.Fatal(err)
		}
		return fs, sys
	}

	// Count the compaction's mutations on an unfaulted run.
	fs, sys := setup(t)
	m0 := fs.Mutations()
	if err := sys.durable.Compact(); err != nil {
		t.Fatal(err)
	}
	n := fs.Mutations() - m0
	sys.Close()
	t.Logf("one compaction: N = %d mutations", n)

	// run crashes k mutations into a compaction, or, for k < 0, right
	// after setup, with no compaction; it checks the recovered System.
	run := func(name string, k int) {
		t.Run(name, func(t *testing.T) {
			fs, sysA := setup(t)
			if k < 0 {
				fs.CrashAfter(0)
			} else {
				fs.CrashAfter(k)
				_ = sysA.durable.Compact() // a crashed compaction may or may not report it
			}
			want := repoFingerprint(sysA.Repository())
			sysA.Close()

			decodesBefore := core.PlanDecodes()
			sysB, err := Recover(durableConfig(), fs.Backend)
			if err != nil {
				t.Fatalf("Recover after a crash at %s: %v", name, err)
			}
			defer sysB.Close()
			if d := core.PlanDecodes() - decodesBefore; d != 0 {
				t.Fatalf("recovery decoded %d plans, want 0", d)
			}
			if got := repoFingerprint(sysB.Repository()); got != want {
				t.Fatalf("recovery after a crash at %s diverged\n--- recovered ---\n%s--- pre-crash ---\n%s", name, got, want)
			}
			warm, err := sysB.Execute(fmt.Sprintf(oneJobScript, "m/warm"))
			if err != nil {
				t.Fatal(err)
			}
			if warm.SimTime != refWarm.SimTime {
				t.Fatalf("warm SimTime after a crash at %s = %v, uncrashed %v", name, warm.SimTime, refWarm.SimTime)
			}
		})
	}

	for k := 0; k <= n; k++ {
		var name string
		switch {
		case k == 0:
			name = "compact-begin"
		case k == n:
			name = "compact-done"
		case k == n-1:
			name = "compact-release"
		case k == 1:
			name = "compact-manifest"
		case k == 2:
			name = "compact-rename"
		case k == 3:
			name = "compact-trim"
		default:
			name = fmt.Sprintf("compact-trim-%d", k-2)
		}
		run(name, k)
	}
	run("append-done", -1)
}

// TestTwoSystemsVacuumPeerAndRawChanges: every version bump of a shared
// backend reaches every System's change feed. System A's entries over
// in/w are vacuumed at A's next query after System B rewrites in/w, and
// again after a raw DFS delete of it, with no janitor.
func TestTwoSystemsVacuumPeerAndRawChanges(t *testing.T) {
	fs := dfstest.New(t)
	a, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rows := func(vals ...int64) []Tuple {
		var out []Tuple
		for i, v := range vals {
			out = append(out, Tuple{fmt.Sprintf("k%d", i%2), v})
		}
		return out
	}
	const reader = "A = load 'in/w' as (k, v);\nG = group A by k;\nS = foreach G generate group, SUM(A.v);\nstore S into 'out/w';\n"
	const other = "A = load 'in/other' as (k, v);\nD = distinct A;\nstore D into 'out/other';\n"
	if err := a.WriteDataset("in/other", rows(7)); err != nil {
		t.Fatal(err)
	}
	readers := func() int {
		n := 0
		for _, e := range RepositoryEntries(a.Repository()) {
			if _, ok := e.InputVersions["in/w"]; ok {
				n++
			}
		}
		return n
	}
	for _, change := range []struct {
		name string
		do   func() error
	}{
		{"peer write", func() error { return b.WriteDataset("in/w", rows(10, 20)) }},
		{"raw delete", func() error { return fs.Delete("in/w") }},
	} {
		if err := a.WriteDataset("in/w", rows(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Execute(reader); err != nil {
			t.Fatal(err)
		}
		if readers() == 0 {
			t.Fatalf("%s: nothing stored over in/w; test premise broken", change.name)
		}
		if err := change.do(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Execute(other); err != nil {
			t.Fatal(err)
		}
		if n := readers(); n != 0 {
			t.Fatalf("%s: %d entries over in/w survived the next query's maintenance", change.name, n)
		}
	}
}

// TestTwoSystemsShareMaterialization is the cross-process acceptance
// check: two Systems recovered over one DFS, concurrently submitting an
// identical sub-job, materialize it exactly once — the loser waits on
// the winner's lease, folds the winner's log records into its own
// repository, and reuses the committed entry.
func TestTwoSystemsShareMaterialization(t *testing.T) {
	// Serial baseline on a single durable system: run the two queries
	// back to back.
	fsSerial := dfstest.New(t)
	seedEventsFS(t, fsSerial)
	serial, err := Recover(durableConfig(), fsSerial)
	if err != nil {
		t.Fatal(err)
	}
	var serialSims []time.Duration
	for i := 0; i < 2; i++ {
		res, err := serial.Execute(fmt.Sprintf(oneJobScript, fmt.Sprintf("share/c%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		serialSims = append(serialSims, res.SimTime)
	}
	serialDatasets := len(serial.FS().Datasets(core.NamespacePath("", "restore")))
	serialEntries := serial.Repository().Len()

	// Two "processes" over one DFS. A is gated mid-materialization via
	// the job observer so B demonstrably contends on the lease.
	fs := dfstest.New(t)
	seedEventsFS(t, fs)
	sysA, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	sysB, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()
	if sysA.qidPrefix == sysB.qidPrefix {
		t.Fatalf("systems share a writer identity: %q", sysA.qidPrefix)
	}

	// Gate A inside its job's execution — task progress fires only
	// after claims and leases are held — so B demonstrably contends on
	// the lease before A commits.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	qa, err := sysA.Submit(context.Background(), fmt.Sprintf(oneJobScript, "share/c0"),
		withJobProgress(func(jobID string, done, total int, sim time.Duration) {
			once.Do(func() {
				close(started)
				<-gate
			})
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	qb, err := sysB.Submit(context.Background(), fmt.Sprintf(oneJobScript, "share/c1"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sysB.StorageStats().ClaimWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never blocked on A's lease")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	resA, err := qa.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := qb.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Exactly-once materialization across processes: same sub-job
	// dataset count and entry count as the serial baseline.
	if got := len(fs.Datasets(core.NamespacePath("", "restore"))); got != serialDatasets {
		t.Errorf("two systems materialized %d restore/ datasets, serial baseline %d", got, serialDatasets)
	}
	// A third, cold recovery over the shared log is the source of truth
	// for the converged repository.
	truth, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	if got := truth.Repository().Len(); got != serialEntries {
		t.Errorf("shared repository holds %d entries, serial baseline %d", got, serialEntries)
	}

	// SimTime multiset identical to the serial baseline: one query pays
	// the generating run, the other reuses the committed entries.
	got := []time.Duration{resA.SimTime, resB.SimTime}
	sortDurations(got)
	want := append([]time.Duration(nil), serialSims...)
	sortDurations(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SimTime multiset mismatch: two-system %v, serial %v", got, want)
		}
	}

	// If B contended, it must have shared the winner's entry rather
	// than re-materializing.
	if st := sysB.StorageStats(); st.ClaimWaits > 0 && st.ClaimsShared == 0 {
		t.Errorf("B waited on a lease but shared nothing: %+v", st)
	}
}

// TestDurableHeartbeatLifecycle: a System holding no claim or pin runs
// no lease heartbeat — after Recover, between queries that claimed and
// pinned, and after Close — so no renewer outlives what it renews.
func TestDurableHeartbeatLifecycle(t *testing.T) {
	fs := dfstest.New(t)
	settled := func(want int) int {
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return got
	}
	base := runtime.NumGoroutine()
	sys, err := Recover(durableConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	seedEvents(t, sys)
	if got := settled(base); got > base {
		t.Fatalf("idle System: %d goroutines, want %d", got, base)
	}
	durableWorkload(t, sys, "out")
	if st := sys.StorageStats().Leases; st.Granted == 0 {
		t.Fatal("the workload took no claim")
	}
	if got := settled(base); got > base {
		t.Fatalf("after the queries: %d goroutines, want %d", got, base)
	}
	sys.Close()
	if got := settled(base); got > base {
		t.Fatalf("after Close: %d goroutines, want %d", got, base)
	}
}

// TestDurableJanitorReapsLeases: the background sweep deletes a dead
// peer's expired lease records.
func TestDurableJanitorReapsLeases(t *testing.T) {
	fs := dfstest.New(t)
	cfg := durableConfig()
	cfg.Durability.LeaseTTL = time.Millisecond
	sys, err := Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedEvents(t, sys)

	// Simulate a dead peer's leftover lease.
	dead := core.NewLeaseManager(fs, core.NamespacePath("", "locks"), "wdead", time.Millisecond)
	if _, ok := dead.TryAcquire("orphaned-fingerprint"); !ok {
		t.Fatal("setup acquire failed")
	}
	dead.Close() // the peer dies: its heartbeat stops renewing
	time.Sleep(5 * time.Millisecond)
	rep := sys.Sweep()
	if rep.LeasesReaped == 0 {
		t.Fatalf("sweep reaped no expired leases: %+v", rep)
	}
	if n := len(fs.Datasets(core.NamespacePath("", "locks"))); n != 0 {
		t.Fatalf("%d lease records survived the sweep", n)
	}
}

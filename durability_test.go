// End-to-end suite for the durability subsystem: crash-injected
// recovery, cross-process (two-System) claim leases over one DFS, the
// legacy snapshot format, and the atomic Save path.
package restore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
)

// newTestFS returns the DFS backend the durability suite runs against:
// in-memory by default, the on-disk backend in a per-test directory
// when RESTORE_TEST_BACKEND=disk (CI runs the suite once per backend).
func newTestFS(t testing.TB) dfs.Backend {
	if os.Getenv("RESTORE_TEST_BACKEND") == "disk" {
		d, err := dfs.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return dfs.New()
}

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
	for _, e := range r.Entries() {
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
	fsRef := newTestFS(t)
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
	fs := newTestFS(t)
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

// TestRecoverCrashMatrix injects a crash at every log/compaction
// boundary of a live workload and requires the recovered System to
// answer Probe identically to the pre-crash repository and to report
// the same warm-query SimTime as an uncrashed run.
func TestRecoverCrashMatrix(t *testing.T) {
	// Uncrashed reference for the warm-query SimTime.
	fsRef := newTestFS(t)
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

	for _, point := range []string{"append-done", "compact-begin", "compact-manifest", "compact-rename", "compact-trim", "compact-done"} {
		t.Run(point, func(t *testing.T) {
			fs := newTestFS(t)
			seedEventsFS(t, fs)
			sysA, err := Recover(durableConfig(), fs)
			if err != nil {
				t.Fatal(err)
			}
			durableWorkload(t, sysA, "m")

			crash := errors.New("injected crash")
			switch point {
			case "append-done":
				// Crash immediately after the last record of one more
				// query became durable: everything acknowledged must
				// survive. The workload query runs to completion (the
				// wedged log just stops persisting) but we compare
				// against the pre-wedge state plus whatever the wedged
				// query managed to append — i.e., the durable prefix.
				if _, err := sysA.Execute(fmt.Sprintf(oneJobScript, "m/extra")); err != nil {
					t.Fatal(err)
				}
			default:
				sysA.durable.SetFailpoint(func(p string) error {
					if p == point {
						return crash
					}
					return nil
				})
				if err := sysA.CompactLog(); err == nil {
					t.Fatalf("CompactLog with a %s crash returned nil", point)
				}
			}
			want := repoFingerprint(sysA.Repository())

			decodesBefore := core.PlanDecodes()
			sysB, err := Recover(durableConfig(), fs)
			if err != nil {
				t.Fatalf("Recover after %s crash: %v", point, err)
			}
			defer sysB.Close()
			if d := core.PlanDecodes() - decodesBefore; d != 0 {
				t.Fatalf("recovery decoded %d plans, want 0", d)
			}
			if got := repoFingerprint(sysB.Repository()); got != want {
				t.Fatalf("recovery after %s crash diverged\n--- recovered ---\n%s--- pre-crash ---\n%s", point, got, want)
			}
			warm, err := sysB.Execute(fmt.Sprintf(oneJobScript, "m/warm"))
			if err != nil {
				t.Fatal(err)
			}
			if warm.SimTime != refWarm.SimTime {
				t.Fatalf("warm SimTime after %s crash = %v, uncrashed %v", point, warm.SimTime, refWarm.SimTime)
			}
		})
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
	fsSerial := newTestFS(t)
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
	serialDatasets := len(serial.FS().Datasets("restore"))
	serialEntries := serial.Repository().Len()

	// Two "processes" over one DFS. A is gated mid-materialization via
	// the job observer so B demonstrably contends on the lease.
	fs := newTestFS(t)
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
	if got := len(fs.Datasets("restore")); got != serialDatasets {
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
	fs := newTestFS(t)
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
	if st := sys.LeaseStats(); st.Granted == 0 {
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
	fs := newTestFS(t)
	cfg := durableConfig()
	cfg.Durability.LeaseTTL = time.Millisecond
	sys, err := Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedEvents(t, sys)

	// Simulate a dead peer's leftover lease.
	dead := core.NewLeaseManager(fs, "locks", "wdead", time.Millisecond, 0)
	if _, ok := dead.TryAcquire("orphaned-fingerprint"); !ok {
		t.Fatal("setup acquire failed")
	}
	dead.Close() // the peer dies: its heartbeat stops renewing
	time.Sleep(5 * time.Millisecond)
	rep := sys.Sweep()
	if rep.LeasesReaped == 0 {
		t.Fatalf("sweep reaped no expired leases: %+v", rep)
	}
	if n := len(fs.Datasets("locks")); n != 0 {
		t.Fatalf("%d lease records survived the sweep", n)
	}
}

// End-to-end suite for incremental maintenance: stored entries whose
// inputs grew by appended part files are delta-refreshed in place
// instead of recomputed cold. The differential tests require the
// refreshed aggregates and the final query outputs to be identical to
// a cold recompute over the grown data — the net-traffic measures are
// integers, so "identical" means byte-identical row sets with no
// floating-point forgiveness.
package restore_test

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

const (
	netRows = 150
	netSeed = 42
)

// deltaFS mirrors the durability suite's backend switch: in-memory by
// default, the on-disk backend when RESTORE_TEST_BACKEND=disk (CI runs
// the suite once per backend).
func deltaFS(t testing.TB) dfs.Backend {
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

// netSystem builds a reuse-enabled system over a freshly seeded
// net-traffic flow log with days daily partitions.
func netSystem(t testing.TB, opts restore.Options, days int) *restore.System {
	t.Helper()
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	sys, err := restore.Recover(cfg, deltaFS(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := pigmix.GenerateNetTraffic(sys.FS(), days, netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	return sys
}

func reuseOpts() restore.Options {
	return restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
}

func runNet(t testing.TB, sys *restore.System, name string) *restore.Result {
	t.Helper()
	q, err := pigmix.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ExecuteContext(context.Background(), q.Script, restore.WithWorkers(1))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// sortedRows reads a dataset and renders its rows in a canonical
// order-insensitive form.
func sortedRows(t testing.TB, sys *restore.System, path string) []string {
	t.Helper()
	tuples, err := sys.ReadDataset(path)
	if err != nil {
		t.Fatalf("ReadDataset(%s): %v", path, err)
	}
	rows := make([]string, len(tuples))
	for i, tp := range tuples {
		rows[i] = fmt.Sprint(tp)
	}
	sort.Strings(rows)
	return rows
}

// mergeableAggregates renders each mergeable whole-job aggregate over
// the flow log — current at the log's present version — as a
// sorted-rows blob, the set sorted: the canonical form of the stored
// aggregates a probe would reuse.
func mergeableAggregates(t testing.TB, sys *restore.System) []string {
	t.Helper()
	cur := sys.FS().Version(pigmix.PathNetTraffic)
	var blobs []string
	for _, e := range restore.RepositoryEntries(sys.Repository()) {
		if e.Merge == nil || !e.WholeJob || e.InputVersions[pigmix.PathNetTraffic] != cur {
			continue
		}
		blobs = append(blobs, strings.Join(sortedRows(t, sys, e.OutputPath), "\n"))
	}
	sort.Strings(blobs)
	return blobs
}

// TestDeltaRefreshEndToEnd is the headline path: store on the first
// run, append a day, and the second run must refresh the stored
// aggregate from the appended slice and reuse it whole — no cold
// recompute of the grown input.
func TestDeltaRefreshEndToEnd(t *testing.T) {
	sys := netSystem(t, reuseOpts(), pigmix.NetTrafficDays)

	runNet(t, sys, "N1")
	if ds := sys.DeltaStats(); ds.Refreshes != 0 || ds.Failed != 0 {
		t.Fatalf("cold run touched the refresh path: %+v", ds)
	}

	if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}

	res := runNet(t, sys, "N1")
	ds := sys.DeltaStats()
	if ds.Refreshes < 1 {
		t.Fatalf("append-then-requery did not refresh: %+v", ds)
	}
	if ds.Failed != 0 {
		t.Fatalf("refresh attempts failed: %+v", ds)
	}
	if res.JobsReused < 1 {
		t.Fatalf("refreshed entry was not reused: JobsReused=%d JobsRun=%d", res.JobsReused, res.JobsRun)
	}
	if ds.DeltaBytesRead <= 0 || ds.ColdBytesAvoided <= 0 {
		t.Fatalf("delta byte accounting did not move: %+v", ds)
	}
	// The delta must be a strict minority of the cold bytes: 1 appended
	// day against a 3-day base.
	if ds.DeltaBytesRead >= ds.ColdBytesAvoided {
		t.Fatalf("delta read %d bytes but only avoided %d", ds.DeltaBytesRead, ds.ColdBytesAvoided)
	}
}

// TestSweepKeepsRefreshableEntries: the janitor decides "dead" as the
// rewriter does, so a sweep between an append and the re-query spares
// the entries the append left refreshable, and the re-query refreshes
// its aggregate instead of recomputing both jobs cold.
func TestSweepKeepsRefreshableEntries(t *testing.T) {
	sys := netSystem(t, reuseOpts(), pigmix.NetTrafficDays)
	runNet(t, sys, "N1")
	if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	sys.Sweep()
	res := runNet(t, sys, "N1")
	if ds := sys.DeltaStats(); ds.Refreshes != 1 || res.JobsRun != 1 {
		t.Fatalf("after a sweep: %d refreshes and %d jobs run, want 1 and 1", ds.Refreshes, res.JobsRun)
	}
}

// TestDeltaRefreshDifferential runs the whole net-traffic suite warm
// (store, append, requery-with-refresh) against a cold system built
// directly over the identical grown data, and requires both the final
// query outputs and the stored aggregates themselves to be identical.
func TestDeltaRefreshDifferential(t *testing.T) {
	warm := netSystem(t, reuseOpts(), pigmix.NetTrafficDays)
	for _, name := range pigmix.NetTrafficSuite {
		runNet(t, warm, name)
	}
	if _, err := pigmix.AppendNetTrafficDay(warm.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	for _, name := range pigmix.NetTrafficSuite {
		runNet(t, warm, name)
	}
	ds := warm.DeltaStats()
	if want := int64(len(pigmix.NetTrafficSuite)); ds.Refreshes < want {
		t.Fatalf("refreshed %d entries, want %d: %+v", ds.Refreshes, want, ds)
	}

	// The cold system sees the grown log from the start: its generator
	// writes the same four daily partitions byte for byte.
	cold := netSystem(t, reuseOpts(), pigmix.NetTrafficDays+1)
	for _, name := range pigmix.NetTrafficSuite {
		runNet(t, cold, name)
	}
	if cds := cold.DeltaStats(); cds.Refreshes != 0 {
		t.Fatalf("cold system refreshed: %+v", cds)
	}

	for _, name := range pigmix.NetTrafficSuite {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		w := sortedRows(t, warm, q.Output)
		c := sortedRows(t, cold, q.Output)
		if fmt.Sprint(w) != fmt.Sprint(c) {
			t.Errorf("%s: refreshed output diverges from cold recompute:\nwarm: %v\ncold: %v", name, w, c)
		}
	}

	// Stronger than the final outputs: the refreshed stored aggregates
	// must equal the aggregates a cold system computes and stores.
	wa, ca := mergeableAggregates(t, warm), mergeableAggregates(t, cold)
	if len(wa) != len(ca) {
		t.Fatalf("stored aggregate counts diverge: warm %d, cold %d", len(wa), len(ca))
	}
	for i := range wa {
		if wa[i] != ca[i] {
			t.Errorf("stored aggregate %d diverges between refresh and cold recompute", i)
		}
	}
}

// netDistinctScript is a two-job query whose first job is holistic
// (DISTINCT) — not mergeable, so growth must fall back to a cold
// recompute that replaces the stored entry.
const netDistinctScript = `A = load 'pigmix/net_traffic' as (day, host, proto, packets, bytes, duration);
B = foreach A generate host;
D = distinct B;
G = group D all;
S = foreach G generate COUNT(D);
store S into 'out/nd';
`

// TestDeltaRefreshNonMergeable is the regression guard: a holistic
// entry never takes the refresh path, recomputes cold on growth, and
// the replacement entry serves subsequent runs. The heuristic is left
// at its default so only whole-job entries are stored: under the
// aggressive heuristic the row-wise projection prefix is also stored
// and would (correctly) union-merge refresh, which this test is not
// about.
func TestDeltaRefreshNonMergeable(t *testing.T) {
	sys := netSystem(t, restore.Options{Reuse: true, KeepWholeJobs: true}, pigmix.NetTrafficDays)
	ctx := context.Background()

	if _, err := sys.ExecuteContext(ctx, netDistinctScript, restore.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecuteContext(ctx, netDistinctScript, restore.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if ds := sys.DeltaStats(); ds.Refreshes != 0 {
		t.Fatalf("holistic plan took the refresh path: %+v", ds)
	}
	// The classifier must have rejected the distinct job outright.
	for _, e := range restore.RepositoryEntries(sys.Repository()) {
		if _, overLog := e.InputVersions[pigmix.PathNetTraffic]; overLog && e.Merge != nil {
			t.Fatalf("holistic entry %s was stamped mergeable", e.ID)
		}
	}

	// The cold rerun re-stored the entry at the grown versions, so a
	// third run (no further growth) reuses it.
	res, err := sys.ExecuteContext(ctx, netDistinctScript, restore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsReused < 1 {
		t.Fatalf("replaced holistic entry was not reused: JobsReused=%d", res.JobsReused)
	}

	cold := netSystem(t, restore.Options{}, pigmix.NetTrafficDays+1)
	if _, err := cold.ExecuteContext(ctx, netDistinctScript, restore.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	w, c := sortedRows(t, sys, "out/nd"), sortedRows(t, cold, "out/nd")
	if fmt.Sprint(w) != fmt.Sprint(c) {
		t.Fatalf("grown holistic result diverges from cold recompute:\nwarm: %v\ncold: %v", w, c)
	}
}

// TestDeltaRefreshDurable proves the refresh is journaled: a recovered
// System sees the refreshed entry as valid at the grown versions (no
// re-refresh, immediate reuse) and can refresh it again after further
// growth.
func TestDeltaRefreshDurable(t *testing.T) {
	fs := deltaFS(t)
	cfg := restore.DefaultConfig()
	cfg.Options = reuseOpts()
	cfg.Durability = restore.DurabilityConfig{Enabled: true, CompactEvery: -1}

	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pigmix.GenerateNetTraffic(fs, pigmix.NetTrafficDays, netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	runNet(t, sys, "N1")
	if _, err := pigmix.AppendNetTrafficDay(fs, netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	runNet(t, sys, "N1")
	if ds := sys.DeltaStats(); ds.Refreshes != 1 {
		t.Fatalf("expected one refresh before restart: %+v", ds)
	}
	want := sortedRows(t, sys, "out/N1")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := restore.Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()

	// No growth since the refresh: the recovered entry must be valid
	// as-is and reused without touching the refresh path.
	res := runNet(t, sys2, "N1")
	if ds := sys2.DeltaStats(); ds.Refreshes != 0 || ds.Failed != 0 {
		t.Fatalf("recovered entry was not valid at the refreshed versions: %+v", ds)
	}
	if res.JobsReused < 1 {
		t.Fatalf("recovered refreshed entry was not reused: JobsReused=%d", res.JobsReused)
	}
	if got := sortedRows(t, sys2, "out/N1"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered output diverges:\ngot:  %v\nwant: %v", got, want)
	}

	// Further growth: the recovered Merge spec and input bases must
	// support another refresh.
	readers := entryIDs(sys2, pigmix.PathNetTraffic)
	if _, err := pigmix.AppendNetTrafficDay(fs, netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	res = runNet(t, sys2, "N1")
	if ds := sys2.DeltaStats(); ds.Refreshes != 1 {
		t.Fatalf("recovered entry did not refresh after growth: %+v", ds)
	}
	if res.JobsReused < 1 {
		t.Fatalf("re-refreshed entry was not reused: JobsReused=%d", res.JobsReused)
	}
	// The refresh replaced the recovered entry in place, keeping its ID,
	// and registered nothing under the empty plan: with no more growth,
	// later runs reuse every entry as it is.
	if got := entryIDs(sys2, pigmix.PathNetTraffic); fmt.Sprint(got) != fmt.Sprint(readers) {
		t.Fatalf("entries over the log after the refresh: %v, want %v", got, readers)
	}
	ids := entryIDs(sys2, "")
	for range 2 {
		runNet(t, sys2, "N1")
	}
	if ds := sys2.DeltaStats(); ds.Refreshes != 1 || ds.Failed != 0 {
		t.Fatalf("refreshed recovered entry went stale again: %+v", ds)
	}
	if got := entryIDs(sys2, ""); fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("entries changed with no growth: %v, want %v", got, ids)
	}
	if e := sys2.Repository().Lookup(core.PlanSig{}); e != nil {
		t.Fatalf("entry %s registered under the empty plan", e.ID)
	}
}

// entryIDs returns the sorted IDs of the repository's entries that read
// input, or of every entry when input is empty.
func entryIDs(sys *restore.System, input string) []string {
	var ids []string
	for _, e := range restore.RepositoryEntries(sys.Repository()) {
		if _, reads := e.InputVersions[input]; reads || input == "" {
			ids = append(ids, e.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// BenchmarkDeltaRefresh is the headline perf artifact: the per-requery
// cost of "a day of flows landed, rerun the report" with incremental
// maintenance against the cold path. Each iteration appends one day
// (off the clock) and reruns N1: the refresh arm reads O(day) input
// bytes per run, the cold arm O(whole log) — and the log keeps
// growing, so the gap widens with b.N. The delta-bytes/op and
// log-bytes metrics are reported next to the ns/op gap.
// The crowded arm is the same refresh with 20 k unrelated files
// resident: what a refresh costs must not depend on what else the
// store holds.
func BenchmarkDeltaRefresh(b *testing.B) {
	const baseDays = 10
	for _, mode := range []struct {
		name  string
		opts  restore.Options
		crowd int
	}{
		{"refresh", reuseOpts(), 0},
		{"refresh-crowded", reuseOpts(), 20000},
		{"cold", restore.Options{}, 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys := netSystem(b, mode.opts, baseDays)
			for i := 0; i < mode.crowd; i++ {
				p := fmt.Sprintf("crowd/q%03d/out/part-%05d", i/28, i%28)
				if err := sys.FS().WriteFile(p, []byte("x\n")); err != nil {
					b.Fatal(err)
				}
			}
			runNet(b, sys, "N1") // populate (or just warm) the repository
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				runNet(b, sys, "N1")
			}
			b.StopTimer()
			if ds := sys.DeltaStats(); ds.Refreshes > 0 {
				b.ReportMetric(float64(ds.DeltaBytesRead)/float64(b.N), "delta-bytes/op")
				b.ReportMetric(float64(ds.ColdBytesAvoided)/float64(b.N), "avoided-bytes/op")
			}
			b.ReportMetric(float64(sys.FS().Size(pigmix.PathNetTraffic)), "log-bytes")
		})
	}
}

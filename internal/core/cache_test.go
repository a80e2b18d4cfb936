package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pigmix"
)

// TestNoDeadCacheEntries: a job's output enters the batch cache when a
// later job reads it, and most outputs — temporaries, STORE staging,
// refresh deltas, evicted sub-job outputs — are deleted or
// renamed away soon after and never named again. The cache reads the
// DFS change feed, which reports each of those deletes and renames, and
// drops the decoded copy by its next operation. After every step below,
// each dataset the cache holds must still exist on the DFS; every step
// reaches at least one of the driver's or storage manager's delete or
// rename sites.
func TestNoDeadCacheEntries(t *testing.T) {
	h := newHarness(t, Options{})
	h.workers = 1
	if _, err := pigmix.Generate(h.fs, pigmix.TinyScale, 42); err != nil {
		t.Fatal(err)
	}
	if err := pigmix.GenerateNetTraffic(h.fs, pigmix.NetTrafficDays, 150, 42); err != nil {
		t.Fatal(err)
	}
	noDeadEntries := func(step string) {
		t.Helper()
		for _, path := range h.eng.CachedPaths() {
			if !h.fs.Exists(path) {
				t.Fatalf("%s: the batch cache still holds %s, which was deleted", step, path)
			}
		}
	}
	l11, err := pigmix.Get("L11")
	if err != nil {
		t.Fatal(err)
	}

	// Stock Pig: a three-job query deletes its two temporaries and
	// renames its staged output onto the user path.
	h.opts = Options{DeleteTemps: true}
	h.run(t, l11.Script)
	noDeadEntries("DeleteTemps")
	h.opts = Options{}
	h.run(t, l11.Script)
	noDeadEntries("STORE commit")

	// A query cancelled after one of its two final jobs committed to
	// staging discards that staging.
	two := fmt.Sprintf(`
A = load '%s' as (%s);
B = foreach A generate user, timespent, estimated_revenue;
G = group B by user;
S = foreach G generate group, MAX(B.estimated_revenue);
store S into 'out/c1';
H = group B all;
T = foreach H generate SUM(B.timespent);
store T into 'out/c2';
`, pigmix.PathPageViews, pigmix.PageViewsSchema)
	h.opts = Options{}
	wf := h.compile(t, two)
	final := map[string]bool{}
	for _, j := range wf.Jobs {
		if _, ok := wf.FinalOutputs[j.OutputPath]; ok {
			final[j.ID] = true
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	staged := 0
	_, err = h.driver.Execute(ctx, wf, fmt.Sprintf("q%d", h.nquery), ExecConfig{
		Opts:    h.opts,
		Workers: 1,
		OnJobState: func(id string, s JobState) {
			if s == JobDone && final[id] {
				staged++
				cancel()
			}
		},
	})
	if len(final) != 2 || staged != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err %v after %d of %d final job(s); want context.Canceled after 1 of 2", err, staged, len(final))
	}
	noDeadEntries("aborted staging")

	// Sub-job outputs evicted under a byte budget, then the janitor's
	// orphan sweep over the temporaries of every finished query.
	h.opts = Options{Reuse: true, Heuristic: Aggressive}
	h.run(t, l11.Script)
	h.run(t, two)
	if h.repo.Len() == 0 {
		t.Fatal("nothing stored; the eviction step reaches nothing")
	}
	tight := NewStorageManager(h.repo, h.fs, StorageConfig{MaxBytes: 1, Policy: ReuseWindowPolicy{}})
	if res := tight.Sweep(h.driver.Now(), 0); res.EntriesEvicted == 0 {
		t.Fatalf("budget sweep evicted nothing: %+v", res)
	}
	noDeadEntries("budget eviction")
	if n, _ := tight.VacuumOrphans(); n == 0 {
		t.Fatal("the orphan sweep reclaimed nothing")
	}
	noDeadEntries("orphan sweep")

	// Delta refresh: each append makes the next N1 merge a delta into
	// its stored aggregate and delete the delta.
	h.opts = Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive}
	n1, err := pigmix.Get("N1")
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, n1.Script)
	for cycle := 1; cycle <= 20; cycle++ {
		if _, err := pigmix.AppendNetTrafficDay(h.fs, 150, 42); err != nil {
			t.Fatal(err)
		}
		h.run(t, n1.Script)
		if got := h.driver.DeltaStats(); got.Refreshes < int64(cycle) || got.Failed != 0 {
			t.Fatalf("cycle %d did not refresh: %+v", cycle, got)
		}
		noDeadEntries(fmt.Sprintf("refresh cycle %d", cycle))
	}
}

// Differential tests of the in-memory fast path: with the decoded-
// dataset batch cache on versus off, every PigMix query must produce a
// byte-identical DFS and an identical simulated time — the cache is a
// pure wall-clock optimization, invisible to the cost model and the
// query results.
package restore_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// fastpathSystem builds a tiny PigMix system with the batch cache on
// (the default budget).
func fastpathSystem(t *testing.T, opts restore.Options) *restore.System {
	t.Helper()
	return tinySystem(t, opts, 0)
}

// tinySystem builds a tiny PigMix system with the given batch-cache
// budget; negative turns the cache off (Config.MaxCachedBatchBytes).
func tinySystem(t *testing.T, opts restore.Options, maxCachedBatchBytes int64) *restore.System {
	t.Helper()
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	cfg.MaxCachedBatchBytes = maxCachedBatchBytes
	return scaledSystem(t, cfg, pigmix.TinyScale)
}

// scaledSystem generates a PigMix instance into a fresh DFS, sizes
// cfg's simulated clock to it, and opens a System over it — a System's
// scales are fixed at construction, so the data has to exist first.
func scaledSystem(tb testing.TB, cfg restore.Config, sc pigmix.Scale) *restore.System {
	tb.Helper()
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, sc, 1); err != nil {
		tb.Fatal(err)
	}
	cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, sc), pigmix.RecordScaleFor(sc)
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// snapshotFS captures every file on the DFS.
func snapshotFS(t *testing.T, sys *restore.System) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range sys.FS().List("") {
		data, err := sys.FS().ReadFile(f)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", f, err)
		}
		out[f] = string(data)
	}
	return out
}

func diffFS(t *testing.T, label string, cached, plain map[string]string) {
	t.Helper()
	if len(cached) != len(plain) {
		t.Fatalf("%s: file counts diverge: cached %d, uncached %d", label, len(cached), len(plain))
	}
	for f, want := range plain {
		got, ok := cached[f]
		if !ok {
			t.Fatalf("%s: %s missing from cached system", label, f)
		}
		if got != want {
			t.Fatalf("%s: %s differs between cached and uncached runs", label, f)
		}
	}
}

// TestBatchCacheDifferentialPigMix runs every PigMix query twice (cold
// then warm) on a cached and an uncached system and requires identical
// simulated times per run and a byte-identical DFS at the end. The
// warm runs on the cached system must actually hit the cache, so the
// equality is between genuinely different code paths.
func TestBatchCacheDifferentialPigMix(t *testing.T) {
	cached := fastpathSystem(t, restore.Options{})
	plain := tinySystem(t, restore.Options{}, -1)
	ctx := context.Background()

	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			rc, err := cached.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d cached: %v", name, run, err)
			}
			rp, err := plain.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d uncached: %v", name, run, err)
			}
			if rc.SimTime != rp.SimTime {
				t.Errorf("%s run %d: SimTime diverged: cached %v, uncached %v", name, run, rc.SimTime, rp.SimTime)
			}
		}
	}

	diffFS(t, "pigmix", snapshotFS(t, cached), snapshotFS(t, plain))

	cs := cached.BatchCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("cached system never hit the batch cache: %+v", cs)
	}
	if ps := plain.BatchCacheStats(); ps != (restore.BatchCacheStats{}) {
		t.Fatalf("uncached system touched the batch cache: %+v", ps)
	}
}

// TestBatchCacheDifferentialReuse repeats the check through the
// repository-reuse path — warm runs that rewrite queries against
// stored outputs must match with and without the cache. The cache
// fills on read, so run 2 reads the stored outputs into it and run 3
// hits them.
func TestBatchCacheDifferentialReuse(t *testing.T) {
	opts := restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
	cached := fastpathSystem(t, opts)
	plain := tinySystem(t, opts, -1)
	ctx := context.Background()

	for _, name := range []string{"L2", "L3"} {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			rc, err := cached.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d cached: %v", name, run, err)
			}
			rp, err := plain.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d uncached: %v", name, run, err)
			}
			if fmt.Sprint(rc.SimTime) != fmt.Sprint(rp.SimTime) {
				t.Errorf("%s run %d: SimTime diverged: cached %v, uncached %v", name, run, rc.SimTime, rp.SimTime)
			}
			if rc.JobsReused != rp.JobsReused || len(rc.Rewrites) != len(rp.Rewrites) {
				t.Errorf("%s run %d: reuse diverged: cached %d/%d, uncached %d/%d",
					name, run, rc.JobsReused, len(rc.Rewrites), rp.JobsReused, len(rp.Rewrites))
			}
		}
	}

	diffFS(t, "reuse", snapshotFS(t, cached), snapshotFS(t, plain))
	if cs := cached.BatchCacheStats(); cs.Hits == 0 {
		t.Fatalf("cached system never hit the batch cache: %+v", cs)
	}
}

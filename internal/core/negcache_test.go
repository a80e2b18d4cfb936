package core

import (
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// negEntrySrc and negProbeSrc share a signature set — load(x),
// foreach(a;b), the same filter — but wire it differently (foreach
// before filter vs after), so the signature index nominates the entry
// and the full traversal rejects it: a deterministic
// nominated-but-rejected candidate.
const negEntrySrc = `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 10;
store C into 'o';
`

const negProbeSrc = `
A = load 'x' as (a, b, c);
B = filter A by b > 10;
C = foreach B generate a, b;
store C into 'neg_out';
`

// TestSharedNegCacheAcrossRewriters: a containment rejection paid by
// one submission's rewriter is reused by the next — the traversal count
// stops growing — and replacement of the rejected entry invalidates the
// cache so the fresh entry version is re-tested.
func TestSharedNegCacheAcrossRewriters(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()
	repo.Insert(durableEntry(t, fs, negEntrySrc, 0))

	run := func() (traversals, negHits int64) {
		before := repo.MatcherStats()
		rw := &Rewriter{Repo: repo, FS: fs}
		wf := compileJobs(t, negProbeSrc, "tmp/sn")
		job := cloneJob(wf.Jobs[0])
		rw.RewriteJob(job, true, obs.NoSpan)
		after := repo.MatcherStats()
		return after.FullTraversals - before.FullTraversals, after.NegativeHits - before.NegativeHits
	}

	t1, h1 := run()
	if t1 != 1 || h1 != 0 {
		t.Fatalf("first pass: traversals %d hits %d, want 1 traversal paying the rejection", t1, h1)
	}
	t2, h2 := run()
	if h2 != 1 {
		t.Fatalf("second submission hit the negative cache %d times, want 1", h2)
	}
	if t2 != 0 {
		t.Fatalf("negative cache saved nothing: %d traversals on the second pass", t2)
	}

	// Replacement invalidates: the fresh entry version is re-tested.
	victim := repo.Entries()[0]
	repl := &Entry{Plan: victim.planSig(), OutputPath: victim.OutputPath, Stats: victim.Stats, InputVersions: victim.InputVersions}
	repo.Insert(repl)
	t3, _ := run()
	if t3 != 1 {
		t.Fatalf("after replacement: %d traversals, want 1 (stale rejection must not suppress the new entry)", t3)
	}
}

// TestSharedNegCacheBound: the cache never exceeds its capacity and
// counts evictions.
func TestSharedNegCacheBound(t *testing.T) {
	c := newNegCache(4)
	e := make([]*Entry, 3)
	for i := range e {
		e[i] = &Entry{ID: fmt.Sprintf("e%d", i)}
	}
	for i := 0; i < 10; i++ {
		c.add(negKey{entry: e[i%3], jobFP: fmt.Sprintf("job%d", i)})
	}
	evictions, size := c.stats()
	if size > 4 {
		t.Fatalf("cache size %d over capacity 4", size)
	}
	if evictions != 6 {
		t.Fatalf("evictions = %d, want 6", evictions)
	}
	// The most recent keys survive; the oldest were evicted.
	if !c.lookup(negKey{entry: e[9%3], jobFP: "job9"}) {
		t.Fatal("most recent key evicted")
	}
	if c.lookup(negKey{entry: e[0], jobFP: "job0"}) {
		t.Fatal("oldest key survived a full wrap")
	}
	// Invalidation drops every key of an entry.
	c.invalidate(e[0])
	for i := 0; i < 10; i++ {
		if i%3 == 0 && c.lookup(negKey{entry: e[0], jobFP: fmt.Sprintf("job%d", i)}) {
			t.Fatalf("invalidated entry still cached (job%d)", i)
		}
	}
}

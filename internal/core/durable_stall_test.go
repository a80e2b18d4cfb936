package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/dfs/dfstest"
)

// TestCompactRefreshStallRegression reproduces the compact/refresh
// stall deterministically: writer A compacts while one of its own
// appends lands between Compact's refresh and its snapshot. The fold
// horizon extends past dl.applied through the self map, the manifest
// publishes, and trim deletes the folded record. Before the fix,
// applied was left behind the horizon: A's next refresh waited forever
// on the trimmed slot, and — because A itself wrote the manifest —
// maybeResync saw no manifest change and could never repair it, so A
// permanently stopped applying peers' records.
//
// The test performs Compact's steps by hand so the append provably
// lands inside the race window, then finishes the compaction with the
// horizon captured there (calling Compact() instead would re-run
// refreshLocked and paper over the race). snapshot() must advance
// applied across the self-authored records it folds; the assertion is
// that A still observes writer B's later insert.
func TestCompactRefreshStallRegression(t *testing.T) {
	fs := dfstest.New(t)
	dlA, repoA := openDurable(t, fs, "sys/repo")

	// Seed one entry and drain refresh so applied == head.
	repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	dlA.Refresh()

	// Compact, by hand: refresh ... [own append lands] ... snapshot.
	dlA.refreshMu.Lock()
	if _, err := dlA.refreshLocked(); err != nil {
		t.Fatal(err)
	}
	repoA.Insert(durableEntry(t, fs, indexCorpus[1], 1)) // the racing self-append
	recs, folded, err := dlA.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	applied := func() uint64 {
		dlA.seqMu.Lock()
		defer dlA.seqMu.Unlock()
		return dlA.applied
	}()
	if folded <= 1 {
		t.Fatalf("fold horizon %d never crossed the racing append; test premise broken", folded)
	}
	if applied != folded {
		t.Fatalf("applied = %d lags the fold horizon %d: the next refresh will stall on a trimmed slot", applied, folded)
	}
	// Finish the compaction with the stale-window horizon, exactly as
	// Compact does: publish the manifest, note its version, trim.
	m := manifestFile{Format: manifestFormat, FoldedThrough: folded, Entries: recs}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	tmp := dlA.manifestPath() + ".stall.tmp"
	if err := fs.WriteFile(tmp, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ver, err := fs.Rename(tmp, dlA.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	dlA.seqMu.Lock()
	dlA.manifestVer = ver
	dlA.seqMu.Unlock()
	dlA.trim(folded)
	dlA.refreshMu.Unlock()

	// Writer B appends a new entry; A must see it via Refresh.
	_, repoB := openDurable(t, fs, "sys/repo")
	repoB.Insert(durableEntry(t, fs, indexCorpus[2], 2))
	dlA.Refresh()
	if repoA.Len() != 3 {
		t.Fatalf("writer A stalled: has %d entries, want 3", repoA.Len())
	}
}

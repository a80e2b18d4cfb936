package core

import (
	"strings"
	"testing"

	"repro/internal/dfs/dfstest"
)

// TestDurableAppendTornWriteSkipped: a log append that tears mid-write
// (the CAS consumes the version slot but the record is garbage) must
// not be acknowledged, must not stall the writer — it retries on the
// next slot — and must be skipped, not fatal, for every reader
// replaying the log.
func TestDurableAppendTornWriteSkipped(t *testing.T) {
	fs := &dfstest.Faulty{Backend: dfstest.New(t)}
	dlA, repoA := openDurable(t, fs, "sys/repo")

	// Tear exactly the first record append; everything else passes
	// through untouched.
	fs.Tear(func(path string) bool { return strings.HasPrefix(path, "sys/repo/log/") })
	e0 := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	e1 := repoA.Insert(durableEntry(t, fs, indexCorpus[1], 1))

	// The torn slot is consumed, not reused: the acknowledged records
	// land on later sequence numbers, in order.
	if e0.logSeq != 2 || e1.logSeq != e0.logSeq+1 {
		t.Fatalf("log seqs = %d, %d; want the torn slot 1 skipped (2, 3)", e0.logSeq, e1.logSeq)
	}
	if !fs.Exists("sys/repo/log/r0000000000000000001") {
		t.Fatal("the torn record's prefix should be on storage — that is the scenario")
	}

	// A cold recovery replays past the garbage record and rebuilds
	// exactly the acknowledged state.
	dlB, repoB := openDurable(t, fs, "sys/repo")
	if got, want := repoState(repoB), repoState(repoA); got != want {
		t.Fatalf("recovery over a torn log diverged\n--- recovered ---\n%s--- live ---\n%s", got, want)
	}
	if st := dlB.Stats(); st.TornRecords == 0 {
		t.Fatal("replay did not count the torn record it skipped")
	}

	// The recovered system keeps working: its next insert lands past
	// everything, and the original writer picks it up on refresh.
	repoB.Insert(durableEntry(t, fs, indexCorpus[2], 2))
	dlA.Refresh()
	if n := repoA.Len(); n != 3 {
		t.Fatalf("Len(A) after refresh over the torn log = %d, want 3", n)
	}
}

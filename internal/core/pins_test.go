package core

import (
	"testing"
	"time"

	"repro/internal/dfs"
)

// pinWorld builds the two-process pin scenario: two durable systems
// over one backend, each with a pin broadcaster on a shared test
// clock. B runs under a 1-byte budget so any unprotected entry is
// evicted on sight.
func pinWorld(t *testing.T) (fs dfs.Backend, repoA *Repository, mB *StorageManager, psA, psB *PinSet, dlB *DurableLog, clock *testClock) {
	fs = newTestFS(t)
	dlA, rA := openDurable(t, fs, "sys/repo")
	dlB, rB := openDurable(t, fs, "sys/repo")
	clock = newTestClock()
	psA = NewPinSet(fs, "sys/pins", dlA.Writer(), time.Minute)
	psB = NewPinSet(fs, "sys/pins", dlB.Writer(), time.Minute)
	psA.SetClock(clock.Now)
	psB.SetClock(clock.Now)
	// A's manager is built only to wire psA into rA's pin transitions.
	newTestStorage(rA, fs, StorageConfig{Policy: LRUPolicy{}, Pins: psA})
	mB = newTestStorage(rB, fs, StorageConfig{MaxBytes: 1, Policy: LRUPolicy{}, Pins: psB})
	return fs, rA, mB, psA, psB, dlB, clock
}

// TestPeerPinBlocksBudgetEviction: process A pins an entry (its
// rewrite is reading the stored output); process B's budget sweep must
// spare both the entry and the bytes until A unpins — then B's next
// sweep reclaims them.
func TestPeerPinBlocksBudgetEviction(t *testing.T) {
	fs, repoA, mB, _, _, dlB, _ := pinWorld(t)

	e := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	dlB.Refresh()

	repoA.Pin(e.ID) // 0→1: broadcast to the shared namespace

	if removed := mB.EnforceBudget(time.Hour); len(removed) != 0 {
		t.Fatalf("B evicted %d entries a peer has pinned", len(removed))
	}
	if !fs.Exists(e.OutputPath) {
		t.Fatal("peer-pinned entry's stored output deleted")
	}

	repoA.Unpin(e.ID) // 1→0: broadcast withdrawn

	removed := mB.EnforceBudget(time.Hour)
	if len(removed) == 0 {
		t.Fatal("B never evicted after the peer unpinned")
	}
	if fs.Exists(e.OutputPath) {
		t.Fatal("evicted entry's output survived after the pin released")
	}
}

// TestCrashedPeerPinExpires: a pin whose owner died stops shielding
// the entry once its TTL passes, and the janitor-side reap deletes the
// stale record.
func TestCrashedPeerPinExpires(t *testing.T) {
	fs, repoA, mB, _, psB, dlB, clock := pinWorld(t)

	e := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	dlB.Refresh()
	repoA.Pin(e.ID)
	// "A crashes": no RenewHeld ever runs; the record ages out.
	clock.Advance(2 * time.Minute)

	if psB.PeerPinned(e.ID) {
		t.Fatal("expired pin still counts as live")
	}
	if removed := mB.EnforceBudget(time.Hour); len(removed) == 0 {
		t.Fatal("B never evicted past an expired pin")
	}
	if n := psB.ReapExpired(); n == 0 {
		t.Fatal("expired pin record not reaped")
	}
}

// TestPinRenewalKeepsRecordLive: RenewHeld (the janitor's per-sweep
// refresh) pushes the expiry forward, so a long-held pin outlives many
// TTLs while its owner runs.
func TestPinRenewalKeepsRecordLive(t *testing.T) {
	fs, repoA, _, psA, psB, dlB, clock := pinWorld(t)

	e := repoA.Insert(durableEntry(t, fs, indexCorpus[0], 0))
	dlB.Refresh()
	repoA.Pin(e.ID)

	for i := 0; i < 5; i++ {
		clock.Advance(45 * time.Second) // under the TTL each step
		psA.RenewHeld()
	}
	if !psB.PeerPinned(e.ID) {
		t.Fatal("renewed pin expired despite heartbeats")
	}
	repoA.Unpin(e.ID)
	if psB.PeerPinned(e.ID) {
		t.Fatal("withdrawn pin still visible to the peer")
	}
}

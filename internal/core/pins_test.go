package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// pinWorld is the two-process pin scenario: two durable repositories
// over one backend, each with its lease manager on the shared locks
// namespace. B runs under a 1-byte budget so any unprotected entry is
// evicted on sight.
type pinWorld struct {
	fs       dfs.Backend
	repoA    *Repository
	lmA, lmB *LeaseManager
	mB       *StorageManager
	dlB      *DurableLog
}

// newPinWorld builds the scenario with both managers' records living
// ttl; a non-nil clock drives their expiry instead of the wall clock.
func newPinWorld(t *testing.T, ttl time.Duration, clock *testClock) *pinWorld {
	fs := dfstest.New(t)
	dlA, rA := openDurable(t, fs, "sys/repo")
	dlB, rB := openDurable(t, fs, "sys/repo")
	lmA := NewLeaseManager(fs, "sys/locks", dlA.Writer(), ttl, time.Millisecond)
	lmB := NewLeaseManager(fs, "sys/locks", dlB.Writer(), ttl, time.Millisecond)
	if clock != nil {
		lmA.SetClock(clock.Now)
		lmB.SetClock(clock.Now)
	}
	t.Cleanup(lmA.Close)
	t.Cleanup(lmB.Close)
	mB := newTestStorage(rB, fs, StorageConfig{MaxBytes: 1, Policy: LRUPolicy{}, Leases: lmB})
	return &pinWorld{fs: fs, repoA: rA, lmA: lmA, lmB: lmB, mB: mB, dlB: dlB}
}

// pinA and unpinA pin as A's rewriter and driver do: through A's lease
// manager, whose count writes and deletes the pin record.
func (w *pinWorld) pinA(id string) { w.lmA.Pin(id) }

func (w *pinWorld) unpinA(id string) { w.lmA.Unpin(id) }

// insertShared stores an entry in A and lets B's repository see it.
func (w *pinWorld) insertShared(t *testing.T) *Entry {
	e := w.repoA.Insert(durableEntry(t, w.fs, indexCorpus[0], 0))
	w.dlB.Refresh()
	return e
}

// TestPeerPinBlocksBudgetEviction: process A pins an entry (its
// rewrite is reading the stored output); process B's budget sweep must
// spare both the entry and the bytes until A unpins — then B's next
// sweep reclaims them.
func TestPeerPinBlocksBudgetEviction(t *testing.T) {
	w := newPinWorld(t, time.Minute, newTestClock())
	e := w.insertShared(t)

	w.pinA(e.ID) // 0→1: the pin record is written

	if removed := w.mB.EnforceBudget(time.Hour); len(removed) != 0 {
		t.Fatalf("B evicted %d entries a peer has pinned", len(removed))
	}
	if !w.fs.Exists(e.OutputPath) {
		t.Fatal("peer-pinned entry's stored output deleted")
	}

	w.unpinA(e.ID) // 1→0: the pin record is deleted

	removed := w.mB.EnforceBudget(time.Hour)
	if len(removed) == 0 {
		t.Fatal("B never evicted after the peer unpinned")
	}
	if w.fs.Exists(e.OutputPath) {
		t.Fatal("evicted entry's output survived after the pin released")
	}
}

// TestCrashedPeerPinExpires: a pin whose owner died stops shielding
// the entry once its TTL passes, and the sweep-side reap deletes the
// stale record.
func TestCrashedPeerPinExpires(t *testing.T) {
	clock := newTestClock()
	w := newPinWorld(t, time.Minute, clock)
	e := w.insertShared(t)
	w.pinA(e.ID)
	// "A crashes": its heartbeat stops and the record ages out.
	w.lmA.Close()
	clock.Advance(2 * time.Minute)

	if w.lmB.PeerPins()[e.ID] {
		t.Fatal("expired pin still counts as live")
	}
	if removed := w.mB.EnforceBudget(time.Hour); len(removed) == 0 {
		t.Fatal("B never evicted past an expired pin")
	}
	if n, _ := w.lmB.ReapExpired(); n == 0 {
		t.Fatal("expired pin record not reaped")
	}
}

// TestPinRenewalKeepsRecordLive: a heartbeat pass renews a held pin,
// pushing its expiry forward, so a long-held pin outlives many TTLs
// while its owner runs.
func TestPinRenewalKeepsRecordLive(t *testing.T) {
	clock := newTestClock()
	w := newPinWorld(t, time.Minute, clock)
	e := w.insertShared(t)
	w.pinA(e.ID)

	for i := 0; i < 5; i++ {
		clock.Advance(45 * time.Second) // under the TTL each step
		w.lmA.beat()
	}
	if !w.lmB.PeerPins()[e.ID] {
		t.Fatal("renewed pin expired despite heartbeats")
	}
	w.unpinA(e.ID)
	if w.lmB.PeerPins()[e.ID] {
		t.Fatal("withdrawn pin still visible to the peer")
	}
}

// TestPinOutlivesTTLWithoutSweep: with no sweep and no janitor at all,
// the heartbeat alone keeps a held pin live across many real TTLs, so a
// peer under a budget never deletes the output a long read is using;
// unpinning deletes the record.
func TestPinOutlivesTTLWithoutSweep(t *testing.T) {
	const ttl = 50 * time.Millisecond
	w := newPinWorld(t, ttl, nil)
	e := w.insertShared(t)
	w.pinA(e.ID)

	time.Sleep(5 * ttl)
	if !w.lmB.PeerPins()[e.ID] {
		t.Fatal("a held pin expired while its owner was alive")
	}
	if n, peers := w.lmB.ReapExpired(); n != 0 || !peers[e.ID] {
		t.Fatalf("peer reaped %d records of a live owner (pin seen live: %v)", n, peers[e.ID])
	}
	if removed := w.mB.EnforceBudget(time.Hour); len(removed) != 0 || !w.fs.Exists(e.OutputPath) {
		t.Fatalf("peer evicted %d entries, output kept %v; want the pinned entry spared", len(removed), w.fs.Exists(e.OutputPath))
	}

	w.unpinA(e.ID)
	if w.fs.Exists(w.lmA.pinPath(e.ID)) {
		t.Fatal("pin record outlived the last unpin")
	}
	if n := len(w.fs.Datasets("sys/locks")); n != 0 {
		t.Fatalf("%d records left in the locks namespace", n)
	}
}

// TestPinRecordTracksCount: two goroutines pin and unpin one entry in
// a loop; the record exists whenever either holds a pin (each checks
// right after its Pin and right before its Unpin), and is gone once
// both are done.
func TestPinRecordTracksCount(t *testing.T) {
	fs := dfstest.New(t)
	lm := NewLeaseManager(fs, "sys/locks", "w1", time.Minute, time.Millisecond)
	peer := NewLeaseManager(fs, "sys/locks", "w2", time.Minute, time.Millisecond)
	defer lm.Close()
	path := lm.pinPath("e1")

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lm.Pin("e1")
				if !fs.Exists(path) || !peer.PeerPins()["e1"] {
					errs <- fmt.Sprintf("iteration %d: no live record right after Pin", i)
					return
				}
				runtime.Gosched() // let the other goroutine pin and unpin meanwhile
				if !fs.Exists(path) {
					errs <- fmt.Sprintf("iteration %d: record gone while still pinned", i)
					return
				}
				lm.Unpin("e1")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if fs.Exists(path) {
		t.Fatal("record outlived the last unpin")
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.claims) != 0 || len(lm.pins) != 0 || lm.stopBeat != nil {
		t.Fatalf("held %d, pins %d, heartbeat running %v after every unpin", len(lm.claims), len(lm.pins), lm.stopBeat != nil)
	}
}

// countingFS counts Datasets listings, Stat, Size and Version calls
// (sizing), deletes and file reads under one prefix.
type countingFS struct {
	dfs.Backend
	prefix  string
	mu      sync.Mutex
	lists   int
	sizing  int
	deletes int
	reads   int
}

func (c *countingFS) count(path string, n *int) {
	if strings.HasPrefix(path, c.prefix) {
		c.mu.Lock()
		*n++
		c.mu.Unlock()
	}
}

func (c *countingFS) Datasets(prefix string) []string {
	c.count(prefix, &c.lists)
	return c.Backend.Datasets(prefix)
}

func (c *countingFS) Stat(path string) (int64, int64, bool) {
	c.count(path, &c.sizing)
	return c.Backend.Stat(path)
}

func (c *countingFS) Size(path string) int64 {
	c.count(path, &c.sizing)
	return c.Backend.Size(path)
}

func (c *countingFS) Version(path string) int64 {
	c.count(path, &c.sizing)
	return c.Backend.Version(path)
}

func (c *countingFS) Delete(path string) error {
	c.count(path, &c.deletes)
	return c.Backend.Delete(path)
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	c.count(path, &c.reads)
	return c.Backend.ReadFile(path)
}

// oneVictim evicts one entry per round, the least recently used, so an
// enforcement pass over N entries takes N rounds.
type oneVictim struct{}

func (oneVictim) Name() string { return "one-victim" }

func (oneVictim) Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string {
	ids := LRUPolicy{}.Victims(usage, now, reclaim)
	return ids[:min(len(ids), 1)]
}

// TestEnforceBudgetListsPinsOncePerRound: one EnforceBudget over N
// entries lists the locks namespace at most once per eviction round,
// not once per candidate — and so does a whole Sweep, whose reap
// listing serves the first round.
func TestEnforceBudgetListsPinsOncePerRound(t *testing.T) {
	const n = 8
	fs := &countingFS{Backend: dfstest.New(t), prefix: "locks"}
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 1, Policy: oneVictim{}})
	fill := func(round int) {
		for i := 0; i < n; i++ {
			storedEntry(t, repo, fs, fmt.Sprintf("e%d-%d", round, i), fmt.Sprintf("in%d", i), 100, EntryStats{})
		}
		fs.lists = 0
	}
	fill(0)
	removed := m.EnforceBudget(time.Hour)
	if len(removed) != n {
		t.Fatalf("evicted %d entries in one-victim rounds, want %d", len(removed), n)
	}
	if fs.lists > len(removed) {
		t.Fatalf("EnforceBudget: %d listings of the locks namespace over %d eviction rounds, want at most one per round", fs.lists, len(removed))
	}
	fill(1)
	if res := m.Sweep(time.Hour, 0); res.EntriesEvicted != n || fs.lists > n {
		t.Fatalf("Sweep: %d listings over %d eviction rounds, want at most one per round", fs.lists, res.EntriesEvicted)
	}
}

// settledGoroutines waits up to a second for the goroutine count to
// fall to want or below and returns the last count seen.
func settledGoroutines(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// settledHeartbeats waits up to a second for the number of goroutines
// running a lease heartbeat to reach want — a stopped heartbeat exits,
// and a started one is scheduled, asynchronously — and returns the
// last count seen.
func settledHeartbeats(want int) int {
	buf := make([]byte, 1<<20)
	count := func() int {
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/core.(*LeaseManager).beatLocked")
	}
	got := count()
	for deadline := time.Now().Add(time.Second); got != want && time.Now().Before(deadline); got = count() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestHeartbeatRunsOnlyWhileHeld: a manager holding nothing runs no
// goroutine; any number of claims and pins share one heartbeat, which
// exits when the last record goes and never restarts after Close.
func TestHeartbeatRunsOnlyWhileHeld(t *testing.T) {
	fs := dfstest.New(t)
	base := runtime.NumGoroutine()
	lm := NewLeaseManager(fs, "sys/locks", "w1", time.Minute, time.Millisecond)
	if got := settledGoroutines(base); got > base {
		t.Fatalf("idle manager: %d goroutines, want %d", got, base)
	}

	var leases []*Lease
	for i := 0; i < 3; i++ {
		l, ok := lm.TryAcquire(fmt.Sprintf("fp%d", i))
		if !ok {
			t.Fatal("acquire failed")
		}
		leases = append(leases, l)
	}
	lm.Pin("e1")
	lm.Pin("e2")
	if got := settledHeartbeats(1); got != 1 {
		t.Fatalf("3 claims and 2 pins held: %d heartbeat goroutines, want 1", got)
	}
	for _, l := range leases {
		lm.Release(l)
	}
	lm.Unpin("e1")
	lm.Unpin("e2")
	if got := settledGoroutines(base); got > base {
		t.Fatalf("nothing held: %d goroutines, want %d", got, base)
	}

	l, _ := lm.TryAcquire("fp")
	lm.Close()
	if got := settledGoroutines(base); got > base {
		t.Fatalf("after Close: %d goroutines, want %d", got, base)
	}
	lm.Pin("e3")
	if got := settledHeartbeats(0); got != 0 {
		t.Fatalf("a pin after Close restarted the heartbeat: %d heartbeat goroutines", got)
	}
	lm.Unpin("e3")
	lm.Release(l)
}

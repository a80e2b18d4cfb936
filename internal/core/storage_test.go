package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// storedEntry inserts an entry whose output physically exists on fs
// with size bytes, so budget accounting sees real data.
func storedEntry(t *testing.T, repo *Repository, fs dfs.Backend, id, loadPath string, size int, stats EntryStats) *Entry {
	t.Helper()
	return repo.Insert(outputEntry(t, fs, id, loadPath, size, stats))
}

// outputEntry is storedEntry's entry before it is inserted: a claim
// test takes its fingerprint first and publishes it later.
func outputEntry(t *testing.T, fs dfs.Backend, id, loadPath string, size int, stats EntryStats) *Entry {
	t.Helper()
	e := entryFor(t, fmt.Sprintf(`
A = load '%s' as (a, b);
B = foreach A generate a;
store B into 'o';
`, loadPath), id, stats)
	// A sub-job output lives where the driver would have written it:
	// inside the managed namespace, the only place eviction may delete.
	e.OutputPath = "restore/q0/" + id
	if err := fs.WriteFile(e.OutputPath+"/part-00000", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	e.InputVersions = map[string]int64{loadPath: fs.Version(loadPath)}
	return e
}

// noLeaseFiles fails the test if a resolved claim left its lease file
// behind.
func noLeaseFiles(t *testing.T, fs dfs.Backend) {
	t.Helper()
	if n := len(fs.Datasets("locks")); n != 0 {
		t.Errorf("%d lease files outlived their claims", n)
	}
}

func TestClaimProtocolBasics(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{})
	entry := outputEntry(t, fs, "e1", "in", 10, EntryStats{})
	fp := entry.fingerprint()

	c1, won := m.TryClaim(fp)
	if !won {
		t.Fatal("first TryClaim lost")
	}
	if c1.Fingerprint() != fp {
		t.Errorf("claim fingerprint = %s, want %s", c1.Fingerprint(), fp)
	}
	c2, won := m.TryClaim(fp)
	if won {
		t.Fatal("second TryClaim of a held fingerprint won")
	}

	// A waiter wakes with the entry the winner published.
	got := make(chan *Entry, 1)
	go func() {
		e, _ := m.WaitShared(context.Background(), c2)
		got <- e
	}()
	published := repo.Insert(entry)
	m.Commit(c1)
	if e := <-got; e != published {
		t.Fatalf("waiter got %v, want the committed entry", e)
	}

	// Aborting wakes waiters with nil and frees the fingerprint.
	c3, won := m.TryClaim("fp2")
	if !won {
		t.Fatal("TryClaim of a fresh fingerprint lost")
	}
	c4, won := m.TryClaim("fp2")
	if won {
		t.Fatal("second TryClaim of a held fingerprint won")
	}
	done := make(chan struct{})
	var e *Entry
	var err error
	go func() { e, err = m.WaitShared(context.Background(), c4); close(done) }()
	m.Abort(c3)
	<-done
	if e != nil || err != nil {
		t.Fatalf("aborted claim: entry=%v err=%v, want nil/nil", e, err)
	}
	c5, won := m.TryClaim("fp2")
	if !won {
		t.Fatal("fingerprint not released after abort")
	}
	m.Abort(c5)

	st := m.Stats()
	if st.ClaimsGranted != 3 || st.ClaimsCommitted != 1 || st.ClaimsAborted != 2 || st.ActiveClaims != 0 {
		t.Errorf("claim counters = %+v", st)
	}
	if st.ClaimWaits != 2 || st.ClaimsShared != 1 {
		t.Errorf("wait counters = %+v", st)
	}
	noLeaseFiles(t, fs)
}

// TestClaimLostToPublishedEntry: a lease won over a fingerprint whose
// valid entry is already published — a peer materialized it and
// released its lease since the caller's rewrite — is given back and
// reported lost, and the wait returns the entry at once.
func TestClaimLostToPublishedEntry(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{})
	entry := storedEntry(t, repo, fs, "e1", "in", 10, EntryStats{})

	c, won := m.TryClaim(entry.fingerprint())
	if won {
		t.Fatal("TryClaim won a fingerprint whose entry is already published")
	}
	// A cancelled context proves the wait does not block: a held lease
	// would return context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if e, err := m.WaitShared(ctx, c); e != entry || err != nil {
		t.Fatalf("WaitShared = %v, %v; want the published entry at once", e, err)
	}
	st := m.Stats()
	if st.ClaimsGranted != 0 || st.ActiveClaims != 0 || st.ClaimWaits != 1 || st.ClaimsShared != 1 {
		t.Errorf("counters = %+v", st)
	}
	noLeaseFiles(t, fs)
}

func TestClaimWaitRespectsContext(t *testing.T) {
	m := newTestStorage(NewRepository(), dfstest.New(t), StorageConfig{})
	c, _ := m.TryClaim("fp")
	other, won := m.TryClaim("fp")
	if won {
		t.Fatal("expected to lose")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.WaitShared(ctx, other); err != context.Canceled {
		t.Fatalf("WaitShared under cancelled ctx = %v, want context.Canceled", err)
	}
	m.Abort(c)
}

func TestEvictionPolicies(t *testing.T) {
	now := 10 * time.Hour
	mk := func(id string, lastUse time.Duration, bytes int64, ratio float64, reused int) EntryUsage {
		return EntryUsage{
			Entry:       &Entry{ID: id, Stats: EntryStats{InputSimBytes: int64(ratio * 100), OutputSimBytes: 100}},
			Bytes:       bytes,
			LastUse:     lastUse,
			TimesReused: reused,
		}
	}
	usage := []EntryUsage{
		mk("old", 1*time.Hour, 100, 5, 0),     // idle 9h
		mk("mid", 5*time.Hour, 100, 1, 0),     // idle 5h, low benefit
		mk("fresh", 9*time.Hour, 100, 50, 3),  // idle 1h, high benefit
		mk("bulky", 8*time.Hour, 1000, 50, 0), // idle 2h, low density
	}

	t.Run("reuse-window evicts expired outright", func(t *testing.T) {
		p := ReuseWindowPolicy{Window: 4 * time.Hour}
		// reclaim 0: only the expired entries (idle > 4h) go, most idle
		// first.
		got := p.Victims(usage, now, 0)
		if len(got) != 2 || got[0] != "old" || got[1] != "mid" {
			t.Errorf("expired victims = %v, want [old mid]", got)
		}
		// A big reclaim pulls in unexpired entries, LRU order.
		got = p.Victims(usage, now, 300)
		if len(got) != 3 || got[2] != "bulky" {
			t.Errorf("victims = %v, want [old mid bulky]", got)
		}
	})

	t.Run("lru stops at the reclaim target", func(t *testing.T) {
		got := LRUPolicy{}.Victims(usage, now, 150)
		if len(got) != 2 || got[0] != "old" || got[1] != "mid" {
			t.Errorf("victims = %v, want [old mid]", got)
		}
	})

	t.Run("cost-benefit evicts lowest density first", func(t *testing.T) {
		got := CostBenefitPolicy{}.Victims(usage, now, 150)
		// densities: mid=0.01, bulky=0.05, old=0.05, fresh=2 → mid, then
		// one of {bulky, old} (stable sort keeps input order: old before
		// bulky at equal density).
		if len(got) < 2 || got[0] != "mid" {
			t.Errorf("victims = %v, want mid first", got)
		}
		for _, id := range got {
			if id == "fresh" {
				t.Errorf("high-benefit entry evicted: %v", got)
			}
		}
	})
}

func TestEnforceBudgetConvergesAndSparesPins(t *testing.T) {
	for _, policy := range []EvictionPolicy{
		ReuseWindowPolicy{Window: time.Hour},
		LRUPolicy{},
		CostBenefitPolicy{},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			fs := dfstest.New(t)
			repo := NewRepository()
			lm := NewLeaseManager(fs, "locks", "w1", 0, 0)
			t.Cleanup(lm.Close)
			m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 2500, Policy: policy, Leases: lm})
			var pinnedEntry *Entry
			for i := 0; i < 5; i++ {
				e := storedEntry(t, repo, fs, fmt.Sprintf("e%d", i), fmt.Sprintf("in%d", i), 1000,
					EntryStats{InputSimBytes: int64(100 * (i + 1)), OutputSimBytes: 100})
				e.StoredAt = time.Duration(i) * time.Minute
				if i == 0 {
					pinnedEntry = e
					lm.Pin(e.ID)
					lm.Pin(e.ID) // pins nest
				}
			}
			if got := m.UsageBytes(); got != 5000 {
				t.Fatalf("usage = %d, want 5000", got)
			}
			removed := m.EnforceBudget(10 * time.Hour)
			if got := m.UsageBytes(); got > 2500 {
				t.Fatalf("usage after enforcement = %d, want <= 2500 (removed %d)", got, len(removed))
			}
			for _, e := range removed {
				if e.ID == pinnedEntry.ID {
					t.Fatalf("pinned entry evicted")
				}
				if fs.Exists(e.OutputPath) {
					t.Errorf("evicted sub-job output %s not deleted", e.OutputPath)
				}
			}
			if !fs.Exists(pinnedEntry.OutputPath) {
				t.Errorf("pinned entry's output deleted")
			}

			// One unpin of two keeps it spared; after the last, the next
			// pass over budget takes it first: it is the idlest entry and
			// the one of least benefit per byte.
			overBudget := func(i int) []*Entry {
				e := storedEntry(t, repo, fs, fmt.Sprintf("x%d", i), fmt.Sprintf("xin%d", i), 1000,
					EntryStats{InputSimBytes: 100_000, OutputSimBytes: 100})
				e.StoredAt = 9 * time.Hour
				return m.EnforceBudget(10 * time.Hour)
			}
			lm.Unpin(pinnedEntry.ID)
			for _, e := range overBudget(0) {
				if e.ID == pinnedEntry.ID {
					t.Fatal("entry with a remaining pin evicted")
				}
			}
			lm.Unpin(pinnedEntry.ID)
			for _, e := range overBudget(1) {
				if e.ID == pinnedEntry.ID {
					return
				}
			}
			t.Errorf("entry survived the budget pass after its last unpin")
		})
	}
}

func TestEvictUnpinnedSkipsPinned(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	a := storedEntry(t, repo, fs, "a", "in1", 10, EntryStats{})
	b := storedEntry(t, repo, fs, "b", "in2", 10, EntryStats{})
	lm := NewLeaseManager(fs, "locks", "w1", 0, 0)
	t.Cleanup(lm.Close)
	lm.Pin(a.ID)
	lm.Pin(a.ID)
	removed, _ := repo.EvictUnpinned([]string{a.ID, b.ID}, lm)
	if len(removed) != 1 || removed[0].ID != b.ID {
		t.Fatalf("removed = %v, want only b", removed)
	}
	if repo.Lookup(a.Plan) == nil {
		t.Error("pinned entry removed from repository")
	}
	lm.Unpin(a.ID)
	if removed, _ := repo.EvictUnpinned([]string{a.ID}, lm); len(removed) != 0 {
		t.Fatalf("entry with a remaining pin evicted: %v", removed)
	}
	lm.Unpin(a.ID)
	if removed, _ := repo.EvictUnpinned([]string{a.ID}, lm); len(removed) != 1 {
		t.Fatalf("entry survived eviction after its last unpin: %v", removed)
	}
}

func TestVacuumOrphans(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{})

	write := func(path string) {
		if err := fs.WriteFile(path, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	// q1: dead, but its sub-job output is a registered entry and its
	// temp output is an entry input — both namespaces must survive.
	e := entryFor(t, `
A = load 'tmp/q1/j1' as (a, b);
B = foreach A generate a;
store B into 'o';
`, "keep", EntryStats{})
	e.OutputPath = "restore/q1/j1/op3"
	write("restore/q1/j1/op3/part-00000")
	write("tmp/q1/j1/part-00000")
	e.InputVersions = map[string]int64{"tmp/q1/j1": fs.Version("tmp/q1/j1")}
	repo.Insert(e)

	// q2: dead with no entries — everything goes.
	write("restore/q2/j1/op5/part-00000")
	write("tmp/q2/j1/part-00000")
	write("tmp/q2/.staged/out/part-00000")

	// q3: live — untouched even without entries.
	write("tmp/q3/j1/part-00000")

	// User data outside the managed namespaces is never touched.
	write("events/part-00000")

	n, bytes := m.VacuumOrphans(func(qid string) bool { return qid == "q3" })
	if n != 3 || bytes != 12 {
		t.Errorf("reclaimed %d datasets / %d bytes, want 3 / 12", n, bytes)
	}
	for _, p := range []string{"restore/q1/j1/op3", "tmp/q1/j1", "tmp/q3/j1", "events"} {
		if !fs.Exists(p) {
			t.Errorf("%s deleted, want kept", p)
		}
	}
	for _, p := range []string{"restore/q2", "tmp/q2"} {
		if fs.Exists(p) {
			t.Errorf("%s kept, want deleted", p)
		}
	}
}

// TestStoredBytesMeasuredOnce: concurrent budget passes measure each
// entry exactly once; further passes and Stats over the unchanged
// entries make no sizing call on their outputs, and a replacement with
// the same fingerprint and a new output is measured anew, not
// inherited.
func TestStoredBytesMeasuredOnce(t *testing.T) {
	fs := &countingFS{Backend: dfstest.New(t), prefix: "restore/"}
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 10_000, Policy: LRUPolicy{}})
	for i := 0; i < 4; i++ {
		storedEntry(t, repo, fs, fmt.Sprintf("s%d", i), fmt.Sprintf("sin%d", i), 1000, EntryStats{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.EnforceBudget(time.Hour) // under budget: measures every entry
		}()
	}
	wg.Wait()
	if fs.sizing != 4 {
		t.Fatalf("4 concurrent first passes over 4 entries made %d sizing calls, want 4", fs.sizing)
	}
	fs.sizing = 0
	m.EnforceBudget(2 * time.Hour)
	if st := m.Stats(); st.UsageBytes != 4000 {
		t.Fatalf("usage = %d, want 4000", st.UsageBytes)
	}
	if fs.sizing != 0 {
		t.Fatalf("%d Stat/Size/Version calls on unchanged outputs, want 0", fs.sizing)
	}

	old := repo.Entries()[0]
	repo.Insert(&Entry{Plan: old.Plan, OutputPath: "restore/q1/replaced",
		Stats: EntryStats{InputSimBytes: 1, OutputSimBytes: 1}})
	if err := fs.WriteFile("restore/q1/replaced/part-00000", make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	if got := m.UsageBytes(); got != 3042 {
		t.Errorf("usage after replacement = %d, want 3042 (old size inherited?)", got)
	}
}

// registeringPolicy evicts the least recently used entry and, the first
// time it is asked, registers a 500-byte entry the way a concurrent
// query would between the manager's usage snapshot and its eviction.
type registeringPolicy struct {
	t    *testing.T
	repo *Repository
	fs   dfs.Backend
	done bool
}

func (p *registeringPolicy) Name() string { return "registering" }

func (p *registeringPolicy) Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string {
	if !p.done {
		p.done = true
		storedEntry(p.t, p.repo, p.fs, "late", "late-in", 500, EntryStats{})
	}
	return oneVictim{}.Victims(usage, now, reclaim)
}

// TestEvictedBytesIgnoresConcurrentRegistration: EvictedBytes counts the
// bytes of what was evicted, not the drop in usage, so an entry
// registered during the pass cannot shrink it.
func TestEvictedBytesIgnoresConcurrentRegistration(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 2600, Policy: &registeringPolicy{t: t, repo: repo, fs: fs}})
	for i := 0; i < 3; i++ {
		e := storedEntry(t, repo, fs, fmt.Sprintf("e%d", i), fmt.Sprintf("in%d", i), 1000, EntryStats{})
		e.StoredAt = time.Duration(i) * time.Minute
	}
	if removed := m.EnforceBudget(time.Hour); len(removed) != 1 {
		t.Fatalf("evicted %d entries, want 1", len(removed))
	}
	if st := m.Stats(); st.EvictedBytes != 1000 || st.UsageBytes != 2500 {
		t.Fatalf("evicted %d bytes leaving %d, want 1000 leaving 2500", st.EvictedBytes, st.UsageBytes)
	}
}

// TestNamespacePathNormalizesRoot checks the single layout helper:
// writers (driver) and the sweeper (janitor) must agree on paths even
// when the configured root carries stray slashes.
func TestNamespacePathNormalizes(t *testing.T) {
	for _, root := range []string{"sys", "sys/", "/sys", "/sys/"} {
		if got := NamespacePath(root, "tmp", "q1"); got != "sys/tmp/q1" {
			t.Errorf("NamespacePath(%q) = %q, want sys/tmp/q1", root, got)
		}
	}
	if got := NamespacePath("", "restore", "q2"); got != "restore/q2" {
		t.Errorf("NamespacePath(\"\") = %q, want restore/q2", got)
	}
	// The driver builds its per-query prefixes through the same helper,
	// so a raw root with a trailing slash cannot divorce its layout
	// from the janitor's.
	d := &Driver{store: newTestStorage(NewRepository(), dfstest.New(t), StorageConfig{NamespaceRoot: "sys/"})}
	if got := d.namespace("tmp", "q3"); got != "sys/tmp/q3" {
		t.Errorf("driver namespace = %q, want sys/tmp/q3", got)
	}
}

// TestNamespaceRootConfinesOrphanSweep checks the configurable
// namespace root: with a root set, the janitor reclaims only
// "<root>/restore" and "<root>/tmp" query namespaces — user datasets
// that happen to live under top-level tmp/ or restore/ are untouched.
func TestNamespaceRootConfinesOrphanSweep(t *testing.T) {
	fs := dfstest.New(t)
	m := newTestStorage(NewRepository(), fs, StorageConfig{NamespaceRoot: "sys"})

	write := func(path string) {
		if err := fs.WriteFile(path, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	// User datasets shadowing the legacy reserved prefixes.
	write("tmp/mydata/part-00000")
	write("restore/archive/part-00000")
	// Dead-query namespaces under the configured root.
	write("sys/tmp/q1/j1/part-00000")
	write("sys/restore/q1/j1/op2/part-00000")
	// A live query's namespace under the root.
	write("sys/tmp/q2/j1/part-00000")

	n, _ := m.VacuumOrphans(func(qid string) bool { return qid == "q2" })
	if n != 2 {
		t.Errorf("reclaimed %d datasets, want 2", n)
	}
	for _, p := range []string{"tmp/mydata", "restore/archive", "sys/tmp/q2/j1"} {
		if !fs.Exists(p) {
			t.Errorf("%s deleted, want kept", p)
		}
	}
	for _, p := range []string{"sys/tmp/q1", "sys/restore/q1"} {
		if fs.Exists(p) {
			t.Errorf("%s kept, want deleted", p)
		}
	}
}

// BenchmarkEnforceBudget measures one over-budget sweep across a
// populated repository (the storage half of the CI benchmark job).
func BenchmarkEnforceBudget(b *testing.B) {
	fs := dfstest.New(b)
	repo := NewRepository()
	for i := 0; i < 200; i++ {
		sig := benchSig(b, fmt.Sprintf(`
A = load 'in%d' as (a, b);
B = foreach A generate a;
store B into 'o';
`, i))
		e := &Entry{Plan: sig, OutputPath: fmt.Sprintf("stored/e%d", i),
			Stats: EntryStats{InputSimBytes: int64(i + 1), OutputSimBytes: 1}}
		if err := fs.WriteFile(e.OutputPath+"/part-00000", make([]byte, 100)); err != nil {
			b.Fatal(err)
		}
		repo.Insert(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A budget above usage: the sweep scans and accounts but evicts
		// nothing, so the repository stays populated across iterations.
		m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 1 << 40, Policy: CostBenefitPolicy{}})
		m.EnforceBudget(time.Hour)
	}
}

// BenchmarkClaims measures the uncontended claim round-trip every
// storing job pays.
func BenchmarkClaims(b *testing.B) {
	m := newTestStorage(NewRepository(), dfstest.New(b), StorageConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, won := m.TryClaim("fp")
		if !won {
			b.Fatal("lost an uncontended claim")
		}
		m.Commit(c)
	}
}

// victimList evicts exactly the entries it names, whatever the budget.
type victimList struct{ ids []string }

func (p *victimList) Name() string { return "victim-list" }

func (p *victimList) Victims([]EntryUsage, time.Duration, int64) []string { return p.ids }

// TestReleasedSet: an output path is released — deleted and counted in
// EvictedBytes — only with the last entry that points at it, once, by
// budget eviction and by the vacuum alike. A replacement that moves an
// entry to a new path releases nothing: the old path is left to the
// janitor's orphan sweep.
func TestReleasedSet(t *testing.T) {
	// shared inserts two entries over different inputs whose outputs are
	// one 1000-byte path.
	shared := func(t *testing.T, fs dfs.Backend, repo *Repository) (a, b *Entry) {
		a = storedEntry(t, repo, fs, "a", "in-a", 1000, EntryStats{})
		nb := outputEntry(t, fs, "b", "in-b", 1, EntryStats{})
		nb.OutputPath = a.OutputPath
		return a, repo.Insert(nb)
	}
	t.Run("evict", func(t *testing.T) {
		fs := &countingFS{Backend: dfstest.New(t), prefix: "restore/q0/a"}
		repo := NewRepository()
		policy := &victimList{}
		m := newTestStorage(repo, fs, StorageConfig{MaxBytes: 1, Policy: policy})
		a, b := shared(t, fs, repo)
		policy.ids = []string{a.ID}
		m.EnforceBudget(time.Hour)
		if st := m.Stats(); st.Evictions != 1 || st.EvictedBytes != 0 || fs.deletes != 0 || !fs.Exists(a.OutputPath) {
			t.Fatalf("first of two evicted: %d evictions, %d bytes, %d deletes; want 1, 0, 0 and the output kept",
				st.Evictions, st.EvictedBytes, fs.deletes)
		}
		policy.ids = []string{b.ID}
		m.EnforceBudget(time.Hour)
		if st := m.Stats(); st.Evictions != 2 || st.EvictedBytes != 1000 || fs.deletes != 1 || fs.Exists(a.OutputPath) {
			t.Fatalf("last evicted: %d evictions, %d bytes, %d deletes; want 2, 1000, 1 and the output gone",
				st.Evictions, st.EvictedBytes, fs.deletes)
		}
	})
	t.Run("vacuum", func(t *testing.T) {
		fs := &countingFS{Backend: dfstest.New(t), prefix: "restore/q0/a"}
		repo := NewRepository()
		m := newTestStorage(repo, fs, StorageConfig{})
		a, b := shared(t, fs, repo)
		for i, in := range []string{"in-a", "in-b"} {
			if err := fs.WriteFile(in+"/part-00000", []byte("x\n")); err != nil {
				t.Fatal(err)
			}
			removed, released := repo.Vacuum(fs, time.Hour, 0, nil, nil)
			want := []*Entry{a, b}[i]
			if len(removed) != 1 || removed[0] != want {
				t.Fatalf("vacuum %d removed %v, want %s", i, removed, want.ID)
			}
			if got := len(released); got != i {
				t.Fatalf("vacuum %d released %d entries, want %d", i, got, i)
			}
			m.deleteOwnedOutputs(released, nil)
			if fs.deletes != i || fs.Exists(a.OutputPath) != (i == 0) {
				t.Fatalf("vacuum %d: %d deletes, output exists %v", i, fs.deletes, fs.Exists(a.OutputPath))
			}
		}
	})
	t.Run("sweep", func(t *testing.T) {
		fs := &countingFS{Backend: dfstest.New(t), prefix: "restore/q0/a"}
		repo := NewRepository()
		m := newTestStorage(repo, fs, StorageConfig{})
		shared(t, fs, repo)
		for i, in := range []string{"in-a", "in-b"} {
			if err := fs.WriteFile(in+"/part-00000", []byte("x\n")); err != nil {
				t.Fatal(err)
			}
			if res := m.Sweep(time.Hour, 0); res.EntriesVacuumed != 1 || fs.deletes != i {
				t.Fatalf("sweep %d vacuumed %d entries with %d deletes, want 1 and %d", i, res.EntriesVacuumed, fs.deletes, i)
			}
		}
	})
	t.Run("replacement", func(t *testing.T) {
		fs := dfstest.New(t)
		repo := NewRepository()
		a := storedEntry(t, repo, fs, "a", "in-a", 1000, EntryStats{})
		moved := outputEntry(t, fs, "a2", "in-a", 10, EntryStats{})
		moved.Plan = a.Plan
		ne := repo.Insert(moved)
		if ne.ID != a.ID || ne.OutputPath == a.OutputPath {
			t.Fatalf("replacement %s at %s, want %s at a new path", ne.ID, ne.OutputPath, a.ID)
		}
		removed, released := repo.EvictUnpinned([]string{a.ID}, nil)
		if len(removed) != 1 || len(released) != 1 || released[0].OutputPath != ne.OutputPath {
			t.Fatalf("evicting the replacement released %v, want only %s", released, ne.OutputPath)
		}
		if !fs.Exists(a.OutputPath) {
			t.Fatal("the replaced path was deleted")
		}
	})
}

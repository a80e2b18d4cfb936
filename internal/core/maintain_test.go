package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
	"repro/internal/obs"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// validityFS records the paths of every Exists and Version call: the
// DFS calls Valid makes.
type validityFS struct {
	dfs.Backend
	mu     sync.Mutex
	probed map[string]int
}

func (v *validityFS) note(path string) {
	v.mu.Lock()
	v.probed[path]++
	v.mu.Unlock()
}

func (v *validityFS) reset() {
	v.mu.Lock()
	v.probed = map[string]int{}
	v.mu.Unlock()
}

func (v *validityFS) Exists(path string) bool {
	v.note(path)
	return v.Backend.Exists(path)
}

func (v *validityFS) Version(path string) int64 {
	v.note(path)
	return v.Backend.Version(path)
}

// versionedEntry stores an entry over its own input whose output
// version is recorded, so replacing the output invalidates it.
func versionedEntry(t *testing.T, repo *Repository, fs dfs.Backend, id string) *Entry {
	t.Helper()
	in := "in/" + id
	if err := fs.WriteFile(in+"/part-00000", []byte("1\t2\n")); err != nil {
		t.Fatal(err)
	}
	e := outputEntry(t, fs, id, in, 10, EntryStats{})
	e.OutputVersion = fs.Version(e.OutputPath)
	return repo.Insert(e)
}

// TestMaintainValidatesOnlyChangedPaths: the post-query pass checks
// only the entries the DFS change feed moved. An entry whose output was
// replaced by a rename is removed without one Exists
// or Version call on the 200 unrelated entries, whose own writes are in
// the feed at the versions they recorded; a non-mergeable entry whose
// input a raw DFS write changed — a write no engine call reports — is
// removed by the next pass too.
func TestMaintainValidatesOnlyChangedPaths(t *testing.T) {
	fs := &validityFS{Backend: dfstest.New(t), probed: map[string]int{}}
	repo := NewRepository()
	m := NewStorageManager(repo, fs, StorageConfig{})
	var others []*Entry
	for i := range 200 {
		others = append(others, versionedEntry(t, repo, fs, fmt.Sprintf("u%03d", i)))
	}
	victim := versionedEntry(t, repo, fs, "v")

	// Another query's output replaces the victim's.
	if err := fs.WriteFile("restore/q1/v/part-00000", []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Rename("restore/q1/v", victim.OutputPath); err != nil {
		t.Fatal(err)
	}
	fs.reset()
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(victim.fingerprint()) != nil {
		t.Fatal("the entry whose output was replaced survived maintenance")
	}
	if repo.Len() != len(others) {
		t.Fatalf("%d entries after maintenance, want %d", repo.Len(), len(others))
	}
	for _, e := range others {
		for _, p := range append([]string{e.OutputPath}, "in/"+e.ID) {
			if n := fs.probed[p]; n != 0 {
				t.Fatalf("maintenance made %d Exists/Version calls on %s, an unchanged entry's path", n, p)
			}
		}
	}

	// A raw write bypasses the engine; the feed still reports it.
	stale := others[0]
	wf := compileJobs(t, fmt.Sprintf("A = load 'in/%s' as (a, b);\nB = foreach A generate a;\nstore B into 'o';\n", stale.ID), "tmp/mt")
	rw := &Rewriter{Repo: repo, FS: fs}
	if ev := rw.RewriteJob(cloneJob(wf.Jobs[0]), true, obs.NoSpan); len(ev) == 0 {
		t.Fatal("the valid entry was not reused; test premise broken")
	}
	if err := fs.WriteFile("in/"+stale.ID+"/part-00001", []byte("3\t4\n")); err != nil {
		t.Fatal(err)
	}
	fs.reset()
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(stale.fingerprint()) != nil {
		t.Fatal("maintenance kept the entry whose input a raw write changed")
	}
	for _, e := range others[1:] {
		for _, p := range append([]string{e.OutputPath}, "in/"+e.ID) {
			if n := fs.probed[p]; n != 0 {
				t.Fatalf("maintenance made %d Exists/Version calls on %s, an unchanged entry's path", n, p)
			}
		}
	}
}

// TestMaintainAfterFeedOverrun: a manager whose cursor fell more than
// FeedRing changes behind cannot tell what changed, so its next pass
// checks every entry. It removes the entries a rewrite the feed no
// longer holds killed, keeps the ones an append left refreshable, and
// the next run refreshes them.
func TestMaintainAfterFeedOverrun(t *testing.T) {
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive})
	if err := pigmix.GenerateNetTraffic(h.fs, pigmix.NetTrafficDays, 150, 42); err != nil {
		t.Fatal(err)
	}
	n1, err := pigmix.Get("N1")
	if err != nil {
		t.Fatal(err)
	}
	h.write(t, "in/b", tuple.Tuple{"k", int64(1)})
	h.run(t, n1.Script)
	h.run(t, "A = load 'in/b' as (k, v);\nD = distinct A;\nstore D into 'out/b';\n")
	over := func(path string) int {
		n := 0
		for _, e := range allEntries(h.repo) {
			if _, ok := e.InputVersions[path]; ok {
				n++
			}
		}
		return n
	}
	if over("in/b") == 0 || over(pigmix.PathNetTraffic) == 0 {
		t.Fatal("nothing stored over an input; test premise broken")
	}

	if _, err := pigmix.AppendNetTrafficDay(h.fs, 150, 42); err != nil {
		t.Fatal(err)
	}
	h.write(t, "in/b", tuple.Tuple{"k", int64(2)})
	for i := range dfs.FeedRing {
		if err := h.fs.WriteFile("noise", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.driver.store.Maintain(h.driver.Now(), 0)
	if n := over("in/b"); n != 0 {
		t.Fatalf("%d entries over the rewritten input survived the full pass", n)
	}
	if over(pigmix.PathNetTraffic) == 0 {
		t.Fatal("the full pass removed the entries the append left refreshable")
	}
	if res := h.run(t, n1.Script); h.driver.DeltaStats().Refreshes != 1 || res.JobsRun != 1 {
		t.Fatalf("after the full pass: %d refreshes and %d jobs run, want 1 and 1", h.driver.DeltaStats().Refreshes, res.JobsRun)
	}
}

// TestMaintainRechecksSparedAndFoldedEntries: a pass checks an entry
// again, whatever the feed says, when an earlier pass spared it for its
// pin, and when it was folded in from the journal after the feed
// reported the change that killed it.
func TestMaintainRechecksSparedAndFoldedEntries(t *testing.T) {
	fs := dfstest.New(t)
	dlA, repoA := openDurable(t, fs, "sys/repo")
	_, repoB := openDurable(t, fs, "sys/repo")
	m := NewStorageManager(repoA, fs, StorageConfig{})
	pinned := versionedEntry(t, repoA, fs, "p")
	m.cfg.Leases.Pin(pinned.ID)
	folded := versionedEntry(t, repoB, fs, "f")
	for _, in := range []string{"in/p", "in/f"} {
		if err := fs.WriteFile(in+"/part-00000", []byte("9\t9\n")); err != nil {
			t.Fatal(err)
		}
	}
	m.Maintain(time.Hour, 0)
	if repoA.lookupFP(pinned.fingerprint()) == nil {
		t.Fatal("maintenance removed a pinned entry")
	}
	dlA.Refresh()
	if repoA.lookupFP(folded.fingerprint()) == nil {
		t.Fatal("the peer's entry was not folded in; test premise broken")
	}
	m.cfg.Leases.Unpin(pinned.ID)
	m.Maintain(time.Hour, 0)
	for _, e := range []*Entry{pinned, folded} {
		if repoA.lookupFP(e.fingerprint()) != nil {
			t.Fatalf("entry %s survived the pass its recheck was due at", e.OutputPath)
		}
	}
}

// TestInsertRechecksChangeAPassConsumed: an input changes after a query
// read the versions its entry records, and a concurrent pass reads that
// change before the entry is published. Publishing finds the change in
// the feed and leaves the entry to the next pass, which removes it.
func TestInsertRechecksChangeAPassConsumed(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := NewStorageManager(repo, fs, StorageConfig{})
	if err := fs.WriteFile("in/x/part-00000", []byte("1\t2\n")); err != nil {
		t.Fatal(err)
	}
	since := m.feedHead()
	e := outputEntry(t, fs, "x", "in/x", 10, EntryStats{})
	e.OutputVersion = fs.Version(e.OutputPath)
	if err := fs.WriteFile("in/x/part-00000", []byte("3\t4\n")); err != nil {
		t.Fatal(err)
	}
	m.Maintain(time.Hour, 0) // reads the rewrite; e is not published yet
	e = m.insert(e, since)
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(e.fingerprint()) != nil {
		t.Fatal("an entry published after the pass that read its input's rewrite survived the next pass")
	}
}

// TestMaintainJudgesUnversionedOutputs: an entry that did not record its
// output's version is a suspect whenever the feed reports its output,
// and the pass judges it against the DFS: kept while the output exists,
// removed once it is deleted.
func TestMaintainJudgesUnversionedOutputs(t *testing.T) {
	fs := dfstest.New(t)
	repo := NewRepository()
	m := NewStorageManager(repo, fs, StorageConfig{})
	if err := fs.WriteFile("in/u/part-00000", []byte("1\t2\n")); err != nil {
		t.Fatal(err)
	}
	e := storedEntry(t, repo, fs, "u", "in/u", 10, EntryStats{})
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(e.fingerprint()) == nil {
		t.Fatal("maintenance removed an entry whose output exists")
	}
	if err := fs.Delete(e.OutputPath); err != nil {
		t.Fatal(err)
	}
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(e.fingerprint()) != nil {
		t.Fatal("maintenance kept an entry whose output was deleted")
	}
}

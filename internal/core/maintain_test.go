package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
	"repro/internal/obs"
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
// only the entries over datasets the engine reported changed. An entry
// whose output was replaced through Engine.RenameDataset is removed
// without one Exists or Version call on the 200 unrelated entries; an
// entry invalidated by a raw DFS write, which the engine never sees,
// survives the pass but is never reused, and the janitor's full Sweep
// removes it.
func TestMaintainValidatesOnlyChangedPaths(t *testing.T) {
	fs := &validityFS{Backend: dfstest.New(t), probed: map[string]int{}}
	repo := NewRepository()
	m := newTestStorage(repo, fs, StorageConfig{})
	var others []*Entry
	for i := range 200 {
		others = append(others, versionedEntry(t, repo, fs, fmt.Sprintf("u%03d", i)))
	}
	victim := versionedEntry(t, repo, fs, "v")

	// Another query's output replaces the victim's.
	if err := fs.WriteFile("restore/q1/v/part-00000", []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.eng.RenameDataset("restore/q1/v", victim.OutputPath); err != nil {
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

	// A raw write bypasses the engine: nothing reports it.
	stale := others[0]
	wf := compileJobs(t, fmt.Sprintf("A = load 'in/%s' as (a, b);\nB = foreach A generate a;\nstore B into 'o';\n", stale.ID), "tmp/mt")
	rw := &Rewriter{Repo: repo, FS: fs}
	if ev := rw.RewriteJob(cloneJob(wf.Jobs[0]), true, obs.NoSpan); len(ev) == 0 {
		t.Fatal("the valid entry was not reused; test premise broken")
	}
	if err := fs.WriteFile("in/"+stale.ID+"/part-00001", []byte("3\t4\n")); err != nil {
		t.Fatal(err)
	}
	m.Maintain(time.Hour, 0)
	if repo.lookupFP(stale.fingerprint()) == nil {
		t.Fatal("maintenance removed an entry no change was reported for")
	}
	if ev := rw.RewriteJob(cloneJob(wf.Jobs[0]), true, obs.NoSpan); len(ev) != 0 {
		t.Fatalf("the invalid entry was reused: %+v", ev)
	}
	if res := m.Sweep(time.Hour, 0); res.EntriesVacuumed != 1 || repo.lookupFP(stale.fingerprint()) != nil {
		t.Fatalf("the full sweep vacuumed %d entries and kept the invalid one: %v", res.EntriesVacuumed, repo.lookupFP(stale.fingerprint()) != nil)
	}
}

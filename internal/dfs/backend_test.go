package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// forEachBackend runs fn against every Backend implementation, so
// semantic contracts are asserted once and enforced on both. T is
// *testing.T or *testing.B.
func forEachBackend[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, fn func(t T, fs Backend)) {
	t.Run("memory", func(t T) { fn(t, New()) })
	t.Run("disk", func(t T) {
		d, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		fn(t, d)
	})
}

// TestCreateCommittedVersion checks both backends' Create writers
// expose the dataset version their Close committed, captured inside
// the commit's critical section: after an uncontended Close it equals
// Version, and a later same-name rewrite moves Version past it.
func TestCreateCommittedVersion(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		w := fs.Create("ds/part-00000")
		if _, err := w.Write([]byte("a\n")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cv, ok := w.(interface{ CommittedVersion() int64 })
		if !ok {
			t.Fatal("Create writer does not expose CommittedVersion")
		}
		v := cv.CommittedVersion()
		if v == 0 || v != fs.Version("ds") {
			t.Fatalf("CommittedVersion = %d, Version = %d", v, fs.Version("ds"))
		}
		if err := fs.WriteFile("ds/part-00000", []byte("b\n")); err != nil {
			t.Fatal(err)
		}
		if fs.Version("ds") <= v {
			t.Fatalf("rewrite did not move Version past the commit: %d <= %d", fs.Version("ds"), v)
		}
	})
}

// TestCreateCopiesOnce: a Create writer commits its own buffer, so a
// part's bytes are copied once on their way in (by Write), not a second
// time by Close; and a closed writer refuses further use.
func TestCreateCopiesOnce(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcde\n"), 4096) // 64 KiB
	forEachBackend(t, func(t *testing.T, fs Backend) {
		var ms runtime.MemStats
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			w := fs.Create(fmt.Sprintf("ds/part-%05d", i))
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		if limit := uint64(len(data)) * 5 / 4; least > limit {
			t.Fatalf("committing a %d-byte part allocated %d bytes, want at most %d", len(data), least, limit)
		}

		w := fs.Create("ds/part-closed")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); !errors.Is(err, ErrClosed) {
			t.Fatalf("Write after Close: %v, want ErrClosed", err)
		}
		if err := w.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("second Close: %v, want ErrClosed", err)
		}
		if got, err := fs.ReadFile("ds/part-closed"); err != nil || len(got) != 0 {
			t.Fatalf("closed empty part holds %d bytes (%v), want 0", len(got), err)
		}
	})
}

// TestRenameBumpsNestedDatasetVersions is the regression for the
// nested-dataset rename bug: Rename bumped only the destination's own
// dataset, so datasets nested under a renamed tree kept their old
// versions — a reader caching a version before the move, and any
// clobbered destination dataset, saw "unchanged" over replaced
// content. Every moved and clobbered dataset must bump inside the
// rename.
func TestRenameBumpsNestedDatasetVersions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if err := fs.WriteFile("stage/j/op2/part-00000", []byte("new2")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("stage/j/op3/part-00000", []byte("new3")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("final/j/op2/part-00000", []byte("old2")); err != nil {
			t.Fatal(err)
		}
		vClobbered := fs.Version("final/j/op2")
		vFresh := fs.Version("final/j/op3") // never written: 0
		vMoved := fs.Version("stage/j/op2")

		if _, err := fs.Rename("stage/j", "final/j"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if got, _ := fs.ReadFile("final/j/op2/part-00000"); string(got) != "new2" {
			t.Fatalf("clobbered nested dataset content = %q, want new2", got)
		}
		if v := fs.Version("final/j/op2"); v <= vClobbered {
			t.Errorf("clobbered nested dataset version %d did not bump past %d", v, vClobbered)
		}
		if v := fs.Version("final/j/op3"); v <= vFresh {
			t.Errorf("moved-in nested dataset version %d did not bump past %d", v, vFresh)
		}
		// The vacated source datasets bump too (delete-bumps-version
		// tombstone): a reader holding the pre-move version must lose a
		// CAS against the emptied dataset.
		if v := fs.Version("stage/j/op2"); v <= vMoved {
			t.Errorf("vacated source dataset version %d did not bump past %d", v, vMoved)
		}
		if fs.Exists("stage/j") {
			t.Error("source tree survived the rename")
		}
	})
}

// TestDeleteBumpsNestedDatasetVersions is the regression for the
// Rule-4 hole in tree deletes: Delete bumped only the version of the
// path it was given, so deleting an input's parent directory left the
// version of the input dataset itself unchanged and every repository
// entry derived from it "valid" over data that no longer existed.
// Every dataset that loses a file must bump, and the bump must survive
// whatever makes the backend durable.
func TestDeleteBumpsNestedDatasetVersions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		for _, p := range []string{"a/b/part-00000", "a/b/part-00001", "a/c/d/part-00000", "a/rec", "z/part-00000"} {
			if err := fs.WriteFile(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		nested := []string{"a/b", "a/c/d", "a/rec"}
		before := map[string]int64{}
		for _, ds := range append(nested, "a", "z") {
			before[ds] = fs.Version(ds)
		}
		if err := fs.Delete("a"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		for _, ds := range append(nested, "a") {
			if fs.Exists(ds) {
				t.Errorf("%s survived the tree delete", ds)
			}
			if v := fs.Version(ds); v <= before[ds] {
				t.Errorf("Version(%s) = %d after its files were deleted, was %d", ds, v, before[ds])
			}
		}
		if v := fs.Version("z"); v != before["z"] {
			t.Errorf("Version(z) moved %d -> %d; the delete did not touch it", before["z"], v)
		}
	})
}

// TestRenameOverlapRejected: a tree cannot move into itself or onto its
// own ancestor — the moves would feed on each other — and the refusal
// leaves everything as it was. Renaming a path to itself is harmless.
func TestRenameOverlapRejected(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("a/b/part-00000", []byte("x"))
		fs.WriteFile("a/rec", []byte("y"))
		v := fs.Version("a/b")
		for _, pair := range [][2]string{{"a", "a/b"}, {"a/b", "a"}} {
			if _, err := fs.Rename(pair[0], pair[1]); err == nil || errors.Is(err, ErrNotExist) {
				t.Errorf("Rename(%s, %s) = %v, want an overlap error", pair[0], pair[1], err)
			}
		}
		if got := fs.List("a"); len(got) != 2 || fs.Version("a/b") != v {
			t.Errorf("refused rename changed state: %v, version %d -> %d", got, v, fs.Version("a/b"))
		}
		if _, err := fs.Rename("a", "a"); err != nil {
			t.Errorf("Rename(a, a): %v", err)
		}
		if got, _ := fs.ReadFile("a/rec"); string(got) != "y" || len(fs.List("a")) != 2 {
			t.Errorf("self-rename lost data: %q, %v", got, fs.List("a"))
		}
	})
}

// TestDiskReadReportsRealError: only a path the index does not hold is
// ErrNotExist. An indexed file whose object cannot be read says what
// the operating system said, so the engine reports a storage failure
// rather than a missing input.
func TestDiskReadReportsRealError(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	defer d.Close()
	if err := d.WriteFile("in/part-00000", []byte("rows")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "objects", "in", "part-00000")); err != nil {
		t.Fatal(err)
	}
	_, rerr := d.ReadFile("in/part-00000")
	_, oerr := d.Open("in/part-00000")
	for _, err := range []error{rerr, oerr} {
		var pe *PathError
		if err == nil || errors.Is(err, ErrNotExist) || !errors.As(err, &pe) {
			t.Errorf("read of an indexed file with a missing object = %v, want a PathError that is not ErrNotExist", err)
		}
	}
	if _, err := d.ReadFile("never/written"); !errors.Is(err, ErrNotExist) {
		t.Errorf("read of a never-written path = %v, want ErrNotExist", err)
	}
}

// parityOp is one step of a mutation history; the string it returns
// (error or CAS verdict) must agree across backends.
type parityOp func(fs Backend) string

// scriptedHistory is the life of a query's files: job output, an
// overwrite, a journal record deleted, the staged output renamed into
// the repository, a lease taken and released by CAS.
func scriptedHistory() []parityOp {
	var ops []parityOp
	for _, w := range []struct{ p, data string }{
		{"tmp/q1/j1/part-00000", "a\n"},
		{"tmp/q1/j1/part-00001", "bb\n"},
		{"restore/q1/op2/part-00000", "ccc\n"},
		{"sys/repo/MANIFEST", "manifest-v1"},
		{"sys/repo/log/r1", "rec1"},
		{"tmp/q1/j1/part-00000", "a2\n"}, // overwrite
	} {
		ops = append(ops, func(fs Backend) string { return fmt.Sprint(fs.WriteFile(w.p, []byte(w.data))) })
	}
	ops = append(ops,
		func(fs Backend) string { return fmt.Sprint(fs.Delete("sys/repo/log/r1")) },
		func(fs Backend) string { return fmt.Sprint(fs.Rename("tmp/q1/j1", "restore/q1/op3")) },
		func(fs Backend) string {
			return fmt.Sprint(fs.WriteFileIf("sys/locks/fp", []byte("lease"), fs.Version("sys/locks/fp")))
		},
		func(fs Backend) string {
			return fmt.Sprint(fs.RemoveFileIf("sys/locks/fp", fs.Version("sys/locks/fp")))
		},
	)
	// The shapes a directory tree can get wrong, one by one.
	write := func(p string) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.WriteFile(p, []byte(p))) }
	}
	remove := func(p string) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.Delete(p)) }
	}
	rename := func(src, dst string) parityOp {
		return func(fs Backend) string { return fmt.Sprint(fs.Rename(src, dst)) }
	}
	return append(ops,
		// The only file of a deep directory goes: so does every ancestor.
		write("deep/e/f/g/part-00000"),
		remove("deep/e/f/g/part-00000"),
		// m/x is a file and a directory, and the directory holds part
		// files beside a standalone one: a dataset is not a directory.
		write("m/x"), write("m/x/part-00000"), write("m/x/rec"),
		// Datasets nested under a dataset: m > m/x > m/x/y.
		write("m/part-00000"), write("m/x/y/part-00000"),
		// One part file moves inside its dataset.
		rename("m/x/part-00000", "m/x/part-00007"),
		// A tree moves onto a populated tree, replacing all of it.
		write("n/x/part-00000"), write("n/x/z/part-00000"), write("n/rec"),
		rename("m", "n"),
		// Deleting a name that is both takes the file and the tree.
		remove("n/x"),
	)
}

// parityPaths is the namespace the random history plays in: nested and
// leaf directories, part files and standalone files in each, so deletes
// and renames hit trees, single datasets, files, storage-class
// crossings, occupied destinations and each other's tombstones.
func parityPaths() (dirs, files []string) {
	dirs = []string{"a", "a/b", "a/b/c", "a/d", "e", "e/f", "sys/log", "deep/x/y/z"}
	for _, d := range dirs {
		files = append(files, d+"/part-00000", d+"/part-00001", d+"/rec")
	}
	return dirs, append(files, "top")
}

// randomHistory is a seeded sequence of every mutation the contract
// has, over parityPaths. CAS expectations are the live version or one
// behind it, so both verdicts occur.
func randomHistory(seed int64, steps int) []parityOp {
	rng := rand.New(rand.NewSource(seed))
	dirs, files := parityPaths()
	any := append(append([]string(nil), dirs...), files...)
	// Writes also land on two directory names, which makes each a file
	// and a directory at once. They stay out of files, so the file-onto-
	// file renames below never move a tree onto a part-file name.
	writable := append(append([]string(nil), files...), "a/b", "e")
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	ops := make([]parityOp, steps)
	for i := range ops {
		data := []byte(strings.Repeat("x", rng.Intn(40)) + fmt.Sprint(i))
		stale := int64(rng.Intn(2))
		switch k := rng.Intn(10); {
		case k < 3:
			p := pick(writable)
			ops[i] = func(fs Backend) string { return fmt.Sprint(fs.WriteFile(p, data)) }
		case k < 4:
			p := pick(writable)
			ops[i] = func(fs Backend) string {
				w := fs.Create(p)
				w.Write(data[:len(data)/2])
				w.Write(data[len(data)/2:])
				err := w.Close()
				return fmt.Sprint(err, w.(interface{ CommittedVersion() int64 }).CommittedVersion())
			}
		case k < 6:
			p := pick(any)
			ops[i] = func(fs Backend) string { return fmt.Sprint(fs.Delete(p)) }
		case k < 8:
			// Trees and files move to directory names, files also onto
			// files; a tree never moves onto a part-file name, which
			// would have to be a file and a directory at once.
			src, dst := pick(any), pick(dirs)
			if k == 7 {
				src, dst = pick(files), pick(files)
			}
			ops[i] = func(fs Backend) string { return fmt.Sprint(fs.Rename(src, dst)) }
		case k < 9:
			p := pick(writable)
			ops[i] = func(fs Backend) string { return fmt.Sprint(fs.WriteFileIf(p, data, fs.Version(p)-stale)) }
		default:
			p := pick(writable)
			ops[i] = func(fs Backend) string { return fmt.Sprint(fs.RemoveFileIf(p, fs.Version(p)-stale)) }
		}
	}
	return ops
}

// probePaths is every path worth asking about in ref's present state:
// the fixed ones, every live file, every dataset that ever had a
// version (tombstones included), every ancestor prefix of all of those,
// a never-written path and the empty path.
func probePaths(ref *flatFS, fixed []string) []string {
	set := map[string]bool{"": true, "never/written": true}
	add := func(p string) {
		for ; !set[p]; p = p[:max(strings.LastIndex(p, "/"), 0)] {
			set[p] = true
		}
	}
	for _, p := range fixed {
		add(p)
	}
	for p := range ref.files {
		add(p)
	}
	for ds := range ref.version {
		add(ds)
	}
	return sortedKeys(set)
}

// observation is one namespace read and what it returned.
type observation struct {
	what string
	val  any
}

// observe records every observable of the namespace — listings, per-file
// sizes, dataset sets, Exists, Size, Stat and the exact Version of
// every probe path, live, deleted or never written, then the content of
// every file.
func observe(fs Backend, probes []string) []observation {
	obs := []observation{{"TotalBytes", fs.TotalBytes()}}
	for _, p := range probes {
		b, v, leaf := fs.Stat(p)
		obs = append(obs,
			observation{"List " + p, fs.List(p)},
			observation{"FileStats " + p, fs.FileStats(p)},
			observation{"Datasets " + p, fs.Datasets(p)},
			observation{"Exists " + p, fs.Exists(p)},
			observation{"Size " + p, fs.Size(p)},
			observation{"Version " + p, fs.Version(p)},
			observation{"Stat " + p, []any{b, v, leaf}})
	}
	for _, p := range fs.List("") {
		data, err := fs.ReadFile(p)
		obs = append(obs, observation{"ReadFile " + p, fmt.Sprint(string(data), err)})
	}
	return obs
}

// requireSameState fails at the first observation of got that differs
// from the reference's.
func requireSameState(t *testing.T, when string, got Backend, probes []string, want []observation) {
	t.Helper()
	for i, g := range observe(got, probes) {
		if i >= len(want) || !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("%s: got %v, reference %v", when, g, want[min(i, len(want)-1)])
		}
	}
}

// underReaders runs the mutation op on fs while two other goroutines
// make every namespace read, so the race detector sees the tree read
// while it is rewritten.
func underReaders(fs Backend, probes []string, op parityOp) string {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(probes); i += 2 {
				p := probes[i]
				fs.List(p)
				fs.FileStats(p)
				fs.Datasets(p)
				fs.Exists(p)
				fs.Size(p)
				fs.Stat(p)
				fs.TotalBytes()
			}
		}()
	}
	defer wg.Wait()
	return op(fs)
}

// TestBackendParity drives identical mutation histories through both
// backends and the flat-scan reference and requires each step's outcome
// and the whole observable state to agree after every step, and again
// after the disk backend is closed and reopened. The namespace and the
// version rule are one implementation (index); this is the check that
// its directory tree answers exactly what a scan of every file would —
// Delete and Rename remove, move and bump the same sets — and that
// persistence, the only thing Disk adds, neither bends them nor forgets
// a bump.
func TestBackendParity(t *testing.T) {
	dirs, files := parityPaths()
	fixed := append(append([]string{"tmp/q1/j1", "restore/q1/op2", "restore/q1/op3",
		"sys/repo/MANIFEST", "sys/repo/log/r1", "sys/locks/fp"}, dirs...), files...)
	for name, history := range map[string][]parityOp{
		"scripted": scriptedHistory(),
		"random":   randomHistory(1, 1200),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ref, mem, disk := newFlatFS(), New(), openDiskT(t, dir)
			for i, op := range history {
				w := op(ref)
				if g := underReaders(mem, dirs, op); g != w {
					t.Fatalf("step %d: memory %s, reference %s", i, g, w)
				}
				if g := underReaders(disk, dirs, op); g != w {
					t.Fatalf("step %d: disk %s, reference %s", i, g, w)
				}
				if g, d, w := mem.BytesWritten(), disk.BytesWritten(), ref.BytesWritten(); g != w || d != w {
					t.Fatalf("step %d: BytesWritten: memory %d, disk %d, reference %d", i, g, d, w)
				}
				probes := probePaths(ref, fixed)
				want := observe(ref, probes)
				requireSameState(t, fmt.Sprintf("step %d: memory", i), mem, probes, want)
				requireSameState(t, fmt.Sprintf("step %d: disk", i), disk, probes, want)
			}
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := openDiskT(t, dir)
			defer reopened.Close()
			probes := probePaths(ref, fixed)
			requireSameState(t, "after reopen", reopened, probes, observe(ref, probes))
			if name != "scripted" {
				return
			}
			// Deleted and vacated datasets carry tombstone versions:
			// "absent" is never "version zero" once a dataset existed.
			for _, ds := range []string{"sys/repo/log/r1", "tmp/q1/j1", "sys/locks/fp", "deep/e/f/g"} {
				if mem.Exists(ds) || mem.Version(ds) == 0 {
					t.Errorf("tombstone %s: exists %v, version %d", ds, mem.Exists(ds), mem.Version(ds))
				}
			}
			// The emptied deep directory took its ancestors with it.
			if mem.Exists("deep") || mem.Datasets("deep") != nil || mem.List("deep") != nil {
				t.Errorf("emptied directory survives: exists %v, datasets %v, files %v",
					mem.Exists("deep"), mem.Datasets("deep"), mem.List("deep"))
			}
		})
	}
}

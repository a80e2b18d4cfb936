package dfs

import (
	"errors"
	"io"
	"testing"
)

func TestCreateReadRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if err := fs.WriteFile("data/users/part-00000", []byte("alice\nbob\n")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := fs.ReadFile("data/users/part-00000")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if string(got) != "alice\nbob\n" {
			t.Errorf("read %q", got)
		}
	})
}

func TestOpenMissing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		_, err := fs.Open("nope")
		if err == nil {
			t.Fatal("expected error")
		}
		var pe *PathError
		if !errors.As(err, &pe) || !errors.Is(err, ErrNotExist) {
			t.Errorf("error %v should be a PathError wrapping ErrNotExist", err)
		}
	})
}

func TestListAndSize(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("out/q1/part-00000", []byte("aaaa"))
		fs.WriteFile("out/q1/part-00001", []byte("bb"))
		fs.WriteFile("out/q2/part-00000", []byte("c"))

		files := fs.List("out/q1")
		if len(files) != 2 {
			t.Fatalf("List = %v, want 2 files", files)
		}
		if files[0] != "out/q1/part-00000" || files[1] != "out/q1/part-00001" {
			t.Errorf("List not sorted: %v", files)
		}
		if n := fs.Size("out/q1"); n != 6 {
			t.Errorf("Size(out/q1) = %d, want 6", n)
		}
		if n := fs.Size("out"); n != 7 {
			t.Errorf("Size(out) = %d, want 7", n)
		}
	})
}

func TestStat(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("out/q1/part-00000", []byte("aaaa"))
		fs.WriteFile("out/q1/part-00001", []byte("bb"))
		fs.WriteFile("out/q2/part-00000", []byte("c"))

		// A dataset is a leaf: its version covers every byte counted.
		n, v, leaf := fs.Stat("out/q1")
		if n != 6 || !leaf {
			t.Errorf("Stat(out/q1) = %d bytes leaf=%v, want 6 leaf=true", n, leaf)
		}
		if v != fs.Version("out/q1") {
			t.Errorf("Stat version %d != Version %d", v, fs.Version("out/q1"))
		}
		// A part file is a leaf too, versioned by its dataset.
		if n, v, leaf = fs.Stat("out/q1/part-00001"); n != 2 || !leaf || v != fs.Version("out/q1") {
			t.Errorf("Stat(part file) = %d/%d/%v", n, v, leaf)
		}
		// A prefix of several datasets totals them but is not a leaf: its
		// nested datasets version independently.
		if n, _, leaf = fs.Stat("out"); n != 7 || leaf {
			t.Errorf("Stat(out) = %d bytes leaf=%v, want 7 leaf=false", n, leaf)
		}
		// Missing paths: zero bytes, version zero, not a leaf.
		if n, v, leaf = fs.Stat("nope"); n != 0 || v != 0 || leaf {
			t.Errorf("Stat(nope) = %d/%d/%v", n, v, leaf)
		}
		// Writing bumps the version Stat reports.
		_, v0, _ := fs.Stat("out/q1")
		fs.WriteFile("out/q1/part-00002", []byte("dd"))
		if n, v1, _ := fs.Stat("out/q1"); n != 8 || v1 <= v0 {
			t.Errorf("Stat after write = %d bytes v%d (was v%d)", n, v1, v0)
		}
	})
}

func TestExists(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("a/b/part-00000", []byte("x"))
		for _, p := range []string{"a/b/part-00000", "a/b", "a"} {
			if !fs.Exists(p) {
				t.Errorf("Exists(%q) = false", p)
			}
		}
		if fs.Exists("a/c") {
			t.Errorf("Exists(a/c) = true")
		}
	})
}

func TestDeleteTree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("d/part-00000", []byte("x"))
		fs.WriteFile("d/part-00001", []byte("y"))
		if err := fs.Delete("d"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if fs.Exists("d") {
			t.Errorf("directory survived Delete")
		}
		if err := fs.Delete("d"); err == nil {
			t.Errorf("deleting missing path should error")
		}
	})
}

func TestVersionBumpsOnWriteAndDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if v := fs.Version("data/users"); v != 0 {
			t.Fatalf("fresh version = %d, want 0", v)
		}
		fs.WriteFile("data/users/part-00000", []byte("a"))
		v1 := fs.Version("data/users")
		if v1 == 0 {
			t.Fatal("version did not bump on write")
		}
		// Version is per dataset: part files map to the directory.
		if fs.Version("data/users/part-00000") != v1 {
			t.Errorf("part file should share the dataset version")
		}
		fs.WriteFile("data/users/part-00001", []byte("b"))
		v2 := fs.Version("data/users")
		if v2 <= v1 {
			t.Errorf("version did not advance: %d -> %d", v1, v2)
		}
		fs.Delete("data/users")
		if fs.Version("data/users") <= v2 {
			t.Errorf("version did not advance on delete")
		}
	})
}

func TestByteMeters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("f", []byte("12345"))
		if fs.BytesWritten() != 5 {
			t.Errorf("BytesWritten = %d, want 5", fs.BytesWritten())
		}
		r, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		io.ReadAll(r)
		if fs.BytesRead() != 5 {
			t.Errorf("BytesRead = %d, want 5", fs.BytesRead())
		}
		if fs.TotalBytes() != 5 {
			t.Errorf("TotalBytes = %d, want 5", fs.TotalBytes())
		}
	})
}

func TestCreateOverwrites(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("x", []byte("old"))
		fs.WriteFile("x", []byte("new!"))
		got, _ := fs.ReadFile("x")
		if string(got) != "new!" {
			t.Errorf("read %q after overwrite", got)
		}
		if fs.TotalBytes() != 4 {
			t.Errorf("TotalBytes = %d, want 4", fs.TotalBytes())
		}
	})
}

func TestPathNormalization(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("/p/q/", []byte("z"))
		if !fs.Exists("p/q") {
			t.Errorf("leading/trailing slashes should normalize")
		}
	})
}

func TestRenameMovesDataset(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("stage/out/part-00000", []byte("a\n"))
		fs.WriteFile("stage/out/part-00001", []byte("b\n"))
		if _, err := fs.Rename("stage/out", "final/out"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if fs.Exists("stage/out") {
			t.Errorf("source still exists after rename")
		}
		got := fs.List("final/out")
		if len(got) != 2 {
			t.Fatalf("destination files = %v, want 2 parts", got)
		}
		data, err := fs.ReadFile("final/out/part-00001")
		if err != nil || string(data) != "b\n" {
			t.Errorf("part-00001 = %q, %v", data, err)
		}
	})
}

func TestRenameReplacesDestination(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("dst/part-00000", []byte("old0\n"))
		fs.WriteFile("dst/part-00001", []byte("old1\n"))
		fs.WriteFile("dst/part-00002", []byte("old2\n"))
		fs.WriteFile("src/part-00000", []byte("new\n"))
		v := fs.Version("dst")
		if _, err := fs.Rename("src", "dst"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		// Replacement is total: no stale parts of the old dataset survive.
		got := fs.List("dst")
		if len(got) != 1 || got[0] != "dst/part-00000" {
			t.Fatalf("destination = %v, want exactly the renamed part", got)
		}
		data, _ := fs.ReadFile("dst/part-00000")
		if string(data) != "new\n" {
			t.Errorf("content = %q", data)
		}
		if fs.Version("dst") <= v {
			t.Errorf("destination version did not bump")
		}
	})
}

func TestRenameMissingSource(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if _, err := fs.Rename("nope", "dst"); err == nil {
			t.Errorf("renaming a missing path should error")
		}
	})
}

func TestRenameSingleFile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("one", []byte("x"))
		if _, err := fs.Rename("one", "two"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if fs.Exists("one") || !fs.Exists("two") {
			t.Errorf("single-file rename broken")
		}
	})
}

// TestDatasetByteAccounting proves the per-dataset meters stay exact
// through every mutation path: write, overwrite, delete, and rename
// over an occupied destination.
func TestDatasetByteAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("a/b/part-00000", []byte("12345"))
		fs.WriteFile("a/b/part-00001", []byte("678"))
		fs.WriteFile("a/c/part-00000", []byte("12"))
		fs.WriteFile("top", []byte("1"))

		if got := fs.Size("a/b"); got != 8 {
			t.Errorf("Size(a/b) = %d, want 8", got)
		}
		if got := fs.Size("a"); got != 10 {
			t.Errorf("Size(a) = %d, want 10", got)
		}
		if got := fs.Size("a/b/part-00001"); got != 3 {
			t.Errorf("Size of one part file = %d, want 3", got)
		}
		if got := fs.TotalBytes(); got != 11 {
			t.Errorf("TotalBytes = %d, want 11", got)
		}

		// Overwrite shrinks in place.
		fs.WriteFile("a/b/part-00000", []byte("1"))
		if got := fs.Size("a/b"); got != 4 {
			t.Errorf("Size(a/b) after overwrite = %d, want 4", got)
		}

		// Rename over an occupied destination replaces its accounting.
		if _, err := fs.Rename("a/b", "a/c"); err != nil {
			t.Fatal(err)
		}
		if got := fs.Size("a/c"); got != 4 {
			t.Errorf("Size(a/c) after rename = %d, want 4", got)
		}
		if got := fs.Size("a/b"); got != 0 {
			t.Errorf("Size(a/b) after rename = %d, want 0", got)
		}

		// Delete clears the meter and the dataset listing.
		if err := fs.Delete("a/c"); err != nil {
			t.Fatal(err)
		}
		if got := fs.TotalBytes(); got != 1 {
			t.Errorf("TotalBytes after delete = %d, want 1", got)
		}
		got := fs.Datasets("")
		if len(got) != 1 || got[0] != "top" {
			t.Errorf("Datasets = %v, want [top]", got)
		}
	})
}

// TestDatasets lists dataset directories, not files, under a prefix.
func TestDatasets(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		fs.WriteFile("restore/q1/j1/op2/part-00000", []byte("x"))
		fs.WriteFile("restore/q1/j1/op3/part-00000", []byte("x"))
		fs.WriteFile("restore/q2/j1/op2/part-00000", []byte("x"))
		fs.WriteFile("tmp/q1/j1/part-00000", []byte("x"))

		got := fs.Datasets("restore/q1")
		want := []string{"restore/q1/j1/op2", "restore/q1/j1/op3"}
		if len(got) != len(want) {
			t.Fatalf("Datasets(restore/q1) = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Datasets[%d] = %q, want %q", i, got[i], want[i])
			}
		}
		if got := fs.Datasets("restore"); len(got) != 3 {
			t.Errorf("Datasets(restore) = %v, want 3 datasets", got)
		}
		if got := fs.Datasets("nope"); len(got) != 0 {
			t.Errorf("Datasets(nope) = %v, want none", got)
		}
	})
}

func TestWriteFileIfCAS(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		// Create against the never-written version.
		v0 := fs.Version("cas/file")
		v1, ok := fs.WriteFileIf("cas/file", []byte("one"), v0)
		if !ok || v1 == v0 {
			t.Fatalf("initial CAS write failed (ok=%v v=%d)", ok, v1)
		}
		// Stale expectation loses; nothing is written.
		if _, ok := fs.WriteFileIf("cas/file", []byte("loser"), v0); ok {
			t.Fatal("stale CAS write succeeded")
		}
		if got, _ := fs.ReadFile("cas/file"); string(got) != "one" {
			t.Fatalf("lost CAS mutated the file: %q", got)
		}
		// Fresh expectation wins.
		if _, ok := fs.WriteFileIf("cas/file", []byte("two"), v1); !ok {
			t.Fatal("up-to-date CAS write failed")
		}
		if got, _ := fs.ReadFile("cas/file"); string(got) != "two" {
			t.Fatalf("CAS write not applied: %q", got)
		}
		// Deletion bumps the version, so "absent" is not "version zero":
		// a writer that observed the pre-delete state must lose.
		vDel := fs.Version("cas/file")
		if err := fs.Delete("cas/file"); err != nil {
			t.Fatal(err)
		}
		if _, ok := fs.WriteFileIf("cas/file", []byte("zombie"), vDel); ok {
			t.Fatal("CAS against the pre-delete version succeeded")
		}
	})
}

func TestRemoveFileIf(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		v0 := fs.Version("lock/a")
		v, ok := fs.WriteFileIf("lock/a", []byte("lease"), v0)
		if !ok {
			t.Fatal("setup write failed")
		}
		if fs.RemoveFileIf("lock/a", v-1) {
			t.Fatal("stale conditional delete succeeded")
		}
		if !fs.Exists("lock/a") {
			t.Fatal("stale delete removed the file")
		}
		if !fs.RemoveFileIf("lock/a", v) {
			t.Fatal("up-to-date conditional delete failed")
		}
		if fs.Exists("lock/a") {
			t.Fatal("file survived conditional delete")
		}
		if fs.RemoveFileIf("lock/a", v) {
			t.Fatal("deleting an absent file succeeded")
		}
	})
}

func TestWriteFaultTearsAndDrops(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fs Backend) {
		if err := fs.WriteFile("f/data", []byte("intact")); err != nil {
			t.Fatal(err)
		}
		// Torn write: a prefix commits, the error surfaces, accounting and
		// version reflect the torn content.
		fs.SetWriteFault(func(path string, data []byte) ([]byte, error) {
			return data[:2], io.ErrShortWrite
		})
		if err := fs.WriteFile("f/data", []byte("replacement")); err == nil {
			t.Fatal("torn write reported no error")
		}
		if got, _ := fs.ReadFile("f/data"); string(got) != "re" {
			t.Fatalf("torn write committed %q, want the 2-byte prefix", got)
		}
		if n := fs.Size("f/data"); n != 2 {
			t.Fatalf("accounting after torn write = %d bytes, want 2", n)
		}
		// Dropped write: nothing committed at all.
		fs.SetWriteFault(func(path string, data []byte) ([]byte, error) {
			return nil, io.ErrClosedPipe
		})
		if err := fs.WriteFile("f/data", []byte("x")); err == nil {
			t.Fatal("dropped write reported no error")
		}
		if got, _ := fs.ReadFile("f/data"); string(got) != "re" {
			t.Fatalf("dropped write mutated the file: %q", got)
		}
		fs.SetWriteFault(nil)
		if err := fs.WriteFile("f/data", []byte("healed")); err != nil {
			t.Fatal(err)
		}
		if got, _ := fs.ReadFile("f/data"); string(got) != "healed" {
			t.Fatalf("write after clearing the fault: %q", got)
		}
	})
}

package dfs_test

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// create writes path through Create in the given pieces.
func create(t *testing.T, fs dfs.Backend, path string, pieces ...string) {
	t.Helper()
	w := fs.Create(path)
	for _, p := range pieces {
		if _, err := w.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readString(t *testing.T, fs dfs.Backend, path string) string {
	t.Helper()
	s, _, err := dfs.ReadString(fs, path)
	if err != nil {
		t.Fatalf("ReadString(%s): %v", path, err)
	}
	return s
}

// TestReadStringMatchesReadFile holds ReadString to ReadFile's bytes
// for empty, single-write and multi-write files, as part files and as
// files that are their own dataset (Disk keeps those in its record log).
func TestReadStringMatchesReadFile(t *testing.T) {
	fs := dfstest.New(t)
	create(t, fs, "ds/part-00000")
	create(t, fs, "ds/part-00001", "one\twrite\n")
	create(t, fs, "ds/part-00002", "a\t1\n", "b\t2\n", strings.Repeat("c", 5000)+"\n")
	if err := fs.WriteFile("ds/part-00003", []byte("write\tfile\n")); err != nil {
		t.Fatal(err)
	}
	create(t, fs, "meta", "x", "y")
	for _, p := range append(fs.List("ds"), "meta") {
		want, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := readString(t, fs, p); got != string(want) {
			t.Errorf("%s: ReadString = %q, ReadFile = %q", p, got, want)
		}
	}
}

// TestReadStringSharesFSContents: on the in-memory backend a read is
// the committed bytes themselves, so two reads of one file share them.
func TestReadStringSharesFSContents(t *testing.T) {
	fs := dfs.New()
	create(t, fs, "ds/part-00000", "u1\tterm\n", "u2\tterm\n")
	a, b := readString(t, fs, "ds/part-00000"), readString(t, fs, "ds/part-00000")
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("two reads of one FS file copied its contents")
	}
}

// TestReadStringReportsShared: only FS's committed contents are shared;
// Disk's read buffer and a string copied from a plain reader are memory
// of the read's own.
func TestReadStringReportsShared(t *testing.T) {
	disk, err := dfs.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := dfs.New()
	create(t, mem, "ds/part-00000", "u1\tterm\n")
	create(t, disk, "ds/part-00000", "u1\tterm\n")
	for _, c := range []struct {
		name string
		fs   dfs.Backend
		want bool
	}{{"FS", mem, true}, {"Disk", disk, false}, {"plain reader over FS", plainOpen{mem}, false}} {
		s, shared, err := dfs.ReadString(c.fs, "ds/part-00000")
		if err != nil || s != "u1\tterm\n" || shared != c.want {
			t.Errorf("%s: ReadString = %q, shared %v, %v; want shared %v", c.name, s, shared, err, c.want)
		}
	}
}

// TestReadStringOutlivesMutations checks the immutability the sharing
// relies on: a string read before an overwrite, Delete or Rename of its
// path keeps its bytes.
func TestReadStringOutlivesMutations(t *testing.T) {
	fs := dfstest.New(t)
	const v1, v2 = "first\tversion\n", "second\tversion!\n"
	create(t, fs, "ds/part-00000", v1)
	before := readString(t, fs, "ds/part-00000")
	create(t, fs, "ds/part-00000", v2)
	overwritten := readString(t, fs, "ds/part-00000")
	if _, err := fs.Rename("ds", "moved"); err != nil {
		t.Fatal(err)
	}
	renamed := readString(t, fs, "moved/part-00000")
	if err := fs.Delete("moved"); err != nil {
		t.Fatal(err)
	}
	create(t, fs, "moved/part-00000", strings.Repeat("z", len(v2)))
	runtime.GC()
	for _, c := range []struct{ got, want string }{{before, v1}, {overwritten, v2}, {renamed, v2}} {
		if c.got != c.want {
			t.Errorf("read string changed to %q, want %q", c.got, c.want)
		}
	}
}

func TestReadStringMissing(t *testing.T) {
	fs := dfstest.New(t)
	if _, _, err := dfs.ReadString(fs, "no/part-00000"); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

// plainOpen is a wrapping backend whose Open hides the built-in reader
// behind a plain io.Reader.
type plainOpen struct{ dfs.Backend }

func (p plainOpen) Open(path string) (io.Reader, error) {
	r, err := p.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return struct{ io.Reader }{r}, nil
}

func TestReadStringPlainReader(t *testing.T) {
	fs := dfstest.New(t)
	want := strings.Repeat("row\t1\n", 20000)
	create(t, fs, "ds/part-00000", want)
	if got := readString(t, plainOpen{fs}, "ds/part-00000"); got != want {
		t.Errorf("ReadString through a plain reader = %d bytes, want %d", len(got), len(want))
	}
}

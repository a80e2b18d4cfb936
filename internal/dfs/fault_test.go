package dfs_test

import (
	"errors"
	"io"
	"testing"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// tearAll tears the next write, whatever its path.
func tearAll(string) bool { return true }

// TestWriteFaultTearsAndDrops holds dfstest.Faulty's write faults on
// both backends: a torn write commits half its bytes, surfaces an
// error, and the accounting follows the torn content; a dropped write
// commits nothing; the backend under a crashed Faulty is untouched and
// still takes writes.
func TestWriteFaultTearsAndDrops(t *testing.T) {
	dfs.ForEachBackend(t, func(t *testing.T, fs dfs.Backend) {
		if err := fs.WriteFile("f/data", []byte("intact")); err != nil {
			t.Fatal(err)
		}
		tearing := &dfstest.Faulty{Backend: fs}
		tearing.Tear(tearAll)
		if err := tearing.WriteFile("f/data", []byte("replacement")); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("torn write reported %v, want a short write", err)
		}
		if got, _ := fs.ReadFile("f/data"); string(got) != "repla" {
			t.Fatalf("torn write committed %q, want the 5-byte prefix", got)
		}
		if n := fs.Size("f/data"); n != 5 {
			t.Fatalf("accounting after torn write = %d bytes, want 5", n)
		}
		// The tear is spent: the next write passes whole.
		if err := tearing.WriteFile("f/other", []byte("whole")); err != nil {
			t.Fatal(err)
		}

		dead := &dfstest.Faulty{Backend: fs}
		dead.CrashAfter(0)
		if err := dead.WriteFile("f/data", []byte("x")); err == nil {
			t.Fatal("dropped write reported no error")
		}
		w := dead.Create("f/data")
		w.Write([]byte("y"))
		if err := w.Close(); err == nil {
			t.Fatal("dropped Create reported no error on Close")
		}
		if got, _ := dead.ReadFile("f/data"); string(got) != "repla" {
			t.Fatalf("dropped write mutated the file: %q", got)
		}
		if err := fs.WriteFile("f/data", []byte("healed")); err != nil {
			t.Fatal(err)
		}
		if got, _ := dead.ReadFile("f/data"); string(got) != "healed" {
			t.Fatalf("write under the crashed wrapper: %q", got)
		}
	})
}

// TestWriteFileIfFaultInjection holds the CAS path to the same faults:
// a dropped CAS write leaves nothing (version unchanged); a torn one
// commits the prefix and bumps the version but reports failure, like a
// writer that died mid-commit.
func TestWriteFileIfFaultInjection(t *testing.T) {
	dfs.ForEachBackend(t, func(t *testing.T, fs dfs.Backend) {
		v0 := fs.Version("cas/f")

		// Dropped: nothing hit storage, the version is unchanged.
		dead := &dfstest.Faulty{Backend: fs}
		dead.CrashAfter(0)
		if v, ok := dead.WriteFileIf("cas/f", []byte("one"), v0); ok || v != v0 {
			t.Fatalf("dropped CAS write: (v=%d ok=%v), want (%d, false)", v, ok, v0)
		}
		if fs.Exists("cas/f") {
			t.Fatal("dropped CAS write left content behind")
		}

		// Torn: the prefix commits and consumes the version slot, but the
		// writer is told it failed.
		tearing := &dfstest.Faulty{Backend: fs}
		tearing.Tear(tearAll)
		v1, ok := tearing.WriteFileIf("cas/f", []byte("payload"), v0)
		if ok {
			t.Fatal("torn CAS write reported success")
		}
		if v1 == v0 {
			t.Fatal("torn CAS write did not consume the version slot")
		}
		if got, _ := fs.ReadFile("cas/f"); string(got) != "pay" {
			t.Fatalf("torn CAS committed %q, want the 3-byte prefix", got)
		}

		// The slot is consumed: the stale expectation loses, the torn
		// version wins.
		if _, ok := fs.WriteFileIf("cas/f", []byte("stale"), v0); ok {
			t.Fatal("CAS against the pre-tear version succeeded")
		}
		if _, ok := fs.WriteFileIf("cas/f", []byte("fresh"), v1); !ok {
			t.Fatal("CAS against the torn version failed")
		}
		if got, _ := fs.ReadFile("cas/f"); string(got) != "fresh" {
			t.Fatalf("post-fault CAS content = %q", got)
		}
	})
}

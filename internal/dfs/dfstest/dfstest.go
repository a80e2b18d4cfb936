// Package dfstest is test support for code written against dfs.Backend:
// the backend a suite runs over (New) and one that can crash (Faulty).
package dfstest

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/dfs"
)

// New returns a fresh backend for one test: the in-memory FS, or a Disk
// in a per-test directory when RESTORE_TEST_BACKEND is "disk".
func New(t testing.TB) dfs.Backend {
	if os.Getenv("RESTORE_TEST_BACKEND") != "disk" {
		return dfs.New()
	}
	d, err := dfs.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// ErrCrashed is what a mutation dropped by a crashed Faulty returns.
var ErrCrashed = errors.New("dfstest: process crashed")

// Faulty is a dfs.Backend that can die. It counts the six mutating
// calls — Create's Close, WriteFile, WriteFileIf, RemoveFileIf, Delete
// and Rename — and passes every call, reads included, to the embedded
// backend unless CrashAfter or Tear says otherwise.
type Faulty struct {
	dfs.Backend
	mu        sync.Mutex
	mutations int
	crashAt   int // the first mutation dropped, counted from 1; 0 = none
	tear      func(path string) bool
}

// Mutations counts the mutating calls seen, dropped and torn ones too.
func (f *Faulty) Mutations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutations
}

// CrashAfter lets the next n mutations through and drops every later
// one, as a dead process's: a dropped mutation changes nothing and fails.
func (f *Faulty) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.mutations + n + 1
}

// Tear makes the next write whose path match accepts commit half its
// bytes and report failure, as a write cut off mid-commit does.
func (f *Faulty) Tear(match func(path string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tear = match
}

// step counts one mutation of path (nil data: a delete or rename) and
// returns what it commits with its fault: ErrCrashed, or a torn half.
func (f *Faulty) step(path string, data []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mutations++
	if f.crashAt > 0 && f.mutations >= f.crashAt {
		return nil, ErrCrashed
	}
	if data != nil && f.tear != nil && f.tear(path) {
		f.tear = nil
		return data[:len(data)/2], io.ErrShortWrite
	}
	return data, nil
}

// Create returns a writer whose Close is one WriteFile.
func (f *Faulty) Create(path string) io.WriteCloser { return &writer{f: f, path: path} }

func (f *Faulty) WriteFile(path string, data []byte) error {
	data, fault := f.step(path, data)
	if fault == ErrCrashed {
		return fault
	}
	return cmp.Or(f.Backend.WriteFile(path, data), fault)
}

// WriteFileIf returns (Version(path), false) when dropped; a torn one
// consumes the version slot with its prefix and reports failure.
func (f *Faulty) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	data, fault := f.step(path, data)
	if fault == ErrCrashed {
		return f.Backend.Version(path), false
	}
	v, ok := f.Backend.WriteFileIf(path, data, expect)
	return v, ok && fault == nil
}

func (f *Faulty) RemoveFileIf(path string, expect int64) bool {
	_, fault := f.step(path, nil)
	return fault == nil && f.Backend.RemoveFileIf(path, expect)
}

func (f *Faulty) Delete(path string) error {
	if _, fault := f.step(path, nil); fault != nil {
		return fault
	}
	return f.Backend.Delete(path)
}

func (f *Faulty) Rename(oldPath, newPath string) (int64, error) {
	if _, fault := f.step(newPath, nil); fault != nil {
		return 0, fault
	}
	return f.Backend.Rename(oldPath, newPath)
}

// writer buffers a Create's bytes for its Close.
type writer struct {
	bytes.Buffer
	f    *Faulty
	path string
}

func (w *writer) Close() error { return w.f.WriteFile(w.path, w.Bytes()) }

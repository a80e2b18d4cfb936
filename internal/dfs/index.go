package dfs

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// index is the namespace both backends share: which files exist and how
// big they are, the modification version of every dataset, the live
// byte and file totals per dataset, the traffic meters and the
// write-fault hook. Every namespace read of the Backend contract, the
// one version-bump rule and the change a Delete or Rename makes are
// defined here, once; FS and Disk embed it and add only where content
// lives and how a mutation is made to last.
type index struct {
	mu    sync.RWMutex
	files map[string]*file
	// version is per dataset and moves by +1 per mutation. Entries are
	// never removed: a deleted dataset keeps its last version as a
	// tombstone, so "absent" stays distinguishable from "never written".
	version map[string]int64
	// datasets holds the live byte and file totals of every dataset,
	// maintained on every mutation, so size queries and the storage
	// manager's budget accounting iterate datasets instead of files.
	datasets map[string]*dsInfo

	// The byte meters are atomics, not mu-guarded fields, so the read
	// path can meter under the shared read lock instead of serializing
	// every concurrent reader against writers.
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	// writeFault, when non-nil, intercepts every file commit (the Close
	// of a Create, WriteFile, and the WriteFileIf CAS path): it may
	// truncate the committed bytes and/or return an error, simulating a
	// crash that tears a write mid-flight. Test-only; see SetWriteFault.
	writeFault func(path string, data []byte) ([]byte, error)
}

// file is one live file. FS keeps every file's content in data; Disk
// keeps only the content of files stored in its record log (isInline)
// and leaves data nil for files backed by an object on disk. A file is
// immutable once installed: a commit replaces the *file.
type file struct {
	size int64
	data []byte
}

// dsInfo is the live accounting of one dataset.
type dsInfo struct {
	bytes int64
	files int
}

func newIndex() index {
	return index{
		files:    make(map[string]*file),
		version:  make(map[string]int64),
		datasets: make(map[string]*dsInfo),
	}
}

// insert installs f at p, replacing any file already there, and keeps
// the dataset accounting exact (mu held). It does not touch versions.
func (ix *index) insert(p string, f *file) {
	ix.drop(p)
	ix.files[p] = f
	ds := datasetOf(p)
	info := ix.datasets[ds]
	if info == nil {
		info = &dsInfo{}
		ix.datasets[ds] = info
	}
	info.bytes += f.size
	info.files++
}

// drop removes the file at p, if any (mu held). A dataset whose last
// file is removed leaves the accounting, so Datasets reports only live
// data. It does not touch versions.
func (ix *index) drop(p string) {
	f, ok := ix.files[p]
	if !ok {
		return
	}
	delete(ix.files, p)
	ds := datasetOf(p)
	info := ix.datasets[ds]
	info.bytes -= f.size
	info.files--
	if info.files == 0 {
		delete(ix.datasets, ds)
	}
}

// next is the version ds moves to on its next mutation — the one bump
// rule. Disk writes it to its record log before bump makes it current.
func (ix *index) next(ds string) int64 { return ix.version[ds] + 1 }

func (ix *index) bump(ds string) int64 {
	v := ix.next(ds)
	ix.version[ds] = v
	return v
}

// put is the index half of a file commit (mu held): install f at p,
// meter the bytes and bump p's dataset, returning its new version.
func (ix *index) put(p string, f *file) int64 {
	ix.insert(p, f)
	ix.bytesWritten.Add(f.size)
	return ix.bump(datasetOf(p))
}

// fault passes a commit's bytes through the write-fault hook (mu held).
// A nil result with an error is a dropped write: nothing may reach
// storage. A non-nil result with an error is a torn write: the result
// is committed and the error still surfaces to the writer.
func (ix *index) fault(p string, data []byte) ([]byte, error) {
	if ix.writeFault == nil {
		return data, nil
	}
	return ix.writeFault(p, data)
}

// SetWriteFault installs (or, with nil, removes) a commit interceptor
// for crash-injection tests: every file commit passes its bytes through
// fn, which may truncate them (returning a prefix simulates a torn
// write: the prefix is committed and the error surfaces to the writer)
// or drop them entirely (nil bytes plus an error: nothing hits the
// disk). Production code never sets it.
func (ix *index) SetWriteFault(fn func(path string, data []byte) ([]byte, error)) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.writeFault = fn
}

// writer buffers the bytes of a Create; Close hands them to the
// backend's commit.
type writer struct {
	path   string
	buf    bytes.Buffer
	commit func(p string, data []byte) (int64, error)
	ver    int64
}

func (w *writer) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *writer) Close() (err error) {
	w.ver, err = w.commit(w.path, append([]byte(nil), w.buf.Bytes()...))
	return err
}

// CommittedVersion returns the dataset version this writer's Close
// committed, captured inside the commit's critical section — so it is
// exactly the version of this write, with no window for a concurrent
// writer's bump to slip in between commit and observation. Zero before
// Close.
func (w *writer) CommittedVersion() int64 { return w.ver }

// change is what one Delete, Rename or RemoveFileIf does to the
// namespace, computed without doing it. FS applies it; Disk writes it
// through to disk first and then applies the same change.
type change struct {
	removed []string // files that cease to exist, sorted
	moved   []move   // files that change path, sorted by source
	touched []string // datasets whose version bumps, sorted
}

// move relocates one file. f is the file installed at dst — the one
// found at src, unless the backend had to re-home its content.
type move struct {
	src, dst string
	f        *file
}

// under returns the live file paths at p and under p/, sorted (mu
// held).
func (ix *index) under(p string) []string {
	var out []string
	if _, ok := ix.files[p]; ok {
		out = append(out, p)
	}
	prefix := p + "/"
	for name := range ix.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// planDelete computes the removal of the file or tree at path (mu
// held): every file at or under it goes, and every dataset that loses
// a file — path's own and each one nested under it — is touched, so an
// entry derived from any of them stops being valid (repository Rule 4).
func (ix *index) planDelete(path string) (change, error) {
	p := clean(path)
	c := change{removed: ix.under(p)}
	if len(c.removed) == 0 {
		return c, &PathError{Op: "delete", Path: path, Err: ErrNotExist}
	}
	touched := map[string]bool{datasetOf(p): true}
	for _, name := range c.removed {
		touched[datasetOf(name)] = true
	}
	c.touched = sortedKeys(touched)
	return c, nil
}

var errRenameOverlap = errors.New("source and destination overlap")

// planRename computes the move of the file or tree at oldPath to
// newPath, replacing whatever is stored there (mu held). Touched is
// every dataset whose contents change: the source and destination
// roots, every dataset a file moves out of, the dataset each of those
// lands in, and every destination dataset clobbered by the replacement
// — so Stat/Version/Valid see moved and overwritten outputs as
// modified, not stale or brand-new at version zero. A path cannot be
// renamed into or onto its own tree.
func (ix *index) planRename(oldPath, newPath string) (change, error) {
	op, np := clean(oldPath), clean(newPath)
	if strings.HasPrefix(np, op+"/") || strings.HasPrefix(op, np+"/") {
		return change{}, &PathError{Op: "rename", Path: oldPath, Err: errRenameOverlap}
	}
	srcs := ix.under(op)
	if len(srcs) == 0 {
		return change{}, &PathError{Op: "rename", Path: oldPath, Err: ErrNotExist}
	}
	var c change
	touched := map[string]bool{datasetOf(op): true, datasetOf(np): true}
	for _, src := range srcs {
		dst := np + src[len(op):]
		c.moved = append(c.moved, move{src: src, dst: dst, f: ix.files[src]})
		touched[datasetOf(src)] = true
		touched[datasetOf(dst)] = true
	}
	if op != np {
		c.removed = ix.under(np)
		for _, name := range c.removed {
			touched[datasetOf(name)] = true
		}
	}
	c.touched = sortedKeys(touched)
	return c, nil
}

// planRemoveIf computes the conditional removal of the single file at
// path (mu held): it goes ahead only while the version of path's
// dataset equals expect and the file exists.
func (ix *index) planRemoveIf(path string, expect int64) (change, bool) {
	p := clean(path)
	ds := datasetOf(p)
	if _, ok := ix.files[p]; !ok || ix.version[ds] != expect {
		return change{}, false
	}
	return change{removed: []string{p}, touched: []string{ds}}, true
}

// apply makes c happen in the index (mu held).
func (ix *index) apply(c change) {
	for _, name := range c.removed {
		ix.drop(name)
	}
	for _, mv := range c.moved {
		ix.drop(mv.src)
		ix.insert(mv.dst, mv.f)
	}
	for _, ds := range c.touched {
		ix.bump(ds)
	}
}

// Exists reports whether path names a file or a directory prefix. The
// check runs against the dataset accounting, not the file table: one
// map lookup for the common cases (a file, or a dataset holding part
// files — the repository validates stored outputs on every match), and
// a prefix scan proportional to datasets, not files, otherwise.
func (ix *index) Exists(path string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	if _, ok := ix.files[p]; ok {
		return true
	}
	if _, ok := ix.datasets[p]; ok {
		return true
	}
	prefix := p + "/"
	for name := range ix.datasets {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// List returns the file paths under the directory path, sorted. A file's
// own path lists as itself; the empty path lists everything.
func (ix *index) List(path string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	if p != "" {
		return ix.under(p)
	}
	out := make([]string, 0, len(ix.files))
	for name := range ix.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FileStats returns the per-file sizes under path, sorted by path. A
// file's own path reports itself; a directory reports every file under
// it.
func (ix *index) FileStats(path string) []FileStat {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []FileStat
	for _, name := range ix.under(clean(path)) {
		out = append(out, FileStat{Path: name, Size: ix.files[name].size})
	}
	return out
}

// Size returns the total bytes stored under path (file or directory).
// Dataset and directory totals come from the per-dataset accounting, so
// the cost is proportional to the number of datasets, not files.
func (ix *index) Size(path string) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	var n int64
	if info, ok := ix.datasets[p]; ok {
		n += info.bytes
	} else if f, ok := ix.files[p]; ok {
		// p names a part file inside a dataset, not a dataset itself.
		n += f.size
	}
	prefix := p + "/"
	for name, info := range ix.datasets {
		if strings.HasPrefix(name, prefix) {
			n += info.bytes
		}
	}
	return n
}

// Stat returns the bytes stored under path together with the
// modification version of path's dataset, in one lock acquisition.
// leaf reports whether path itself names a single dataset or file — the
// way the engine materializes stored outputs — as opposed to a prefix
// grouping several datasets; a leaf's version covers every byte counted,
// so callers may cache the size keyed by the version, while a prefix's
// nested datasets version independently and must be re-sized.
func (ix *index) Stat(path string) (bytes int64, version int64, leaf bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	version = ix.version[datasetOf(p)]
	if info, ok := ix.datasets[p]; ok {
		return info.bytes, version, true
	}
	if f, ok := ix.files[p]; ok {
		// p names a part file inside a dataset, not a dataset itself.
		return f.size, version, true
	}
	prefix := p + "/"
	for name, info := range ix.datasets {
		if strings.HasPrefix(name, prefix) {
			bytes += info.bytes
		}
	}
	return bytes, version, false
}

// Datasets returns the dataset paths holding data under prefix, sorted;
// the empty prefix lists every dataset. A dataset is the directory
// grouping a job's part files (or a standalone file's own path).
func (ix *index) Datasets(prefix string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(prefix)
	var out []string
	for name := range ix.datasets {
		if p == "" || name == p || strings.HasPrefix(name, p+"/") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Version returns the modification version of the dataset containing
// path. Zero means the dataset has never been written.
func (ix *index) Version(path string) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version[datasetOf(path)]
}

// BytesRead returns the cumulative bytes read through the backend.
func (ix *index) BytesRead() int64 { return ix.bytesRead.Load() }

// BytesWritten returns the cumulative bytes written through the backend.
func (ix *index) BytesWritten() int64 { return ix.bytesWritten.Load() }

// TotalBytes returns the total bytes currently stored.
func (ix *index) TotalBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	for _, info := range ix.datasets {
		n += info.bytes
	}
	return n
}

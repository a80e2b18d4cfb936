package dfs

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// index is the namespace both backends share: which files exist and how
// big they are, the directory tree over them, the modification version
// of every dataset and the traffic meters. Every namespace read of the
// Backend contract, the one version-bump rule and the change a Delete
// or Rename makes are defined here, once; FS and Disk embed it and add
// only where content lives and how a mutation is made to last.
type index struct {
	mu sync.RWMutex
	// files is the point-lookup table by full path, what Open and
	// ReadFile ask. Everything about directories is answered by root.
	files map[string]*file
	// root is the directory tree over files — the shape of an HDFS
	// NameNode — kept by insert and drop, the only two places a file
	// enters or leaves. A directory operation walks to its directory and
	// visits what it returns; it never looks at the rest of the store.
	root dir
	// version is per dataset and moves by +1 per mutation. Entries are
	// never removed: a deleted dataset keeps its last version as a
	// tombstone, so "absent" stays distinguishable from "never written".
	version map[string]int64
	// feed is the change feed: bump n of the seq made sits at n%FeedRing.
	feed []Change
	seq  int64

	// The byte meters are atomics, not mu-guarded fields, so the read
	// path can meter under the shared read lock instead of serializing
	// every concurrent reader against writers.
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// file is one live file. FS keeps every file's content in data; Disk
// keeps only the content of files stored in its record log (isInline)
// and leaves data nil for files backed by an object on disk. A file is
// immutable once installed: a commit replaces the *file.
type file struct {
	size int64
	data []byte
}

// dir is one directory of the namespace tree. Its immediate files are
// split the way DatasetOf splits them — parts are the members of the
// dataset this directory is, alone are files that are each their own
// dataset — so a walk that wants datasets never visits part files. Both
// maps are keyed by full path, sharing the key strings of index.files.
// A directory exists only while a file lives somewhere below it (adjust
// keeps the totals and prunes).
type dir struct {
	path  string           // full path; "" for the root
	parts map[string]*file // immediate part files
	alone map[string]*file // immediate standalone files
	dirs  map[string]*dir  // child directories by path component

	partBytes int64 // bytes in parts: the directory's own dataset
	bytes     int64 // bytes in the whole subtree
	count     int   // files in the whole subtree

	// inv is the sorted inventory of the whole subtree, built by the
	// first FileStats after a change and shared, read-only, by every
	// later one. adjust drops it on every directory it walks, which is
	// every directory a file enters or leaves below. Readers build it
	// under the read lock, hence the atomic.
	inv atomic.Pointer[[]FileStat]
}

func newIndex() index {
	return index{
		files:   make(map[string]*file),
		version: make(map[string]int64),
		feed:    make([]Change, FeedRing),
	}
}

// insert installs f at p, replacing any file already there (mu held).
// It does not touch versions.
func (ix *index) insert(p string, f *file) {
	ix.drop(p)
	ix.files[p] = f
	d := ix.adjust(p, f.size, 1)
	if isInline(p) {
		if d.alone == nil {
			d.alone = make(map[string]*file)
		}
		d.alone[p] = f
		return
	}
	if d.parts == nil {
		d.parts = make(map[string]*file)
	}
	d.parts[p] = f
	d.partBytes += f.size
}

// drop removes the file at p, if any (mu held). It does not touch
// versions.
func (ix *index) drop(p string) {
	f, ok := ix.files[p]
	if !ok {
		return
	}
	delete(ix.files, p)
	d := ix.adjust(p, -f.size, -1)
	if d == nil {
		return
	}
	if isInline(p) {
		delete(d.alone, p)
		return
	}
	delete(d.parts, p)
	d.partBytes -= f.size
}

// adjust adds n files of bytes bytes in all — both negative when a file
// leaves — to the totals of every directory from the root down to the
// one holding p, and returns that directory (mu held). On the way in it
// creates the directories that do not exist yet. On the way out the
// first directory left with no file below it is cut from its parent,
// every emptied directory under it going with it, and adjust returns
// nil: Exists and Datasets report only live data.
func (ix *index) adjust(p string, bytes int64, n int) *dir {
	d := &ix.root
	for start := 0; ; {
		d.bytes += bytes
		d.count += n
		d.inv.Store(nil)
		i := strings.IndexByte(p[start:], '/')
		if i < 0 {
			return d
		}
		end := start + i
		name := p[start:end]
		child := d.dirs[name]
		switch {
		case child == nil:
			if d.dirs == nil {
				d.dirs = make(map[string]*dir)
			}
			child = &dir{path: p[:end]}
			d.dirs[name] = child
		case child.count+n == 0:
			delete(d.dirs, name)
			return nil
		}
		d, start = child, end+1
	}
}

// dirAt returns the directory at p, nil when no file lives below p/ (mu
// held). The empty path is not a directory: only List and Datasets read
// it as the whole namespace.
func (ix *index) dirAt(p string) *dir {
	if p == "" {
		return nil
	}
	d := &ix.root
	for more := true; more && d != nil; {
		var name string
		name, p, more = strings.Cut(p, "/")
		d = d.dirs[name]
	}
	return d
}

// files appends the path of every file in the subtree to out.
func (d *dir) files(out []string) []string {
	for p := range d.parts {
		out = append(out, p)
	}
	for p := range d.alone {
		out = append(out, p)
	}
	for _, child := range d.dirs {
		out = child.files(out)
	}
	return out
}

// inventory returns every file of the subtree with its size, sorted by
// path (mu held, read or write): the memo, or a listing and sort that
// become the memo. The slice is shared; nothing may write it.
func (d *dir) inventory() []FileStat {
	if inv := d.inv.Load(); inv != nil {
		return *inv
	}
	inv := d.stats(make([]FileStat, 0, d.count))
	slices.SortFunc(inv, func(a, b FileStat) int { return strings.Compare(a.Path, b.Path) })
	d.inv.Store(&inv)
	return inv
}

// stats appends every file of the subtree with its size to out.
func (d *dir) stats(out []FileStat) []FileStat {
	for p, f := range d.parts {
		out = append(out, FileStat{Path: p, Size: f.size})
	}
	for p, f := range d.alone {
		out = append(out, FileStat{Path: p, Size: f.size})
	}
	for _, child := range d.dirs {
		out = child.stats(out)
	}
	return out
}

// datasets appends every dataset strictly below d to out: each
// standalone file, and each directory holding part files (once, when a
// standalone file has the directory's name).
func (d *dir) datasets(out []string) []string {
	for p := range d.alone {
		out = append(out, p)
	}
	for _, child := range d.dirs {
		if _, named := d.alone[child.path]; len(child.parts) > 0 && !named {
			out = append(out, child.path)
		}
		out = child.datasets(out)
	}
	return out
}

// next is the version ds moves to on its next mutation — the one bump
// rule. Disk writes it to its record log before bump makes it current.
func (ix *index) next(ds string) int64 { return ix.version[ds] + 1 }

// bump moves ds to its next version and records the change in the feed
// (mu held). Every version change of both backends is made here.
func (ix *index) bump(ds string) int64 {
	v := ix.next(ds)
	ix.version[ds] = v
	ix.feed[ix.seq%FeedRing] = Change{Dataset: ds, Version: v}
	ix.seq++
	return v
}

// FeedRing is how many version bumps the change feed holds.
const FeedRing = 4096

// Change is one version bump: Dataset, keyed as DatasetOf keys it,
// moved to Version.
type Change struct {
	Dataset string
	Version int64
}

// Changes reads the change feed (see Backend).
func (ix *index) Changes(since int64) (changes []Change, next int64, complete bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	next = ix.seq
	if since < max(0, next-FeedRing) || since > next {
		return nil, next, false
	}
	changes = make([]Change, 0, next-since)
	for n := since; n < next; n++ {
		changes = append(changes, ix.feed[n%FeedRing])
	}
	return changes, next, true
}

// put is the index half of a file commit (mu held): install f at p,
// meter the bytes and bump p's dataset, returning its new version.
func (ix *index) put(p string, f *file) int64 {
	ix.insert(p, f)
	ix.bytesWritten.Add(f.size)
	return ix.bump(DatasetOf(p))
}

// writer buffers the bytes of a Create; Close hands the buffer itself
// to the backend's commit, which owns it from then on, so a part
// written in one Write (how tasks write their parts) is copied once on
// its way in.
type writer struct {
	path   string
	buf    []byte
	writes int
	closed bool
	commit func(p string, data []byte) (int64, error)
	ver    int64
}

func (w *writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, &PathError{Op: "write", Path: w.path, Err: ErrClosed}
	}
	w.writes++
	if len(w.buf) > 0 && cap(w.buf)-len(w.buf) < len(p) {
		// Double, as bytes.Buffer does: append grows a large slice by
		// only 1.25×, which made loading a file written in 64 KiB pieces
		// measurably slower. (bytes.Buffer itself allocates twice per
		// growth when built with -race.)
		w.buf = append(make([]byte, 0, max(2*cap(w.buf), len(w.buf)+len(p))), w.buf...)
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *writer) Close() (err error) {
	if w.closed {
		return &PathError{Op: "close", Path: w.path, Err: ErrClosed}
	}
	w.closed = true
	data := w.buf
	if w.writes > 1 {
		// A buffer grown across writes has spare capacity the committed
		// file would hold for its lifetime: commit just its bytes.
		data = append([]byte(nil), data...)
	}
	w.buf = nil
	w.ver, err = w.commit(w.path, data)
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

// inventory returns the live files at p and under p/ with their sizes,
// sorted by path (mu held): a lookup, a walk to p's directory and, when
// p's directory changed since it was last listed, one visit per file
// and a sort. p's own file sorts before every path under p/. The slice
// may be the directory's shared memo; nothing may write it.
func (ix *index) inventory(p string) []FileStat {
	f, isFile := ix.files[p]
	d := ix.dirAt(p)
	switch {
	case d == nil && !isFile:
		return nil
	case d == nil:
		return []FileStat{{Path: p, Size: f.size}}
	case !isFile:
		return d.inventory()
	}
	return append([]FileStat{{Path: p, Size: f.size}}, d.inventory()...)
}

// under returns the live file paths at p and under p/, sorted (mu
// held); the empty path lists the whole namespace. p's own file sorts
// before every path under p/. A directory with a memo is read from it;
// one without is listed straight from the tree and left without one,
// so a directory listed once — a temporary about to be deleted or
// renamed — pays for one slice and a sort.
func (ix *index) under(p string) []string {
	_, isFile := ix.files[p]
	d := ix.dirAt(p)
	if p == "" {
		d = &ix.root
	}
	var out []string
	if isFile {
		out = []string{p}
	}
	if d == nil {
		return out
	}
	out = append(make([]string, 0, len(out)+d.count), out...)
	if inv := d.inv.Load(); inv != nil {
		for _, f := range *inv {
			out = append(out, f.Path)
		}
		return out
	}
	out = d.files(out)
	sort.Strings(out[len(out)-d.count:])
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
	var c change
	if p != "" { // the whole namespace is no path to delete
		c.removed = ix.under(p)
	}
	if len(c.removed) == 0 {
		return c, &PathError{Op: "delete", Path: path, Err: ErrNotExist}
	}
	touched := map[string]bool{DatasetOf(p): true}
	for _, name := range c.removed {
		touched[DatasetOf(name)] = true
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
// renamed into or onto its own tree, and the empty path, the whole
// namespace, overlaps every path.
func (ix *index) planRename(oldPath, newPath string) (change, error) {
	op, np := clean(oldPath), clean(newPath)
	if op == "" || np == "" || strings.HasPrefix(np, op+"/") || strings.HasPrefix(op, np+"/") {
		return change{}, &PathError{Op: "rename", Path: oldPath, Err: errRenameOverlap}
	}
	srcs := ix.under(op)
	if len(srcs) == 0 {
		return change{}, &PathError{Op: "rename", Path: oldPath, Err: ErrNotExist}
	}
	var c change
	touched := map[string]bool{DatasetOf(op): true, DatasetOf(np): true}
	for _, src := range srcs {
		dst := np + src[len(op):]
		c.moved = append(c.moved, move{src: src, dst: dst, f: ix.files[src]})
		touched[DatasetOf(src)] = true
		touched[DatasetOf(dst)] = true
	}
	if op != np {
		c.removed = ix.under(np)
		for _, name := range c.removed {
			touched[DatasetOf(name)] = true
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
	ds := DatasetOf(p)
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

// Exists reports whether path names a file or a directory prefix: a
// lookup and a walk to path's directory, whatever the store holds.
func (ix *index) Exists(path string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	_, isFile := ix.files[p]
	return isFile || ix.dirAt(p) != nil
}

// List returns the file paths under the directory path, sorted. A file's
// own path lists as itself; the empty path lists everything.
func (ix *index) List(path string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.under(clean(path))
}

// FileStats returns the per-file sizes under path, sorted by path. A
// file's own path reports itself; a directory reports every file under
// it. A directory's answer is its memo (see dir.inv), shared with every
// caller until the directory changes.
func (ix *index) FileStats(path string) []FileStat {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.inventory(clean(path))
}

// Size returns the total bytes stored under path (file or directory),
// read off the subtree total its directory carries.
func (ix *index) Size(path string) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	var n int64
	if f, ok := ix.files[p]; ok {
		n = f.size
	}
	if d := ix.dirAt(p); d != nil {
		n += d.bytes
	}
	return n
}

// Stat returns the bytes stored under path together with the
// modification version of path's dataset, in one lock acquisition.
// leaf reports whether path itself names a single dataset or file — the
// way the engine materializes stored outputs — as opposed to a prefix
// grouping several datasets; a leaf's version covers every byte counted,
// so callers may cache the size keyed by the version, while a prefix's
// nested datasets version independently and must be re-sized. Like
// Exists and Size it costs a lookup and a walk to path's directory, for
// an absent path too.
func (ix *index) Stat(path string) (bytes int64, version int64, leaf bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(path)
	version = ix.version[DatasetOf(p)]
	f, isFile := ix.files[p]
	d := ix.dirAt(p)
	switch {
	case isFile && isInline(p) && d != nil:
		// A dataset made of a standalone file and the part files of the
		// directory by its name.
		return f.size + d.partBytes, version, true
	case isFile:
		return f.size, version, true
	case d == nil:
		return 0, version, false
	case len(d.parts) > 0:
		// A dataset: its own part files, not what is nested below them.
		return d.partBytes, version, true
	}
	return d.bytes, version, false
}

// Datasets returns the dataset paths holding data under prefix, sorted;
// the empty prefix lists every dataset. A dataset is the directory
// grouping a job's part files (or a standalone file's own path). The
// walk visits the directories below prefix and the datasets it returns,
// not their part files.
func (ix *index) Datasets(prefix string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := clean(prefix)
	var out []string
	d := &ix.root
	if p != "" {
		d = ix.dirAt(p)
		if _, isFile := ix.files[p]; isFile && isInline(p) || d != nil && len(d.parts) > 0 {
			out = append(out, p)
		}
	}
	if d != nil {
		out = d.datasets(out)
	}
	sort.Strings(out)
	return out
}

// Version returns the modification version of the dataset containing
// path. Zero means the dataset has never been written.
func (ix *index) Version(path string) int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version[DatasetOf(path)]
}

// BytesRead returns the cumulative bytes read through the backend.
func (ix *index) BytesRead() int64 { return ix.bytesRead.Load() }

// BytesWritten returns the cumulative bytes written through the backend.
func (ix *index) BytesWritten() int64 { return ix.bytesWritten.Load() }

// TotalBytes returns the total bytes currently stored.
func (ix *index) TotalBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.root.bytes
}

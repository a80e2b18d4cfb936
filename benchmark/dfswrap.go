package main

import (
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/dfs"
)

// The DFS layer is measured from outside: the traced run hands
// restore.Recover a meteredFS wrapping the real backend, which times
// and counts every call by operation class and by namespace class.
// The wrapper forwards everything unchanged — including the writer's
// optional CommittedVersion, which the engine type-asserts to keep
// write-through caching on — so the traced run executes the same
// program as the untraced one.

// Operation classes, the unit of the dfs.<class>.* metrics.
const (
	opRead   = "read"   // Open, ReadFile
	opWrite  = "write"  // Create…Close, WriteFile
	opRename = "rename" // Rename
	opCAS    = "cas"    // WriteFileIf, RemoveFileIf
	opMeta   = "meta"   // Exists, List, Size, Stat, Datasets, Version, FileStats
	opDelete = "delete" // Delete
)

var opClasses = []string{opRead, opWrite, opRename, opCAS, opMeta, opDelete}

// Namespace classes: which part of the system owns a path.
const (
	nsInput   = "input"   // generated datasets (pigmix/…)
	nsRestore = "restore" // <root>/restore/<qid>/… stored sub-job outputs
	nsTmp     = "tmp"     // <root>/tmp/<qid>/… temporaries and staged STOREs
	nsJournal = "journal" // <root>/repo/… manifest and event log
	nsLocks   = "locks"   // <root>/locks/… leases, <root>/pins/… pins
	nsOutput  = "output"  // user STORE destinations and everything else
)

var nsClasses = []string{nsInput, nsRestore, nsTmp, nsJournal, nsLocks, nsOutput}

// dfsCall is one wrapper call: the raw material of the dfs.<op> spans
// and of every dfs.* and core.durable.* meter.
type dfsCall struct {
	Op    string
	NS    string
	Start time.Time
	Dur   time.Duration
	Bytes int64
}

// cell accumulates one op class × namespace class.
type cell struct {
	Calls int64         `json:"calls"`
	Bytes int64         `json:"bytes"`
	Dur   time.Duration `json:"ns"`
}

// meteredFS wraps a dfs.Backend, metering every call. Safe for
// concurrent use (the engine's tasks call it from many goroutines).
type meteredFS struct {
	dfs.Backend
	root string // NamespaceRoot of the system under test ("" = legacy layout)

	mu      sync.Mutex
	cells   map[[2]string]*cell
	calls   []dfsCall
	created int64 // files committed: Create/WriteFile, plus applied WriteFileIf
}

func newMeteredFS(inner dfs.Backend, nsRoot string) *meteredFS {
	return &meteredFS{Backend: inner, root: strings.Trim(nsRoot, "/"), cells: map[[2]string]*cell{}}
}

// classify maps a path to its namespace class.
func (m *meteredFS) classify(path string) string {
	p := strings.TrimPrefix(path, "/")
	if strings.HasPrefix(p, inputRoot+"/") || p == inputRoot {
		return nsInput
	}
	if m.root != "" {
		rest, ok := strings.CutPrefix(p, m.root+"/")
		if !ok {
			return nsOutput
		}
		p = rest
	}
	switch dir, _, _ := strings.Cut(p, "/"); dir {
	case "restore":
		return nsRestore
	case "tmp":
		return nsTmp
	case "repo":
		return nsJournal
	case "locks", "pins":
		return nsLocks
	}
	return nsOutput
}

func (m *meteredFS) record(op, path string, start time.Time, bytes int64) {
	dur := time.Since(start)
	ns := m.classify(path)
	m.mu.Lock()
	c := m.cells[[2]string{op, ns}]
	if c == nil {
		c = &cell{}
		m.cells[[2]string{op, ns}] = c
	}
	c.Calls++
	c.Bytes += bytes
	c.Dur += dur
	m.calls = append(m.calls, dfsCall{Op: op, NS: ns, Start: start, Dur: dur, Bytes: bytes})
	m.mu.Unlock()
}

// reset zeroes every meter; the traced run calls it when the measured
// phase begins, so setup's traffic is not the phase's.
func (m *meteredFS) reset() {
	m.mu.Lock()
	m.cells, m.calls, m.created = map[[2]string]*cell{}, nil, 0
	m.mu.Unlock()
}

// drainCalls returns the calls recorded since the previous drain.
func (m *meteredFS) drainCalls() []dfsCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.calls
	m.calls = nil
	return out
}

// snapshot copies the op × namespace matrix and the created-file count.
func (m *meteredFS) snapshot() (map[[2]string]cell, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[[2]string]cell, len(m.cells))
	for k, c := range m.cells {
		out[k] = *c
	}
	return out, m.created
}

func (m *meteredFS) addCreated() {
	m.mu.Lock()
	m.created++
	m.mu.Unlock()
}

// meteredWriter times a Create…Close as one write call: the bytes are
// buffered by the backend and committed by Close, so the cost is
// Close's; Write time is added so a streaming backend would show too.
type meteredWriter struct {
	io.WriteCloser
	fs    *meteredFS
	path  string
	bytes int64
	dur   time.Duration
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := w.WriteCloser.Write(p)
	w.dur += time.Since(t)
	w.bytes += int64(n)
	return n, err
}

func (w *meteredWriter) Close() error {
	t := time.Now()
	err := w.WriteCloser.Close()
	// Backdate the start by the accumulated Write time so the recorded
	// duration covers the whole write.
	w.fs.record(opWrite, w.path, t.Add(-w.dur), w.bytes)
	w.fs.addCreated()
	return err
}

// versionedWriter additionally forwards CommittedVersion. It is a
// separate type so a backend whose writer lacks the method keeps
// lacking it through the wrapper, exactly as the engine's type
// assertion expects.
type versionedWriter struct {
	*meteredWriter
	cv interface{ CommittedVersion() int64 }
}

func (w versionedWriter) CommittedVersion() int64 { return w.cv.CommittedVersion() }

func (m *meteredFS) Create(path string) io.WriteCloser {
	inner := m.Backend.Create(path)
	w := &meteredWriter{WriteCloser: inner, fs: m, path: path}
	if cv, ok := inner.(interface{ CommittedVersion() int64 }); ok {
		return versionedWriter{meteredWriter: w, cv: cv}
	}
	return w
}

func (m *meteredFS) WriteFile(path string, data []byte) error {
	t := time.Now()
	err := m.Backend.WriteFile(path, data)
	m.record(opWrite, path, t, int64(len(data)))
	m.addCreated()
	return err
}

func (m *meteredFS) Open(path string) (io.Reader, error) {
	t := time.Now()
	r, err := m.Backend.Open(path)
	// Both backends return a reader over bytes already in memory, so
	// the read cost is Open's; its size is the file's.
	var n int64
	if err == nil {
		if l, ok := r.(interface{ Len() int }); ok {
			n = int64(l.Len())
		}
	}
	m.record(opRead, path, t, n)
	return r, err
}

func (m *meteredFS) ReadFile(path string) ([]byte, error) {
	t := time.Now()
	data, err := m.Backend.ReadFile(path)
	m.record(opRead, path, t, int64(len(data)))
	return data, err
}

func (m *meteredFS) Exists(path string) bool {
	t := time.Now()
	ok := m.Backend.Exists(path)
	m.record(opMeta, path, t, 0)
	return ok
}

func (m *meteredFS) List(path string) []string {
	t := time.Now()
	out := m.Backend.List(path)
	m.record(opMeta, path, t, 0)
	return out
}

func (m *meteredFS) Size(path string) int64 {
	t := time.Now()
	n := m.Backend.Size(path)
	m.record(opMeta, path, t, 0)
	return n
}

func (m *meteredFS) Stat(path string) (int64, int64, bool) {
	t := time.Now()
	b, v, leaf := m.Backend.Stat(path)
	m.record(opMeta, path, t, 0)
	return b, v, leaf
}

func (m *meteredFS) Datasets(prefix string) []string {
	t := time.Now()
	out := m.Backend.Datasets(prefix)
	m.record(opMeta, prefix, t, 0)
	return out
}

func (m *meteredFS) Version(path string) int64 {
	t := time.Now()
	v := m.Backend.Version(path)
	m.record(opMeta, path, t, 0)
	return v
}

func (m *meteredFS) FileStats(path string) []dfs.FileStat {
	t := time.Now()
	out := m.Backend.FileStats(path)
	m.record(opMeta, path, t, 0)
	return out
}

func (m *meteredFS) Delete(path string) error {
	t := time.Now()
	err := m.Backend.Delete(path)
	m.record(opDelete, path, t, 0)
	return err
}

func (m *meteredFS) Rename(oldPath, newPath string) (int64, error) {
	t := time.Now()
	v, err := m.Backend.Rename(oldPath, newPath)
	m.record(opRename, newPath, t, 0)
	return v, err
}

func (m *meteredFS) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	t := time.Now()
	v, ok := m.Backend.WriteFileIf(path, data, expect)
	var n int64
	if ok {
		n = int64(len(data))
		m.addCreated()
	}
	m.record(opCAS, path, t, n)
	return v, ok
}

func (m *meteredFS) RemoveFileIf(path string, expect int64) bool {
	t := time.Now()
	ok := m.Backend.RemoveFileIf(path, expect)
	m.record(opCAS, path, t, 0)
	return ok
}

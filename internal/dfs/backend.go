package dfs

import "io"

// Backend is the storage substrate contract the rest of the system is
// written against: the MapReduce engine, the repository, the durable
// event log, and the lease protocol all consume this interface, so the
// substrate can be the in-memory FS (tests, experiments, simulation) or
// the on-disk Disk backend (real durability) without any caller
// changing.
//
// The semantics below are implemented once, in index, which both
// built-in backends embed; a backend supplies content storage and
// persistence, nothing else:
//
//   - Dataset versions. Every path belongs to a dataset (datasetOf: the
//     directory holding its part files, or the path itself). A mutation
//     moves the dataset's version by +1; deletes bump it too, so
//     "absent" does not imply version zero — a trimmed log slot stays
//     distinguishable from a never-written one. Version zero means never
//     written.
//
//   - What a tree operation bumps. Delete bumps every dataset that loses
//     a file: the one named by the path and each one nested under it.
//     Rename bumps the source and destination roots, every dataset a
//     file moves out of or into, and every destination dataset the move
//     replaces. An entry derived from any of them stops being valid
//     (repository eviction Rule 4).
//
//   - What a namespace operation costs. The namespace is a directory
//     tree. Exists, Size, Stat and Version cost a lookup and a walk down
//     the components of their path, present or absent; List, FileStats
//     and Datasets add one visit per path returned (Datasets also visits
//     the directories below its prefix, never their part files), and a
//     sort of the result; Delete and Rename cost the files they remove
//     and move. Each is proportional to its result and the path depth,
//     never to the store, so a caller may put one on its per-query path
//     without asking what else is stored. Only the empty path — List("")
//     and Datasets("") — and TotalBytes speak for the whole store.
//
//   - Version CAS. WriteFileIf/RemoveFileIf apply only when the
//     dataset's version still equals the caller's last observation, as
//     one atomic read-check-write even across processes sharing the
//     backend. They are the primitives the durable log's dense sequence
//     allocation and the lease protocol's fencing are built on.
//
// The contract has no crash-injection method: a test that tears or
// drops writes wraps a backend in dfstest.Faulty, which decides the
// fate of each mutation before the wrapped backend sees it.
//
// All methods are safe for concurrent use.
type Backend interface {
	// Create opens a new file for writing; Close commits it atomically
	// and bumps its dataset version. The returned writer may implement
	// interface{ CommittedVersion() int64 } exposing the dataset
	// version its Close committed, captured atomically with the commit
	// (both built-in backends do); callers that need a race-free
	// post-write version should type-assert for it and fall back to
	// Version(path).
	Create(path string) io.WriteCloser
	// WriteFile writes data to path in one call.
	WriteFile(path string, data []byte) error
	// Open returns a reader over the file at path.
	Open(path string) (io.Reader, error)
	// ReadFile returns the contents of the file at path.
	ReadFile(path string) ([]byte, error)
	// Exists reports whether path names a file or a directory prefix.
	Exists(path string) bool
	// List returns the file paths under path, sorted; the empty path
	// lists every file.
	List(path string) []string
	// Size returns the total bytes stored under path.
	Size(path string) int64
	// Stat returns the bytes under path, the version of path's dataset,
	// and whether path names a single dataset or file (a leaf).
	Stat(path string) (bytes int64, version int64, leaf bool)
	// Datasets returns the dataset paths holding data under prefix,
	// sorted; the empty prefix lists every dataset.
	Datasets(prefix string) []string
	// Delete removes the file or directory tree at path, bumping the
	// version of every dataset that loses a file.
	Delete(path string) error
	// Rename atomically moves the file or dataset tree at oldPath to
	// newPath, replacing the destination and bumping every touched
	// dataset's version; it returns the destination dataset's new
	// version. Neither path may lie inside the other's tree.
	Rename(oldPath, newPath string) (int64, error)
	// WriteFileIf writes data to path only if path's dataset version
	// still equals expect, returning the dataset's (possibly new)
	// version and whether the write was applied.
	WriteFileIf(path string, data []byte, expect int64) (int64, bool)
	// RemoveFileIf deletes the file at path only if its dataset version
	// still equals expect, reporting whether the delete was applied.
	RemoveFileIf(path string, expect int64) bool
	// Version returns the modification version of the dataset
	// containing path; zero means never written.
	Version(path string) int64
	// FileStats returns the per-file sizes under path, sorted by file
	// path. It is the observation primitive append detection is built
	// on: a dataset "grew" when its version moved but every previously
	// listed file is still present at its recorded size and only new
	// files appeared.
	FileStats(path string) []FileStat
	// BytesRead and BytesWritten are the cumulative traffic meters;
	// TotalBytes is the bytes currently stored.
	BytesRead() int64
	BytesWritten() int64
	TotalBytes() int64
}

var (
	_ Backend = (*FS)(nil)
	_ Backend = (*Disk)(nil)
)

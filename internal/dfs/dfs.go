// Package dfs implements the distributed file system substrate that the
// MapReduce engine and the ReStore repository store data in. It plays the
// role HDFS plays for Hadoop: a flat namespace of immutable files grouped
// into directories, where a "dataset" is a directory of part files
// written by the tasks of a job.
//
// The namespace carries the metadata ReStore needs: per-dataset
// modification versions (repository eviction Rule 4 evicts entries whose
// inputs were deleted or modified — versions are tracked at dataset
// granularity, where a dataset is the directory holding a job's part
// files), byte totals per dataset and per directory subtree (kept in a
// directory tree, so every namespace operation costs its result and the
// depth of its path, never the size of the store), and global byte
// meters that feed the cluster cost model. It is implemented once
// (index) and stored twice: FS keeps file contents in memory, Disk
// under a host directory.
package dfs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// FS is the in-memory Backend: the shared index with every file's
// content held in memory. All methods are safe for concurrent use.
type FS struct {
	index
}

// New returns an empty file system.
func New() *FS {
	return &FS{index: newIndex()}
}

// clean normalizes a path: no leading slash, no trailing slash.
func clean(path string) string {
	path = strings.TrimPrefix(path, "/")
	path = strings.TrimSuffix(path, "/")
	return path
}

// datasetOf returns the dataset (top-level directory) a path belongs to.
// "pigmix/page_views/part-00000" → "pigmix/page_views" when the path has
// a part file component, else the path itself.
func datasetOf(path string) string {
	path = clean(path)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last := path[i+1:]
		if strings.HasPrefix(last, "part-") {
			return path[:i]
		}
	}
	return path
}

// Create opens a new file for writing, truncating any existing file at
// the path. Close commits the file and bumps its dataset version.
func (fs *FS) Create(path string) io.WriteCloser {
	return &writer{path: clean(path), commit: fs.commit}
}

// WriteFile writes data to path in one call.
func (fs *FS) WriteFile(path string, data []byte) error {
	_, err := fs.commit(clean(path), append([]byte(nil), data...))
	return err
}

// commit is the file-commit path of Create and WriteFile. It owns data.
func (fs *FS) commit(p string, data []byte) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.put(p, &file{size: int64(len(data)), data: data}), nil
}

// Open returns a reader over the file at path. Reads take the shared
// lock only: file data is immutable once committed (commits replace the
// *file value), and the byte meter is atomic.
func (fs *FS) Open(path string) (io.Reader, error) {
	fs.mu.RLock()
	f, ok := fs.files[clean(path)]
	fs.mu.RUnlock()
	if !ok {
		return nil, &PathError{Op: "open", Path: path, Err: ErrNotExist}
	}
	fs.bytesRead.Add(f.size)
	return bytes.NewReader(f.data), nil
}

// ReadFile returns the contents of the file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	f, ok := fs.files[clean(path)]
	fs.mu.RUnlock()
	if !ok {
		return nil, &PathError{Op: "read", Path: path, Err: ErrNotExist}
	}
	fs.bytesRead.Add(f.size)
	return append([]byte(nil), f.data...), nil
}

// Delete removes the file or directory tree at path. Deleting bumps the
// version of every dataset that loses a file, so repository entries
// that depend on any of them invalidate.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c, err := fs.planDelete(path)
	if err != nil {
		return err
	}
	fs.apply(c)
	return nil
}

// Rename atomically moves the file or dataset tree at oldPath to
// newPath, replacing whatever was stored there — the whole swap happens
// under one lock, so readers see either the old dataset or the new one,
// never a mixture. This is the commit step of per-query output staging:
// a query writes its STORE output under a private temp namespace and
// renames it into place, so concurrent writers of one user path cannot
// interleave part files. Every dataset the rename touches (planRename)
// has its version bumped inside the critical section. The returned
// version is the destination dataset's new one, captured inside the
// same critical section so the caller can bind metadata to exactly this
// commit even when another writer renames over the path immediately
// after.
func (fs *FS) Rename(oldPath, newPath string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c, err := fs.planRename(oldPath, newPath)
	if err != nil {
		return 0, err
	}
	fs.apply(c)
	return fs.version[datasetOf(newPath)], nil
}

// WriteFileIf writes data to path only if the version of path's dataset
// still equals expect — the version the caller last observed (zero for a
// dataset never touched; note that deletes bump versions, so "absent"
// does not imply version zero: observe via Stat or Version first). The
// read-check-write is one critical section, making it the
// compare-and-swap primitive the durable repository's log appends and
// the cross-process lease records are built on. It returns the
// dataset's new version and whether the write was applied; on a lost
// race nothing is written.
func (fs *FS) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if fs.version[ds] != expect {
		return fs.version[ds], false
	}
	data = append([]byte(nil), data...)
	return fs.put(p, &file{size: int64(len(data)), data: data}), true
}

// RemoveFileIf deletes the file at path only if its dataset version
// still equals expect, reporting whether the delete was applied. It is
// the conditional-release half of the lease protocol: a holder whose
// lease expired and was taken over observes a newer version and must
// not clobber the new holder's record.
func (fs *FS) RemoveFileIf(path string, expect int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c, ok := fs.planRemoveIf(path, expect)
	if ok {
		fs.apply(c)
	}
	return ok
}

// ErrNotExist reports a missing path.
var ErrNotExist = fmt.Errorf("file does not exist")

// ErrClosed reports a Write or Close on a file writer already closed.
var ErrClosed = fmt.Errorf("file already closed")

// PathError records an error, the operation, and the path that caused it.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return "dfs: " + e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap returns the underlying error.
func (e *PathError) Unwrap() error { return e.Err }

package dfs

import (
	"bytes"
	"io"
	"sort"
	"strings"
)

// flatFS is the reference the namespace tree is checked against: the
// Backend contract over one flat map of files, where every directory
// operation is a scan of the whole map. It is how index answered before
// it became a tree, kept for its obviousness, not its speed. Not safe
// for concurrent use.
type flatFS struct {
	files         map[string][]byte
	version       map[string]int64
	read, written int64
}

var _ Backend = (*flatFS)(nil)

func newFlatFS() *flatFS {
	return &flatFS{files: map[string][]byte{}, version: map[string]int64{}}
}

// under is every live file at p or under p/, sorted.
func (o *flatFS) under(p string) []string {
	var out []string
	for name := range o.files {
		if name == p || strings.HasPrefix(name, p+"/") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (o *flatFS) sum(names []string) (n int64) {
	for _, name := range names {
		n += int64(len(o.files[name]))
	}
	return n
}

// members is every live file whose dataset is ds, sorted.
func (o *flatFS) members(ds string) []string {
	var out []string
	for name := range o.files {
		if DatasetOf(name) == ds {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (o *flatFS) commit(p string, data []byte) (int64, error) {
	o.files[p] = data
	o.written += int64(len(data))
	o.version[DatasetOf(p)]++
	return o.version[DatasetOf(p)], nil
}

func (o *flatFS) Create(path string) io.WriteCloser {
	return &writer{path: clean(path), commit: o.commit}
}

func (o *flatFS) WriteFile(path string, data []byte) error {
	_, err := o.commit(clean(path), append([]byte(nil), data...))
	return err
}

func (o *flatFS) Open(path string) (io.Reader, error) {
	data, err := o.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

func (o *flatFS) ReadFile(path string) ([]byte, error) {
	data, ok := o.files[clean(path)]
	if !ok {
		return nil, &PathError{Op: "read", Path: path, Err: ErrNotExist}
	}
	o.read += int64(len(data))
	return append([]byte(nil), data...), nil
}

func (o *flatFS) Exists(path string) bool { return len(o.under(clean(path))) > 0 }

func (o *flatFS) List(path string) []string {
	if p := clean(path); p != "" {
		return o.under(p)
	}
	out := make([]string, 0, len(o.files))
	for name := range o.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (o *flatFS) FileStats(path string) []FileStat {
	var out []FileStat
	for _, name := range o.under(clean(path)) {
		out = append(out, FileStat{Path: name, Size: int64(len(o.files[name]))})
	}
	return out
}

func (o *flatFS) Size(path string) int64 { return o.sum(o.under(clean(path))) }

func (o *flatFS) Stat(path string) (int64, int64, bool) {
	p := clean(path)
	version := o.version[DatasetOf(p)]
	if m := o.members(p); len(m) > 0 {
		return o.sum(m), version, true // a dataset: its own files, not the ones nested below
	}
	if data, ok := o.files[p]; ok {
		return int64(len(data)), version, true // a part file
	}
	return o.sum(o.under(p)), version, false
}

func (o *flatFS) Datasets(prefix string) []string {
	p := clean(prefix)
	set := map[string]bool{}
	for name := range o.files {
		if ds := DatasetOf(name); p == "" || ds == p || strings.HasPrefix(ds, p+"/") {
			set[ds] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	return sortedKeys(set)
}

func (o *flatFS) Delete(path string) error {
	p := clean(path)
	removed := o.under(p)
	if len(removed) == 0 {
		return &PathError{Op: "delete", Path: path, Err: ErrNotExist}
	}
	touched := map[string]bool{DatasetOf(p): true}
	for _, name := range removed {
		touched[DatasetOf(name)] = true
		delete(o.files, name)
	}
	for ds := range touched {
		o.version[ds]++
	}
	return nil
}

func (o *flatFS) Rename(oldPath, newPath string) (int64, error) {
	op, np := clean(oldPath), clean(newPath)
	if op == "" || np == "" || strings.HasPrefix(np, op+"/") || strings.HasPrefix(op, np+"/") {
		return 0, &PathError{Op: "rename", Path: oldPath, Err: errRenameOverlap}
	}
	srcs := o.under(op)
	if len(srcs) == 0 {
		return 0, &PathError{Op: "rename", Path: oldPath, Err: ErrNotExist}
	}
	touched := map[string]bool{DatasetOf(op): true, DatasetOf(np): true}
	if op != np {
		for _, name := range o.under(np) {
			touched[DatasetOf(name)] = true
			delete(o.files, name)
		}
	}
	for _, src := range srcs {
		dst := np + src[len(op):]
		touched[DatasetOf(src)], touched[DatasetOf(dst)] = true, true
		data := o.files[src]
		delete(o.files, src)
		o.files[dst] = data
	}
	for ds := range touched {
		o.version[ds]++
	}
	return o.version[DatasetOf(np)], nil
}

func (o *flatFS) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	p := clean(path)
	ds := DatasetOf(p)
	if o.version[ds] != expect {
		return o.version[ds], false
	}
	o.commit(p, append([]byte(nil), data...))
	return o.version[ds], true
}

func (o *flatFS) RemoveFileIf(path string, expect int64) bool {
	p := clean(path)
	ds := DatasetOf(p)
	if _, ok := o.files[p]; !ok || o.version[ds] != expect {
		return false
	}
	delete(o.files, p)
	o.version[ds]++
	return true
}

func (o *flatFS) Version(path string) int64 { return o.version[DatasetOf(path)] }
func (o *flatFS) BytesRead() int64          { return o.read }
func (o *flatFS) BytesWritten() int64       { return o.written }
func (o *flatFS) TotalBytes() int64         { return o.sum(o.List("")) }

// Changes reports an incomplete feed: the reference keeps none, and an
// incomplete feed is always a correct answer.
func (o *flatFS) Changes(int64) ([]Change, int64, bool) { return nil, 0, false }

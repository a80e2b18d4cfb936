package mapreduce

import (
	"io"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// openedBuffers is a backend that keeps, per path, the buffer behind
// the reader its Open returned: bytes.Reader's WriteTo hands over that
// buffer itself, and Seek rewinds the reader for its real consumer.
type openedBuffers struct {
	dfs.Backend
	mu   sync.Mutex
	bufs map[string][]byte
}

type bufferOf struct{ buf []byte }

func (b *bufferOf) Write(p []byte) (int, error) { b.buf = p; return len(p), nil }

func (o *openedBuffers) Open(path string) (io.Reader, error) {
	r, err := o.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	if rs, ok := r.(interface {
		io.WriterTo
		io.Seeker
	}); ok {
		var b bufferOf
		if _, err := rs.WriteTo(&b); err != nil {
			return nil, err
		}
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		o.mu.Lock()
		o.bufs[path] = b.buf
		o.mu.Unlock()
	}
	return r, nil
}

// within reports whether s's bytes lie inside buf.
func within(s string, buf []byte) bool {
	if s == "" || len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(buf))
}

// TestCacheMissSharesDFSContents holds a cache miss to one copy of the
// input: the cached batch's string fields slice the very buffer the
// backend's Open returned, not a copy of it.
func TestCacheMissSharesDFSContents(t *testing.T) {
	fs := &openedBuffers{Backend: dfstest.New(t), bufs: map[string][]byte{}}
	const part = "in/part-00000"
	w := fs.Create(part)
	tw := tuple.NewWriter(w)
	for _, row := range []tuple.Tuple{{"alice", int64(1), "term0001"}, {"bob", int64(2), "term0002"}} {
		if err := tw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(fs, DefaultConfig())
	var decode time.Duration
	if _, err := e.loadDataset("in", &decode); err != nil {
		t.Fatal(err)
	}
	ds := e.cache.Get("in")
	if ds == nil {
		t.Fatal("the loaded dataset was not cached")
	}
	buf := fs.bufs[part]
	if buf == nil {
		t.Fatalf("the engine did not read %s through Open", part)
	}
	strs := 0
	for i := 0; i < ds.batches[0].Len(); i++ {
		for _, v := range ds.batches[0].Row(i) {
			if s, ok := v.(string); ok {
				strs++
				if !within(s, buf) {
					t.Errorf("field %q is a copy, not a slice of the DFS contents", s)
				}
			}
		}
	}
	if strs != 4 {
		t.Fatalf("saw %d string fields, want 4", strs)
	}
}

var loadedSink *cachedDataset

// BenchmarkLoadDatasetMiss loads PigMix page_views with the batch cache
// off, so every iteration reads and decodes the part file.
func BenchmarkLoadDatasetMiss(b *testing.B) {
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, pigmix.TinyScale, 1); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCachedBatchBytes = -1
	e := New(fs, cfg)
	b.SetBytes(fs.Size(pigmix.PathPageViews))
	b.ReportAllocs()
	b.ResetTimer()
	var decode time.Duration
	for i := 0; i < b.N; i++ {
		ds, err := e.loadDataset(pigmix.PathPageViews, &decode)
		if err != nil {
			b.Fatal(err)
		}
		loadedSink = ds
	}
}

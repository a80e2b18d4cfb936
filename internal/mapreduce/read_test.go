package mapreduce

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
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

// edgeText is a part file whose typed columns hold each scalar kind's
// edge values: the int64 extremes the text codec reads as ints and the
// runtime's small-int cache edge (255/256), -0, the smallest subnormal
// and the infinities, escaped strings and number-like ones; every
// column is null in the first and last rows.
const edgeText = "\t\t\n" +
	"-9223372036854775807\t-0.0\ta\\tb\n" +
	"9223372036854775807\t+Inf\tback\\\\slash\\nline\n" +
	"255\t-Inf\t255x\n" +
	"256\t5e-324\tNaN\n" +
	"0\t1e300\tplain\n" +
	"\t\t\n"

// edgeRows is what edgeText decodes to, each field boxed on its own.
var edgeRows = []tuple.Tuple{
	{nil, nil, nil},
	{int64(math.MinInt64 + 1), math.Copysign(0, -1), "a\tb"},
	{int64(math.MaxInt64), math.Inf(1), "back\\slash\nline"},
	{int64(255), math.Inf(-1), "255x"},
	{int64(256), 5e-324, "NaN"},
	{int64(0), 1e300, "plain"},
	{nil, nil, nil},
}

// builtRows carry what no text field decodes to in a typed column:
// MinInt64 (its text reads as a float), a NaN float and an empty (not
// null) string.
var builtRows = []tuple.Tuple{
	{nil, nil, nil},
	{int64(math.MinInt64), math.NaN(), ""},
	{int64(-1), 0.5, "x"},
	{nil, nil, nil},
}

// checkField holds a field read from a batch to want, the same value
// boxed on its own: equal under == (unless want is NaN, which equals
// nothing), with the same hash, order, dynamic type, formatting, sign
// and behaviour as a map key.
func checkField(t *testing.T, where string, got, want tuple.Value) {
	t.Helper()
	self := want == want
	_, inWant := map[tuple.Value]bool{want: true}[got]
	_, inGot := map[tuple.Value]bool{got: true}[want]
	switch {
	case (got == want) != self:
		t.Errorf("%s: %#v == %#v is %v", where, got, want, got == want)
	case tuple.Hash(got) != tuple.Hash(want):
		t.Errorf("%s: Hash(%#v) != Hash(%#v)", where, got, want)
	case tuple.Compare(got, want) != tuple.Compare(want, want):
		t.Errorf("%s: Compare(%#v, %#v) = %d", where, got, want, tuple.Compare(got, want))
	case reflect.TypeOf(got) != reflect.TypeOf(want):
		t.Errorf("%s: type %T, want %T", where, got, want)
	case fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want):
		t.Errorf("%s: %%v prints %v, want %v", where, got, want)
	case inWant != self || inGot != self:
		t.Errorf("%s: as a map key %#v finds %#v: %v/%v", where, got, want, inWant, inGot)
	}
	if f, ok := want.(float64); ok && math.Signbit(got.(float64)) != math.Signbit(f) {
		t.Errorf("%s: sign of %v lost", where, got)
	}
}

// TestBatchFieldEdgeValues holds every field a batch hands out, through
// Batch.Row and through a cursor, to the same value boxed on its own,
// over each scalar kind's edge values. Fields point into the batch's
// column vectors (and string fields into the file's text), so the test
// then keeps them past everything that could free what they point at:
// the batch's eviction from the cache, the file's overwrite and delete,
// two collections and fresh allocations of the same sizes. They must
// still read their values.
func TestBatchFieldEdgeValues(t *testing.T) {
	fs := dfstest.New(t)
	if err := fs.WriteFile("edge/part-00000", []byte(edgeText)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("other/part-00000", []byte(strings.Repeat("-7\t7.5\tseven\n", len(edgeRows)))); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCachedBatchBytes = 1 // each insert evicts the entry before it
	e := New(fs, cfg)
	var decode time.Duration
	ds, err := e.loadDataset("edge", &decode)
	if err != nil {
		t.Fatal(err)
	}
	bb := tuple.NewBatchBuilder(len(builtRows))
	for _, r := range builtRows {
		bb.Append(r)
	}
	var kept, wants []tuple.Value
	var where []string
	for _, c := range []struct {
		name  string
		batch *tuple.Batch
		rows  []tuple.Tuple
	}{{"decoded", ds.batches[0], edgeRows}, {"built", bb.Finish(), builtRows}} {
		if c.batch.Len() != len(c.rows) {
			t.Fatalf("%s: %d rows, want %d", c.name, c.batch.Len(), len(c.rows))
		}
		cur := c.batch.Cursor()
		for i, want := range c.rows {
			for via, row := range map[string]tuple.Tuple{"Row": c.batch.Row(i), "cursor": cur.Row(i)} {
				if len(row) != len(want) {
					t.Fatalf("%s %s %d: %v, want %v", c.name, via, i, row, want)
				}
				for j, v := range row {
					w := fmt.Sprintf("%s %s row %d field %d", c.name, via, i, j)
					checkField(t, w, v, want[j])
					kept, wants, where = append(kept, v), append(wants, want[j]), append(where, w)
				}
			}
		}
	}
	ds = nil

	if _, err := e.loadDataset("other", &decode); err != nil {
		t.Fatal(err)
	}
	if paths := e.cache.Paths(); len(paths) != 1 || paths[0] != "other" {
		t.Fatalf("cache holds %v after loading other, want [other]", paths)
	}
	if err := fs.WriteFile("edge/part-00000", []byte("1\t2.5\tzzzzzzzzzzzzzz\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("edge"); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	junk := make([][]int64, 256)
	for i := range junk {
		junk[i] = make([]int64, len(edgeRows))
		for k := range junk[i] {
			junk[i][k] = -1
		}
	}
	runtime.KeepAlive(junk)
	for i, v := range kept {
		checkField(t, where[i]+" (kept)", v, wants[i])
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

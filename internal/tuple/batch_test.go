package tuple

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// batchRows is a mixed corpus: uniform typed rows, ragged widths,
// nulls, type promotions, nested tuples/bags, and escape-needing
// strings.
func batchRows() []Tuple {
	return []Tuple{
		{int64(1), "alice", 3.5},
		{int64(2), "bob", 4.25},
		{int64(3), "carol\twith\ttabs", 0.125},
		{nil, "dave", nil},
		{int64(5)},
		{int64(6), "eve", 1.0, "extra", int64(9)},
		{int64(7), int64(42), 2.0}, // promotes column 1 int-after-string
		{Tuple{int64(1), "x"}, &Bag{Tuples: []Tuple{{int64(2)}, {"y", nil}}}, math.Inf(1)},
		{},
		{"back\\slash", "new\nline", -0.0},
	}
}

// textBatch returns the batch DecodeTextBatch decodes from the text
// encoding of rows, one AppendText line per row.
func textBatch(tb testing.TB, rows []Tuple) *Batch {
	tb.Helper()
	var text []byte
	for _, r := range rows {
		text = append(AppendText(text, r), '\n')
	}
	b, err := DecodeTextBatch(text)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestBatchRoundTripRows(t *testing.T) {
	rows := batchRows()
	b := textBatch(t, rows)
	if b.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
	}
	if want := int64(len(encodeRows(len(rows), func(i int) Tuple { return rows[i] }))); b.SrcBytes() != want {
		t.Fatalf("SrcBytes = %d, want %d", b.SrcBytes(), want)
	}
	for i, want := range rows {
		got := b.Row(i)
		if CompareTuples(got, want) != 0 {
			t.Fatalf("row %d: got %v, want %v", i, got, want)
		}
	}
}

func TestBatchTextDecodeMatchesReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range batchRows() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	b, err := DecodeTextBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.SrcBytes() != int64(len(data)) {
		t.Fatalf("SrcBytes = %d, want %d", b.SrcBytes(), len(data))
	}
	r := NewReader(bytes.NewReader(data))
	i := 0
	for {
		want, err := r.Read()
		if err != nil {
			break
		}
		if i >= b.Len() {
			t.Fatalf("batch has %d rows, reader yields more", b.Len())
		}
		if CompareTuples(b.Row(i), want) != 0 {
			t.Fatalf("row %d: batch %v, reader %v", i, b.Row(i), want)
		}
		i++
	}
	if i != b.Len() {
		t.Fatalf("batch has %d rows, reader yielded %d", b.Len(), i)
	}
}

// TestBatchWideningRows appends rows in strictly widening width order:
// the batch must stay ragged even though the final column count equals
// the last row's width, so early rows must not come back padded with
// trailing nulls. Regression test — ragged was previously only set
// when a row arrived narrower than the columns already present.
func TestBatchWideningRows(t *testing.T) {
	rows := []Tuple{
		{int64(1), int64(2)},
		{int64(1), int64(2), int64(3), int64(4)},
	}
	b := textBatch(t, rows)
	for i, want := range rows {
		got := b.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d has width %d, want %d (%v)", i, len(got), len(want), got)
		}
		if CompareTuples(got, want) != 0 {
			t.Fatalf("row %d: got %v, want %v", i, got, want)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	if eb, err := DecodeTextBatch(nil); err != nil || eb.Len() != 0 {
		t.Fatalf("empty text decode: %v, %d rows", err, eb.Len())
	}
}

func TestEncodeTextLenMatches(t *testing.T) {
	cases := append(batchRows(),
		Tuple{""},
		Tuple{"", nil, ""},
		Tuple{float64(1e300), float64(-1.5e-9), int64(math.MaxInt64), int64(math.MinInt64)},
		Tuple{Tuple{}, &Bag{}},
		Tuple{Tuple{Tuple{"\t", &Bag{Tuples: []Tuple{{"\n\\"}}}}}},
		Tuple{strings.Repeat("\t\\\n", 7)},
	)
	for i, tc := range cases {
		if got, want := EncodeTextLen(tc), len(EncodeText(tc)); got != want {
			t.Errorf("case %d %v: EncodeTextLen = %d, len(EncodeText) = %d", i, tc, got, want)
		}
		for _, v := range tc {
			if got, want := TextLen(v), len(ToString(v)); got != want {
				t.Errorf("case %d value %v: TextLen = %d, len(ToString) = %d", i, v, got, want)
			}
		}
	}
}

func TestHashEqualityProperties(t *testing.T) {
	// Values that compare equal must hash equal, across int/float.
	pairs := [][2]Value{
		{int64(3), float64(3)},
		{int64(0), float64(0)},
		{int64(-7), float64(-7)},
		{Tuple{int64(1), "a"}, Tuple{float64(1), "a"}},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) != 0 {
			t.Fatalf("%v and %v should compare equal", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("Hash(%v) != Hash(%v)", p[0], p[1])
		}
	}
	// Structurally distinct values should (overwhelmingly) differ.
	distinct := []Value{
		nil, int64(1), "1", float64(1.5), "1.5",
		Tuple{int64(1)}, &Bag{Tuples: []Tuple{{int64(1)}}},
		Tuple{}, &Bag{}, "", "a", "b", "ab", "ba",
		Tuple{"a", "b"}, Tuple{"ab"}, Tuple{Tuple{"a"}, "b"},
	}
	seen := map[uint64]Value{}
	for _, v := range distinct {
		h := Hash(v)
		if prev, dup := seen[h]; dup {
			t.Errorf("collision: Hash(%v) == Hash(%v)", v, prev)
		}
		seen[h] = v
	}
}

func TestHash64Determinism(t *testing.T) {
	inputs := []string{"", "a", "abcdefg", "abcdefgh", "abcdefghi",
		strings.Repeat("fingerprint", 50)}
	for _, s := range inputs {
		if Hash64(s, 1) != Hash64(s, 1) {
			t.Fatalf("Hash64(%q) not deterministic", s)
		}
		if Hash64(s, 1) == Hash64(s, 2) && s != "" {
			t.Errorf("seeds collide on %q", s)
		}
	}
	if Hash64("abcdefgh", 0) == Hash64("abcdefgh\x00", 0) {
		t.Error("length not mixed in")
	}
}

func BenchmarkBatchRowIterate(b *testing.B) {
	rows := make([]Tuple, 1000)
	for i := range rows {
		rows[i] = Tuple{int64(i), "user", float64(i), "payload-string-of-some-width"}
	}
	batch := textBatch(b, rows)
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch.Len(); r++ {
				if t := batch.Row(r); len(t) != 4 {
					b.Fatal("bad row")
				}
			}
		}
	})
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		cur := batch.Cursor()
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch.Len(); r++ {
				if t := cur.Row(r); len(t) != 4 {
					b.Fatal("bad row")
				}
			}
		}
	})
	// The PigMix prologue: page_views rows of which a FOREACH keeps two
	// columns (user, estimated_revenue), read whole and read pruned.
	pv := make([]Tuple, 1000)
	for i := range pv {
		pv[i] = pageViewsRow(i)
	}
	pvBatch := textBatch(b, pv)
	for _, c := range []struct {
		name string
		cur  *RowCursor
	}{
		{"pageviews-cursor", pvBatch.Cursor()},
		{"pageviews-pruned", pvBatch.ColumnCursor([]int{0, 6})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < pvBatch.Len(); r++ {
					if t := c.cur.Row(r); len(t) != 9 {
						b.Fatal("bad row")
					}
				}
			}
		})
	}
}

// TestColumnCursor checks a pruned row against Batch.Row over a ragged
// batch: the same width, the read columns equal, every other field nil,
// also after a wider row has filled the shared buffer.
func TestColumnCursor(t *testing.T) {
	rows := []Tuple{
		{int64(1), "a", 2.5, Tuple{"n", int64(1)}},
		{int64(2)},
		{int64(3), "c", nil, NewBag(Tuple{"x"}), "extra", int64(9)},
		{},
		{int64(5), "e", 0.5},
	}
	batch := textBatch(t, rows)
	for _, cols := range [][]int{{}, {0}, {1, 3}, {0, 2, 5}, {4, 7}, {0, 1, 2, 3, 4, 5}} {
		read := map[int]bool{}
		for _, j := range cols {
			read[j] = true
		}
		cur := batch.ColumnCursor(cols)
		for i := 0; i < batch.Len(); i++ {
			got, want := cur.Row(i), batch.Row(i)
			if len(got) != len(want) {
				t.Fatalf("cols %v row %d: width %d, want %d", cols, i, len(got), len(want))
			}
			for j := range want {
				if read[j] && !Equal(got[j], want[j]) || !read[j] && got[j] != nil {
					t.Fatalf("cols %v row %d: got %v, full row %v", cols, i, got, want)
				}
			}
		}
	}
}

// TestColumnCursorAllocs pins what reading a field costs: nothing. A
// scalar field points into its column vector, so over page_views-shaped
// rows a cursor over any column set, all nine included, reads a batch
// without an allocation.
func TestColumnCursorAllocs(t *testing.T) {
	pv := make([]Tuple, 200)
	for i := range pv {
		pv[i] = pageViewsRow(i)
	}
	batch := textBatch(t, pv)
	sets := [][]int{{}, {0, 6}, {3, 4}, {1, 2, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}}
	for j := 0; j < 9; j++ {
		sets = append(sets, []int{j})
	}
	for _, cols := range sets {
		cur := batch.ColumnCursor(cols)
		n := testing.AllocsPerRun(10, func() {
			for r := 0; r < batch.Len(); r++ {
				if tp := cur.Row(r); len(tp) != 9 {
					t.Fatal("bad row")
				}
			}
		})
		if n != 0 {
			t.Errorf("cursor over %v allocates %v per batch of %d rows", cols, n, batch.Len())
		}
	}
}

// mixedKindRows returns rows whose columns are typed, except that with
// mixed set a first row of other kinds forces every column to the
// boxed (colAny) path.
func mixedKindRows(n int, mixed bool) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{int64(i), "user", float64(i), "payload-string-of-some-width"}
	}
	if mixed {
		rows[0] = Tuple{"s", int64(0), "s", int64(0)} // re-home all columns to colAny
	}
	return rows
}

// TestRowCursorZeroAlloc pins the cursor feed's contract: iterating a
// batch through one reusable cursor performs zero allocations per row,
// over typed and boxed columns alike, while Batch.Row allocates exactly
// one per row, the tuple itself. This is what makes the engine's
// warm-split cursor feed zero-copy rather than merely cheaper.
func TestRowCursorZeroAlloc(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		batch := textBatch(t, mixedKindRows(1000, mixed))
		cur := batch.Cursor()
		perRow := testing.AllocsPerRun(10, func() {
			for r := 0; r < batch.Len(); r++ {
				if tp := cur.Row(r); len(tp) != 4 {
					t.Fatal("bad row")
				}
			}
		}) / float64(batch.Len())
		if perRow != 0 {
			t.Errorf("mixed=%v: cursor iteration allocates %.3f per row, want 0", mixed, perRow)
		}
		rowAllocs := testing.AllocsPerRun(10, func() {
			for r := 0; r < batch.Len(); r++ {
				if tp := batch.Row(r); len(tp) != 4 {
					t.Fatal("bad row")
				}
			}
		}) / float64(batch.Len())
		if rowAllocs != 1 {
			t.Errorf("mixed=%v: Batch.Row allocates %.3f per row, want 1 (the tuple)", mixed, rowAllocs)
		}
	}
}

func BenchmarkEncodeTextLen(b *testing.B) {
	t := Tuple{int64(12345), "some-user-name", 3.14159, Tuple{int64(1), "x"}, "trailing field"}
	b.Run("len", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if EncodeTextLen(t) == 0 {
				b.Fatal("zero")
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(EncodeText(t)) == 0 {
				b.Fatal("zero")
			}
		}
	})
}

package tuple

import (
	"math"
	"strings"
)

// Batch is an immutable columnar representation of a decoded dataset
// slice: one part file's tuples held as typed column vectors instead of
// a []Tuple of boxed values. A part file is decoded into a Batch once;
// every later reader iterates rows straight out of the vectors without
// touching the text codec, and bytes are re-encoded only when they must
// actually land on the DFS.
//
// Rows may be ragged (Pig tuples carry no schema); widths records each
// row's arity when they differ. A column holds a single scalar type
// (with a null mask) when every value in it agrees, and falls back to a
// boxed []Value otherwise — PigMix-shaped data, where a column is all
// int64 or all string, takes the typed path.
//
// A Batch is immutable: a column vector is only appended to while its
// builder builds it, and nothing writes it after Finish — nor the
// typed vector promote drops once it has boxed its values. So a scalar
// field read from a batch is not copied out: its Value points into the
// column vector (ref), and reading it allocates nothing. A retained
// field keeps its whole column vector alive, as a retained string field
// keeps the text it slices alive (see DecodeTextBatchString).
type Batch struct {
	n      int
	cols   []column
	widths []int32 // nil when every row has len(cols) fields

	// text is the text the batch was decoded from and lines[i] the
	// offset of row i's line in it, lines[n] == len(text), when the
	// decoder proved that every line re-renders byte for byte; both are
	// empty otherwise. See AppendRows.
	text  string
	lines []uint32

	// srcBytes is the text-encoded length of the batch including
	// newlines — exactly len(data) of the part file it was decoded
	// from, or Writer.Bytes() of the file it was encoded to. The
	// engine's split sizing and simulated-cost accounting read this, so
	// a cached batch reproduces byte-identical splits and SimTime.
	srcBytes int64
	mem      int64
}

type colKind uint8

const (
	colInt colKind = iota
	colFloat
	colString
	colAny
)

type column struct {
	kind colKind
	// fixed marks the kind as decided by a non-null value; until then
	// the kind is provisional (a column of leading nulls stays colInt
	// until its first real value re-homes it).
	fixed  bool
	nulls  []bool // nil when the column has no nulls (typed kinds only)
	ints   []int64
	floats []float64
	strs   []string
	vals   []Value
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// SrcBytes returns the batch's text-encoded byte length (newlines
// included).
func (b *Batch) SrcBytes() int64 { return b.srcBytes }

// MemBytes estimates the memory the batch adds beyond the DFS's file
// text, used for cache budget accounting: column vectors and null masks,
// a header per string, a box per boxed value, row widths and line
// offsets, the bytes of the strings the decoder allocated (the unescaped
// fields), and the text the batch was decoded from unless the DFS holds
// that text itself (see DecodeTextBatchString).
func (b *Batch) MemBytes() int64 { return b.mem }

// AppendRows appends the storage lines of rows [lo, hi) to dst, each
// with its newline: what AppendText of b.Row(i) and a newline append for
// each i. When the decoder proved that every line of the batch's text
// re-renders byte for byte, the run is copied from the text as one span,
// and nothing is rendered; otherwise each row is rendered from its
// columns, which allocates nothing either.
func (b *Batch) AppendRows(dst []byte, lo, hi int) []byte {
	if b.lines != nil {
		return append(dst, b.text[b.lines[lo]:b.lines[hi]]...)
	}
	for i := lo; i < hi; i++ {
		for j := range b.width(i) {
			if j > 0 {
				dst = append(dst, '\t')
			}
			dst = appendText(dst, b.cols[j].value(i))
		}
		dst = append(dst, '\n')
	}
	return dst
}

// width is row i's field count.
func (b *Batch) width(i int) int {
	if b.widths != nil {
		return int(b.widths[i])
	}
	return len(b.cols)
}

// Row materializes row i as a Tuple. The tuple is freshly allocated per
// call, and is the call's only allocation: its fields alias the batch
// (a scalar points into its column vector, a string's bytes into the
// text it was decoded from, a nested tuple or bag is the batch's own)
// and must be treated as immutable, which is the engine-wide contract
// for tuples already.
func (b *Batch) Row(i int) Tuple {
	w := b.width(i)
	t := make(Tuple, w)
	for j := 0; j < w; j++ {
		t[j] = b.cols[j].value(i)
	}
	return t
}

// RowCursor materializes rows through one reusable buffer, avoiding
// Row's per-call tuple allocation, and boxes only the columns it was
// built to read. The tuple returned by Row keeps the row's full width,
// so positional references and len(t) behave as with Batch.Row, but a
// field the cursor does not read is nil. It is valid only until the
// next Row call on the same cursor — callers must hand it exclusively
// to consumers that copy what they keep and read no other column (see
// mapreduce's map feed, derived from the plan once per job). Fields
// alias the batch exactly as with Batch.Row, so Row allocates nothing;
// a field stays valid after the next Row call, which only rewrites the
// buffer. A cursor is not safe for concurrent use; each task takes its
// own.
type RowCursor struct {
	b    *Batch
	cols []int // the columns Row fills, ascending; nil fills every one
	buf  Tuple
}

// Cursor returns a reusable row cursor over every column of the batch.
func (b *Batch) Cursor() *RowCursor { return b.ColumnCursor(nil) }

// ColumnCursor returns a reusable row cursor that fills only cols, which
// must be ascending; every other field of its rows is nil. A nil cols
// fills every column. Columns the batch does not have are skipped, as a
// row too short for them is.
func (b *Batch) ColumnCursor(cols []int) *RowCursor {
	return &RowCursor{b: b, cols: cols, buf: make(Tuple, len(b.cols))}
}

// Row returns row i backed by the cursor's buffer. Fields outside the
// cursor's columns are never written, so they stay nil.
func (c *RowCursor) Row(i int) Tuple {
	b := c.b
	w := b.width(i)
	if cap(c.buf) < w {
		c.buf = make(Tuple, w)
	}
	t := c.buf[:w]
	if c.cols == nil {
		for j := range t {
			t[j] = b.cols[j].value(i)
		}
		return t
	}
	for _, j := range c.cols {
		if j >= w {
			break
		}
		t[j] = b.cols[j].value(i)
	}
	return t
}

// value returns row i's field. A scalar field points into its column
// vector (ref) instead of being copied into a box of its own, so
// reading it allocates nothing.
func (c *column) value(i int) Value {
	switch c.kind {
	case colInt:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return ref(&c.ints[i])
	case colFloat:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return ref(&c.floats[i])
	case colString:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return ref(&c.strs[i])
	default:
		return c.vals[i]
	}
}

// BatchBuilder accumulates tuples into a Batch.
type BatchBuilder struct {
	cols []column
	n    int
	// hint is the row count the builder was sized for: a column vector
	// is allocated at that capacity when its first value arrives, so a
	// builder told the truth never regrows one.
	hint     int
	widths   []int32
	ragged   bool
	srcBytes int64

	// The decoder's own state (DecodeTextBatchString). canon holds while
	// every field so far renders back to its text, and lines are the
	// offsets in text of the lines added so far, kept only while it
	// holds. owned counts the bytes the batch keeps that nobody else
	// holds: the strings the decoder allocated, and the text itself
	// unless the DFS shares it.
	canon bool
	text  string
	lines []uint32
	owned int64
}

// NewBatchBuilder returns a builder sized for about n rows.
func NewBatchBuilder(n int) *BatchBuilder {
	if n < 0 {
		n = 0
	}
	return &BatchBuilder{hint: n, widths: make([]int32, 0, n)}
}

// appendLine adds the row one storage line decodes to, without a tuple
// in between: each field goes from the line straight into its column.
func (bb *BatchBuilder) appendLine(line string, escaped bool) {
	w := 0
	for more := line != ""; more; w++ {
		f := line
		if tab := strings.IndexByte(line, '\t'); tab >= 0 {
			f, line = line[:tab], line[tab+1:]
		} else {
			more = false
		}
		if escaped && strings.IndexByte(f, '\\') >= 0 {
			f = unescapeField(f)
			bb.owned += int64(len(f))
		}
		if !bb.col(w).appendField(f, bb.n, bb.hint, bb.canon) {
			bb.canon = false
		}
	}
	bb.endRow(w)
}

// col returns column j of the row being added, creating it when the
// row is the first this wide. It inlines: every field of every row
// passes through it.
func (bb *BatchBuilder) col(j int) *column {
	if j == len(bb.cols) {
		bb.addCol()
	}
	return &bb.cols[j]
}

// addCol appends a column introduced by a row wider than all before it:
// the batch is ragged, and the column is padded with absent slots for
// every earlier row (never read back — widths gates them) so vectors
// stay row-index aligned.
func (bb *BatchBuilder) addCol() {
	bb.cols = append(bb.cols, column{kind: colInt})
	c := &bb.cols[len(bb.cols)-1]
	for i := 0; i < bb.n; i++ {
		c.appendNull(i, bb.hint)
	}
	bb.ragged = bb.ragged || bb.n > 0
}

// endRow closes a row of width w whose fields are already in their
// columns.
func (bb *BatchBuilder) endRow(w int) {
	if w != len(bb.cols) {
		bb.ragged = true
		for j := w; j < len(bb.cols); j++ {
			bb.cols[j].appendNull(bb.n, bb.hint)
		}
	}
	bb.widths = append(bb.widths, int32(w))
	bb.n++
}

// AddSrcBytes accumulates the text-encoded byte length the batch
// stands for.
func (bb *BatchBuilder) AddSrcBytes(n int64) { bb.srcBytes += n }

// The column appends take n, the column's current height, and hint,
// the height it is expected to reach (see sized).

// appendField adds the value one unescaped text field decodes to,
// boxing it only when it is nested or the column is already mixed. With
// check set it reports whether AppendText renders the value as s again;
// without, it reports true. A string always does: check is set only for
// text without escapes, where no string holds a byte AppendText escapes.
func (c *column) appendField(s string, n, hint int, check bool) bool {
	if s == "" {
		c.appendNull(n, hint)
		return true
	}
	if v, ok := parseBracketed(s); ok {
		c.appendBoxed(v, n)
		return !check || nestedCanonical(s)
	}
	switch kind, x, f := scanScalar(s); kind {
	case colInt:
		c.appendInt(x, n, hint)
		return !check || canonicalInt(s)
	case colFloat:
		c.appendFloat(f, n, hint)
		return !check || canonicalFloat(s, f)
	default:
		c.appendString(s, n, hint)
		return true
	}
}

func (c *column) appendInt(x int64, n, hint int) {
	if c.typedAs(colInt, n, hint) {
		c.ints = append(sized(c.ints, hint), x)
		c.padNulls()
		return
	}
	c.appendBoxed(x, n)
}

func (c *column) appendFloat(x float64, n, hint int) {
	if c.typedAs(colFloat, n, hint) {
		c.floats = append(sized(c.floats, hint), x)
		c.padNulls()
		return
	}
	c.appendBoxed(x, n)
}

func (c *column) appendString(x string, n, hint int) {
	if c.typedAs(colString, n, hint) {
		c.strs = append(sized(c.strs, hint), x)
		c.padNulls()
		return
	}
	c.appendBoxed(x, n)
}

// appendBoxed adds v as a boxed value, converting a typed column first.
func (c *column) appendBoxed(v Value, n int) {
	if c.kind != colAny {
		c.promote(n)
	}
	c.vals = append(c.vals, v)
}

// typedAs reports whether a non-null value of kind k belongs in the
// column's typed vector. The first non-null value decides a provisional
// column's kind, re-homing any leading-null placeholders into the new
// kind's vector.
func (c *column) typedAs(k colKind, n, hint int) bool {
	if !c.fixed && c.kind != colAny {
		c.fixed = true
		if c.kind != k {
			c.kind = k
			c.ints = nil
			switch k {
			case colFloat:
				c.floats = make([]float64, n, max(hint, n+8))
			case colString:
				c.strs = make([]string, n, max(hint, n+8))
			}
		}
	}
	return c.kind == k
}

// sized returns s, allocated at the expected final height if it has no
// storage yet.
func sized[T any](s []T, hint int) []T {
	if s == nil && hint > 0 {
		return make([]T, 0, hint)
	}
	return s
}

func (c *column) appendNull(n, hint int) {
	if c.kind == colAny {
		c.vals = append(c.vals, nil)
		return
	}
	if c.nulls == nil {
		c.nulls = make([]bool, n, max(hint, n+8))
	}
	c.nulls = append(c.nulls, true)
	switch c.kind {
	case colInt:
		c.ints = append(sized(c.ints, hint), 0)
	case colFloat:
		c.floats = append(c.floats, 0)
	case colString:
		c.strs = append(c.strs, "")
	}
}

// padNulls keeps the null mask aligned after a non-null append.
func (c *column) padNulls() {
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// promote converts a typed column to boxed values. The boxes point into
// the typed vectors it drops, which nothing writes again.
func (c *column) promote(n int) {
	vals := make([]Value, 0, n+1)
	for i := 0; i < n; i++ {
		vals = append(vals, c.value(i))
	}
	*c = column{kind: colAny, vals: vals}
}

// Finish seals the builder into a Batch.
func (bb *BatchBuilder) Finish() *Batch {
	b := &Batch{n: bb.n, cols: bb.cols, srcBytes: bb.srcBytes}
	if bb.ragged {
		b.widths = bb.widths
	}
	if bb.canon {
		b.text, b.lines = bb.text, append(bb.lines, uint32(len(bb.text)))
	}
	b.mem = b.computeMem(bb.owned)
	return b
}

// computeMem charges the batch's own memory (see MemBytes) plus owned,
// the bytes its builder counted as the batch's alone. A string field is
// charged its header: its bytes are the text's or the decoder's, both
// counted in owned when nobody else holds them.
func (b *Batch) computeMem(owned int64) int64 {
	mem := 64 + owned // 64: struct overhead
	mem += int64(4*len(b.widths) + 4*len(b.lines))
	for i := range b.cols {
		c := &b.cols[i]
		mem += 64 + int64(len(c.nulls))
		mem += int64(8 * len(c.ints))
		mem += int64(8 * len(c.floats))
		mem += int64(16 * len(c.strs))
		for _, v := range c.vals {
			mem += valueMem(v)
		}
	}
	return mem
}

func valueMem(v Value) int64 {
	switch x := v.(type) {
	case nil, int64, float64, string:
		return 16
	case Tuple:
		return tupleMem(x)
	case *Bag:
		m := int64(24)
		for _, t := range x.Tuples {
			m += tupleMem(t)
		}
		return m
	}
	return 16
}

func tupleMem(t Tuple) int64 {
	m := int64(24)
	for _, f := range t {
		m += 16 + valueMem(f)
	}
	return m
}

// DecodeTextBatch decodes one part file's text bytes into a Batch; it
// is DecodeTextBatchString of one copy of data, which nobody else holds.
func DecodeTextBatch(data []byte) (*Batch, error) {
	return DecodeTextBatchString(string(data), false)
}

// DecodeTextBatchString decodes one part file's text into a Batch, with
// SrcBytes set to len(s). The result is the batch that DecodeText of
// every line, appended in order, would build — but no line, tuple or
// boxed scalar is materialized on the way: each tab-separated field is
// typed (see the grammar in codec.go) and appended to its column
// vector. String fields without escapes are substrings of s, so a
// batch's string columns share s's backing bytes instead of a copy, and
// keeping any one string alive retains all of s. The engine passes what
// dfs.ReadString returns, so a decoded batch adds no second copy of its
// text. shared says whether the DFS itself holds s (the in-memory
// backend's committed contents): MemBytes then charges nothing for s's
// bytes, and otherwise all of them, as memory the batch may keep alive
// alone. An unescaped field is always charged the string the decoder
// built.
//
// While it decodes, the decoder also proves or disproves, field by
// field, that every line re-renders byte for byte (AppendText of the
// row is the line). That holds for text without escapes whose last
// line ends in a newline and whose numbers are written as AppendText
// writes them: "7", "-3" and "1.5" but not "007", "+3", "-0", "1.50" or
// ".5". A batch that keeps the proof keeps s and its line offsets, 4
// bytes a row, and AppendRows copies its lines instead of rendering
// them.
func DecodeTextBatchString(s string, shared bool) (*Batch, error) {
	rows := strings.Count(s, "\n")
	if s != "" && s[len(s)-1] != '\n' {
		rows++
	}
	bb := NewBatchBuilder(rows)
	bb.AddSrcBytes(int64(len(s)))
	if !shared {
		bb.owned = int64(len(s))
	}
	// Escapes are rare: one scan of the file spares every field its own.
	escaped := strings.IndexByte(s, '\\') >= 0
	bb.canon = !escaped && (s == "" || s[len(s)-1] == '\n') && uint64(len(s)) < math.MaxUint32
	if bb.canon {
		bb.text, bb.lines = s, make([]uint32, 0, rows+1)
	}
	for s != "" {
		if bb.canon {
			bb.lines = append(bb.lines, uint32(len(bb.text)-len(s)))
		}
		line := s
		if nl := strings.IndexByte(s, '\n'); nl >= 0 {
			line, s = s[:nl], s[nl+1:]
		} else {
			s = ""
		}
		bb.appendLine(line, escaped)
	}
	return bb.Finish(), nil
}

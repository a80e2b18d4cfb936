package tuple

import "bytes"

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
type Batch struct {
	n      int
	cols   []column
	widths []int32 // nil when every row has len(cols) fields

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

// MemBytes estimates the resident size of the batch, used for cache
// budget accounting.
func (b *Batch) MemBytes() int64 { return b.mem }

// Row materializes row i as a Tuple. The tuple is freshly allocated per
// call; its field values (strings, nested tuples and bags) are shared
// with the batch and must be treated as immutable, which is the
// engine-wide contract for tuples already.
func (b *Batch) Row(i int) Tuple {
	w := len(b.cols)
	if b.widths != nil {
		w = int(b.widths[i])
	}
	t := make(Tuple, w)
	for j := 0; j < w; j++ {
		t[j] = b.cols[j].value(i)
	}
	return t
}

// RowCursor materializes rows through one reusable buffer, avoiding
// Row's per-call tuple allocation. The tuple returned by Row is valid
// only until the next Row call on the same cursor — callers must hand
// it exclusively to consumers that do not retain it (the engine checks
// the plan shape before choosing cursor feeds). Field values are
// shared with the batch, exactly as with Batch.Row. A cursor is not
// safe for concurrent use; each task takes its own.
type RowCursor struct {
	b   *Batch
	buf Tuple
}

// Cursor returns a reusable row cursor over the batch.
func (b *Batch) Cursor() *RowCursor {
	return &RowCursor{b: b, buf: make(Tuple, len(b.cols))}
}

// Row returns row i backed by the cursor's buffer.
func (c *RowCursor) Row(i int) Tuple {
	b := c.b
	w := len(b.cols)
	if b.widths != nil {
		w = int(b.widths[i])
	}
	if cap(c.buf) < w {
		c.buf = make(Tuple, w)
	}
	t := c.buf[:w]
	for j := 0; j < w; j++ {
		t[j] = b.cols[j].value(i)
	}
	return t
}

func (c *column) value(i int) Value {
	switch c.kind {
	case colInt:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return c.ints[i]
	case colFloat:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return c.floats[i]
	case colString:
		if c.nulls != nil && c.nulls[i] {
			return nil
		}
		return c.strs[i]
	default:
		return c.vals[i]
	}
}

// BatchBuilder accumulates tuples into a Batch.
type BatchBuilder struct {
	cols     []column
	n        int
	widths   []int32
	ragged   bool
	srcBytes int64
}

// NewBatchBuilder returns a builder sized for about n rows.
func NewBatchBuilder(n int) *BatchBuilder {
	if n < 0 {
		n = 0
	}
	return &BatchBuilder{widths: make([]int32, 0, n)}
}

// Append adds one row. The builder keeps references to t's values; the
// caller must not mutate them afterwards.
func (bb *BatchBuilder) Append(t Tuple) {
	if len(t) > len(bb.cols) && bb.n > 0 {
		// Earlier rows are narrower than this one: the batch is ragged
		// even though the column count will now match len(t), so mark
		// it before the widening loop erases the evidence.
		bb.ragged = true
	}
	for len(bb.cols) < len(t) {
		// A wider row introduces a column late: pad it with absent
		// slots for every earlier row (never read back — widths gates
		// them) so vectors stay row-index aligned.
		bb.cols = append(bb.cols, column{kind: colInt})
		c := &bb.cols[len(bb.cols)-1]
		for i := 0; i < bb.n; i++ {
			c.appendNull(i)
		}
	}
	if len(t) != len(bb.cols) {
		bb.ragged = true
	}
	bb.widths = append(bb.widths, int32(len(t)))
	for j := range bb.cols {
		if j < len(t) {
			bb.cols[j].append(t[j], bb.n)
		} else {
			bb.cols[j].appendNull(bb.n)
		}
	}
	bb.n++
}

// AddSrcBytes accumulates the text-encoded byte length the batch
// stands for.
func (bb *BatchBuilder) AddSrcBytes(n int64) { bb.srcBytes += n }

// append adds v to the column, promoting the column to boxed values on
// the first type mismatch. n is the column's current height.
func (c *column) append(v Value, n int) {
	if c.kind == colAny {
		c.vals = append(c.vals, v)
		return
	}
	if v == nil {
		c.appendNull(n)
		return
	}
	switch x := v.(type) {
	case int64:
		if !c.fixed {
			c.setKind(colInt, n)
		}
		if c.kind == colInt {
			c.ints = append(c.ints, x)
			c.padNulls()
			return
		}
	case float64:
		if !c.fixed {
			c.setKind(colFloat, n)
		}
		if c.kind == colFloat {
			c.floats = append(c.floats, x)
			c.padNulls()
			return
		}
	case string:
		if !c.fixed {
			c.setKind(colString, n)
		}
		if c.kind == colString {
			c.strs = append(c.strs, x)
			c.padNulls()
			return
		}
	}
	c.promote(n)
	c.vals = append(c.vals, v)
}

// setKind decides a provisional column's kind on its first non-null
// value, re-homing any leading-null placeholders into the new kind's
// vector.
func (c *column) setKind(k colKind, n int) {
	if c.kind == k {
		c.fixed = true
		return
	}
	c.kind = k
	c.fixed = true
	c.ints, c.floats, c.strs = nil, nil, nil
	switch k {
	case colFloat:
		c.floats = make([]float64, n, n+8)
	case colString:
		c.strs = make([]string, n, n+8)
	}
}

func (c *column) appendNull(n int) {
	if c.kind == colAny {
		c.vals = append(c.vals, nil)
		return
	}
	if c.nulls == nil {
		c.nulls = make([]bool, n, n+8)
	}
	c.nulls = append(c.nulls, true)
	switch c.kind {
	case colInt:
		c.ints = append(c.ints, 0)
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

// promote converts a typed column to boxed values.
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
	b.mem = b.computeMem()
	return b
}

func (b *Batch) computeMem() int64 {
	mem := int64(64) // struct overhead
	if b.widths != nil {
		mem += int64(4 * len(b.widths))
	}
	for i := range b.cols {
		c := &b.cols[i]
		mem += 64 + int64(len(c.nulls))
		mem += int64(8 * len(c.ints))
		mem += int64(8 * len(c.floats))
		for _, s := range c.strs {
			mem += 16 + int64(len(s))
		}
		for _, v := range c.vals {
			mem += valueMem(v)
		}
	}
	return mem
}

func valueMem(v Value) int64 {
	switch x := v.(type) {
	case nil:
		return 16
	case int64, float64:
		return 16
	case string:
		return 16 + int64(len(x))
	case Tuple:
		m := int64(24)
		for _, f := range x {
			m += 16 + valueMem(f)
		}
		return m
	case *Bag:
		m := int64(24)
		for _, t := range x.Tuples {
			m += valueMem(t)
		}
		return m
	}
	return 16
}

// BatchOf builds a batch from already-decoded rows, stamping it with
// the text-encoded byte length the rows occupy on the DFS (the write
// path knows it from the Writer).
func BatchOf(rows []Tuple, srcBytes int64) *Batch {
	bb := NewBatchBuilder(len(rows))
	for _, t := range rows {
		bb.Append(t)
	}
	bb.AddSrcBytes(srcBytes)
	return bb.Finish()
}

// DecodeTextBatch decodes one part file's text bytes into a Batch. It
// is equivalent to reading every line through Reader and collecting the
// tuples, with SrcBytes set to len(data).
func DecodeTextBatch(data []byte) (*Batch, error) {
	bb := NewBatchBuilder(bytes.Count(data, []byte{'\n'}) + 1)
	bb.AddSrcBytes(int64(len(data)))
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		if nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		bb.Append(DecodeText(string(line)))
	}
	return bb.Finish(), nil
}

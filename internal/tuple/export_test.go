package tuple

// Production builds batches only from text (DecodeTextBatchString).
// The row-at-a-time oracle (rowDecodeBatch) builds them from decoded
// tuples, one boxed value at a time.

// Append adds one row. The builder keeps references to t's values; the
// caller must not mutate them afterwards.
func (bb *BatchBuilder) Append(t Tuple) {
	for j, v := range t {
		bb.col(j).append(v, bb.n, bb.hint)
	}
	bb.endRow(len(t))
}

// append adds v to the column, promoting the column to boxed values on
// the first type mismatch.
func (c *column) append(v Value, n, hint int) {
	if c.kind == colAny {
		c.vals = append(c.vals, v) // already boxed: do not box it again
		return
	}
	switch x := v.(type) {
	case nil:
		c.appendNull(n, hint)
	case int64:
		c.appendInt(x, n, hint)
	case float64:
		c.appendFloat(x, n, hint)
	case string:
		c.appendString(x, n, hint)
	default:
		c.appendBoxed(v, n)
	}
}

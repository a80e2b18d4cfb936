package tuple

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text codec stores one tuple per line with tab-separated fields,
// matching PigStorage('\t'). It is schema-less: the type of a field is
// decided from its text alone, by the first rule that accepts the WHOLE
// field —
//
//   - empty → null;
//   - "(…)" / "{…}" that parse completely as the nested rendering of a
//     tuple or bag → Tuple / *Bag (items separated by commas, each
//     typed by the scalar rules below; a field that merely starts with
//     a bracket stays a string);
//   - [+-]digits that fit an int64 → int64 ("007", "-0" and "+5" are
//     ints);
//   - "+Inf" and "-Inf" exactly, or the decimal grammar
//     [+-](digits[.digits] | .digits)[(e|E)[+-]digits] when
//     strconv.ParseFloat accepts it without a range error → float64
//     ("1e5", ".5", "5.", an integer too large for int64);
//   - anything else → string. In particular a numeric-looking prefix
//     does not make a number: "192.168.13.7", "2012-01-05", "555-0123",
//     "1e999", "0x10", "1_000", "NaN" and "-inf" are strings.
//
// Tab, newline and backslash inside strings are written as \t, \n and
// \\ and read back (a backslash before any other byte yields that byte;
// a lone trailing backslash stays).
//
// What round-trips: what the decoder produced. For any bytes x,
// decode(encode(decode(x))) equals decode(x) row for row under Equal,
// which compares numbers across int64 and float64. What changes type:
// encode does not record types, so a float with an integral value comes
// back an int ("5.0" decodes to the float 5, is written "5" and
// re-reads as the int 5; -0.0 re-reads as the int 0). Values the
// decoder never produces do not survive at all: the string "12"
// re-reads as an int, an empty string as null, NaN as the string
// "NaN", a row holding a single null as the empty row, and a string
// with "," or brackets inside a nested tuple splits differently. The
// engine therefore never caches the values it encoded: the batch cache
// holds only what DecodeTextBatchString made of the bytes that landed.
//
// DecodeTextBatchString is the production decoder (text → typed
// columns; DecodeTextBatch is the same over a []byte);
// DecodeText is the row API over the same field rules and the oracle
// the batch kernel is fuzzed against.

// AppendText appends t's storage line (no trailing newline) to dst.
func AppendText(dst []byte, t Tuple) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = appendText(dst, v)
	}
	return dst
}

// EncodeText renders t as one storage line (no trailing newline).
func EncodeText(t Tuple) string {
	var buf [256]byte
	return string(AppendText(buf[:0], t))
}

// appendText appends the escaped text form of one value: ToString(v)
// with tab, newline and backslash escaped, without building the string.
func appendText(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return dst
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return appendFloat(dst, x)
	case string:
		return appendEscaped(dst, x)
	case Tuple:
		return appendNestedTuple(dst, x)
	case *Bag:
		dst = append(dst, '{')
		for i, t := range x.Tuples {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNestedTuple(dst, t)
		}
		return append(dst, '}')
	}
	panic(fmt.Sprintf("tuple: unsupported value type %T", v))
}

func appendNestedTuple(dst []byte, t Tuple) []byte {
	dst = append(dst, '(')
	for i, f := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendText(dst, f)
	}
	return append(dst, ')')
}

// appendEscaped copies s in runs, breaking only at the bytes that need
// a backslash.
func appendEscaped(dst []byte, s string) []byte {
	if longAndClean(s) {
		return append(dst, s...)
	}
	start := 0
	for i := 0; i < len(s); i++ {
		var e byte
		switch s[i] {
		case '\t':
			e = 't'
		case '\n':
			e = 'n'
		case '\\':
			e = '\\'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', e)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// EncodeTextLen returns len(EncodeText(t)) without materializing the
// line. The engine accounts shuffle and spill volume by encoded text
// width on every emitted record; building (and discarding) the string
// for each just to measure it was a measurable allocation hot spot.
func EncodeTextLen(t Tuple) int {
	if len(t) == 0 {
		return 0
	}
	n := len(t) - 1 // the joining tabs
	for _, v := range t {
		raw, esc := textLen(v)
		n += raw + esc
	}
	return n
}

// TextLen returns len(ToString(v)) without materializing the string.
func TextLen(v Value) int {
	raw, _ := textLen(v)
	return raw
}

// textLen returns the rendered length of ToString(v) and how many of
// its bytes appendEscaped would double (tab, newline, backslash).
func textLen(v Value) (raw, esc int) {
	switch x := v.(type) {
	case nil:
		return 0, 0
	case int64:
		return IntTextLen(x), 0
	case float64:
		return FloatTextLen(x), 0
	case string:
		return len(x), countEscapable(x)
	case Tuple:
		raw = 2 // ( )
		if len(x) > 0 {
			raw += len(x) - 1 // commas
		}
		for _, f := range x {
			r, e := textLen(f)
			raw += r
			esc += e
		}
		return raw, esc
	case *Bag:
		raw = 2 // { }
		if len(x.Tuples) > 0 {
			raw += len(x.Tuples) - 1
		}
		for _, t := range x.Tuples {
			r, e := textLen(t)
			raw += r
			esc += e
		}
		return raw, esc
	}
	panic(fmt.Sprintf("tuple: unsupported value type %T", v))
}

// longAndClean reports that s needs no escaping, for strings long
// enough that three vectorized scans beat one byte loop; most of a part
// file's bytes are in such strings.
func longAndClean(s string) bool {
	return len(s) >= 32 && strings.IndexByte(s, '\\') < 0 &&
		strings.IndexByte(s, '\t') < 0 && strings.IndexByte(s, '\n') < 0
}

func countEscapable(s string) int {
	if longAndClean(s) {
		return 0
	}
	n := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\\':
			n++
		}
	}
	return n
}

func unescapeField(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// DecodeText parses one storage line into a tuple. Fields that look like
// integers or floats become numeric values; "(..)" and "{..}" fields are
// parsed as nested tuples/bags; empty fields are null.
func DecodeText(line string) Tuple {
	if line == "" {
		return Tuple{}
	}
	fields := strings.Split(line, "\t")
	t := make(Tuple, len(fields))
	for i, f := range fields {
		t[i] = decodeTextField(unescapeField(f))
	}
	return t
}

func decodeTextField(s string) Value {
	if s == "" {
		return nil
	}
	if v, ok := parseBracketed(s); ok {
		return v
	}
	return parseScalar(s)
}

// parseBracketed parses a field that is entirely one nested tuple or
// bag; anything else that happens to start with a bracket is a scalar.
func parseBracketed(s string) (Value, bool) {
	if (s[0] == '(' && s[len(s)-1] == ')') || (s[0] == '{' && s[len(s)-1] == '}') {
		return parseNested(s)
	}
	return nil, false
}

func parseScalar(s string) Value {
	switch kind, n, f := scanScalar(s); kind {
	case colInt:
		return n
	case colFloat:
		return f
	}
	return s
}

// scanScalar types a non-empty scalar field: integers first, then
// floats; everything else stays a string. Both consumers — the boxed
// row path (parseScalar) and the typed column path (column.appendField)
// — decide through it, so the two cannot drift.
func scanScalar(s string) (kind colKind, n int64, f float64) {
	// Numbers start with a digit, sign, or dot ("NaNCy" and "Inf" are
	// strings); one byte settles most string fields.
	c := s[0]
	if c != '+' && c != '-' && c != '.' && (c < '0' || c > '9') {
		return colString, 0, 0
	}
	if n, ok := parseInt(s); ok {
		return colInt, n, 0
	}
	if f, ok := parseFloat(s); ok {
		return colFloat, 0, f
	}
	return colString, 0, 0
}

// canonicalInt reports whether AppendText writes the int field s back
// as it is: no plus sign, no leading zero, no "-0".
func canonicalInt(s string) bool {
	if s[0] == '-' {
		return s[1] != '0'
	}
	return s[0] != '+' && (s[0] != '0' || len(s) == 1)
}

// canonicalFloat reports whether AppendText writes the float field s,
// which parses as f, back as it is.
func canonicalFloat(s string, f float64) bool {
	var buf [32]byte
	return string(appendFloat(buf[:0], f)) == s
}

// nestedCanonical reports whether AppendText writes the nested value
// parsed from s back as s. Brackets, commas and empty items render as
// they were written, and so does a string item, so it does when every
// number item does. Each number item is one run of s between brackets
// and commas; every such run that reads as a number is checked, which
// also holds a string item with a bracket inside (a piece of "(007})")
// to the rule, erring towards a rendered batch.
func nestedCanonical(s string) bool {
	for s != "" {
		run := s
		if i := strings.IndexAny(s, "(){},"); i >= 0 {
			run, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if run == "" {
			continue
		}
		switch kind, _, f := scanScalar(run); kind {
		case colInt:
			if !canonicalInt(run) {
				return false
			}
		case colFloat:
			if !canonicalFloat(run, f) {
				return false
			}
		}
	}
	return true
}

func parseInt(s string) (int64, bool) {
	neg := false
	i := 0
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		i++
		if i == len(s) {
			return 0, false
		}
	}
	var n int64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false // overflow: treat as non-integer
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseFloat accepts a field only if the whole of it is a float:
// "+Inf"/"-Inf" (what ToString writes), or strconv's decimal grammar
// within float64 range. The grammar is checked here first because a
// strconv syntax error allocates, and fields like "192.168.13.7" or
// "555-0123" reach this point on every row.
func parseFloat(s string) (float64, bool) {
	if !isDecimalFloat(s) {
		switch s {
		case "+Inf":
			return math.Inf(1), true
		case "-Inf":
			return math.Inf(-1), true
		}
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// isDecimalFloat reports whether s is
// [+-](digits[.digits] | .digits)[(e|E)[+-]digits] — exactly the
// strings over 0-9.+-eE for which strconv.ParseFloat reports no syntax
// error.
func isDecimalFloat(s string) bool {
	i := 0
	if s[i] == '+' || s[i] == '-' {
		i++
	}
	end := skipDigits(s, i)
	digits := end - i
	if i = end; i < len(s) && s[i] == '.' {
		end = skipDigits(s, i+1)
		digits += end - (i + 1)
		i = end
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if end = skipDigits(s, i); end == i {
			return false
		}
		i = end
	}
	return i == len(s)
}

// skipDigits returns the index of the first byte of s at or after i
// that is not a decimal digit.
func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// parseNested parses the (…)/{…} nested rendering produced by ToString.
func parseNested(s string) (Value, bool) {
	v, rest, ok := parseNestedAt(s)
	if !ok || rest != "" {
		return nil, false
	}
	return v, true
}

func parseNestedAt(s string) (Value, string, bool) {
	if s == "" {
		return nil, s, false
	}
	switch s[0] {
	case '(':
		t, rest, ok := parseSeq(s[1:], ')')
		if !ok {
			return nil, s, false
		}
		return Tuple(t), rest, true
	case '{':
		items, rest, ok := parseSeq(s[1:], '}')
		if !ok {
			return nil, s, false
		}
		b := &Bag{}
		for _, it := range items {
			t, isT := it.(Tuple)
			if !isT {
				return nil, s, false
			}
			b.Add(t)
		}
		return b, rest, true
	}
	return nil, s, false
}

// parseSeq parses comma-separated items up to the closing delimiter.
func parseSeq(s string, close byte) ([]Value, string, bool) {
	var items []Value
	if s != "" && s[0] == close {
		return items, s[1:], true
	}
	for {
		v, rest, ok := parseItem(s, close)
		if !ok {
			return nil, s, false
		}
		items = append(items, v)
		s = rest
		if s == "" {
			return nil, s, false
		}
		switch s[0] {
		case ',':
			s = s[1:]
		case close:
			return items, s[1:], true
		default:
			return nil, s, false
		}
	}
}

func parseItem(s string, close byte) (Value, string, bool) {
	if s == "" {
		return nil, s, false
	}
	if s[0] == '(' || s[0] == '{' {
		return parseNestedAt(s)
	}
	// Scalar: read until , or the closing delimiter at depth 0.
	i := 0
	for i < len(s) && s[i] != ',' && s[i] != close {
		i++
	}
	raw := s[:i]
	if raw == "" {
		return nil, s[i:], true
	}
	return parseScalar(raw), s[i:], true
}

// Writer streams tuples in text form to an io.Writer. Rows are encoded
// straight into one reusable buffer that is handed to the underlying
// writer whenever it passes writerFlushAt, and by Flush.
type Writer struct {
	w     io.Writer
	buf   []byte
	bytes int64
}

const writerFlushAt = 64 << 10

// NewWriter returns a text-format tuple writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write appends one tuple as a line.
func (tw *Writer) Write(t Tuple) error {
	before := len(tw.buf)
	tw.buf = append(AppendText(tw.buf, t), '\n')
	tw.bytes += int64(len(tw.buf) - before)
	if len(tw.buf) >= writerFlushAt {
		return tw.Flush()
	}
	return nil
}

// Flush hands buffered output to the underlying writer.
func (tw *Writer) Flush() error {
	if len(tw.buf) == 0 {
		return nil
	}
	_, err := tw.w.Write(tw.buf)
	tw.buf = tw.buf[:0]
	return err
}

// Bytes returns the number of bytes written so far.
func (tw *Writer) Bytes() int64 { return tw.bytes }

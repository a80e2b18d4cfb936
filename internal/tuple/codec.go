package tuple

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text codec stores one tuple per line with tab-separated fields,
// matching PigStorage('\t'). Nested tuples/bags render with (…) and {…}
// delimiters and are parsed back on load. Tabs and newlines inside
// strings are escaped.

// EncodeText renders t as one storage line (no trailing newline).
func EncodeText(t Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = escapeField(encodeTextValue(v))
	}
	return strings.Join(parts, "\t")
}

func encodeTextValue(v Value) string { return ToString(v) }

func escapeField(s string) string {
	if !strings.ContainsAny(s, "\t\n\\") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
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
// its bytes escapeField would double (tab, newline, backslash).
func textLen(v Value) (raw, esc int) {
	switch x := v.(type) {
	case nil:
		return 0, 0
	case int64:
		var buf [20]byte
		return len(strconv.AppendInt(buf[:0], x, 10)), 0
	case float64:
		var buf [32]byte
		return len(strconv.AppendFloat(buf[:0], x, 'g', -1, 64)), 0
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

func countEscapable(s string) int {
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
	if s[0] == '(' && s[len(s)-1] == ')' {
		if v, ok := parseNested(s); ok {
			return v
		}
	}
	if s[0] == '{' && s[len(s)-1] == '}' {
		if v, ok := parseNested(s); ok {
			return v
		}
	}
	return parseScalar(s)
}

func parseScalar(s string) Value {
	// Integers first, then floats; everything else stays a string.
	if n, err := parseInt(s); err == nil {
		return n
	}
	if f, err := parseFloat(s); err == nil {
		return f
	}
	return s
}

func parseInt(s string) (int64, error) {
	if s == "" {
		return 0, errNotNumeric
	}
	neg := false
	i := 0
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		i++
		if i == len(s) {
			return 0, errNotNumeric
		}
	}
	var n int64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, errNotNumeric
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, errNotNumeric // overflow: treat as non-integer
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, nil
}

var errNotNumeric = fmt.Errorf("tuple: not numeric")

func parseFloat(s string) (float64, error) {
	// Only accept strings that start with a digit, sign, or dot to avoid
	// treating e.g. "NaNCy" as numeric.
	c := s[0]
	if c != '+' && c != '-' && c != '.' && (c < '0' || c > '9') {
		return 0, errNotNumeric
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		return 0, errNotNumeric
	}
	// Reject trailing junk.
	if ToString(f) != s && !floatRoundTrips(s) {
		return 0, errNotNumeric
	}
	return f, nil
}

func floatRoundTrips(s string) bool {
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' || r == '+' || r == '-' || r == 'e' || r == 'E':
		default:
			return false
		}
	}
	return true
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

// Writer streams tuples in text form to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	bytes int64
	rows  int64
}

// NewWriter returns a text-format tuple writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one tuple as a line.
func (tw *Writer) Write(t Tuple) error {
	line := EncodeText(t)
	if _, err := tw.w.WriteString(line); err != nil {
		return err
	}
	if err := tw.w.WriteByte('\n'); err != nil {
		return err
	}
	tw.bytes += int64(len(line)) + 1
	tw.rows++
	return nil
}

// Flush flushes buffered output.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Bytes returns the number of bytes written so far.
func (tw *Writer) Bytes() int64 { return tw.bytes }

// Rows returns the number of tuples written so far.
func (tw *Writer) Rows() int64 { return tw.rows }

// Reader streams tuples in text form from an io.Reader.
type Reader struct {
	s     *bufio.Scanner
	bytes int64
}

// NewReader returns a text-format tuple reader over r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return &Reader{s: s}
}

// Read returns the next tuple, or io.EOF when the input is exhausted.
func (tr *Reader) Read() (Tuple, error) {
	if !tr.s.Scan() {
		if err := tr.s.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	line := tr.s.Text()
	tr.bytes += int64(len(line)) + 1
	return DecodeText(line), nil
}

// Bytes returns the number of bytes consumed so far.
func (tr *Reader) Bytes() int64 { return tr.bytes }

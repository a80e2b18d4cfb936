package tuple

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
)

// The row-at-a-time codec as reference: what DecodeTextBatch and
// Writer replaced, kept here so the kernels can be compared with it.

// Reader streams tuples in text form from an io.Reader, one DecodeText
// per line. It had no caller outside the tests.
type Reader struct {
	s *bufio.Scanner
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
	return DecodeText(tr.s.Text()), nil
}

// rowDecodeBatch is DecodeTextBatch as it was before the typed-column
// kernel: every line through DecodeText into a Tuple, every Tuple
// through BatchBuilder.Append.
func rowDecodeBatch(data []byte) *Batch {
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
	return bb.Finish()
}

// refEncodeText is EncodeText as it was before appendText: a string
// per field, an escape pass over it, a Join per row.
func refEncodeText(t Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = refEscapeField(ToString(v))
	}
	return strings.Join(parts, "\t")
}

func refEscapeField(s string) string {
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

// specFloat is the float rule as ISSUE 21 states it: first byte a sign,
// dot or digit, then "+Inf"/"-Inf" or every byte in 0-9.+-eE, and
// strconv.ParseFloat reports no error. parseFloat must agree with it on
// every field parseInt rejected.
func specFloat(s string) (float64, bool) {
	c := s[0]
	if c != '+' && c != '-' && c != '.' && (c < '0' || c > '9') {
		return 0, false
	}
	if s != "+Inf" && s != "-Inf" && strings.Trim(s, "0123456789.+-eE") != "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

package tuple

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestWholeFieldNumberRule pins the typing rule: a field is a number
// only if the whole field parses. Before it, the float branch accepted
// whatever prefix fmt.Sscanf consumed when the rest was drawn from
// 0-9.+-eE, so every generated ip_addr ("192.168.13.7" → 192.168) and
// phone ("555-0123" → 555) was silently replaced by a float on load.
func TestWholeFieldNumberRule(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		// Numeric-looking prefixes: strings now.
		{"12.34.56.78", "12.34.56.78"},
		{"192.168.13.7", "192.168.13.7"},
		{"2012-01-05", "2012-01-05"},
		{"555-0123", "555-0123"},
		{"1-2", "1-2"},
		{"1e5e5", "1e5e5"},
		{"5-", "5-"},
		// Floats.
		{"1e5", 1e5},
		{".5", 0.5},
		{"5.", 5.0},
		{"1.0", 1.0},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"-1.5E-3", -1.5e-3},
		// Ints.
		{"007", int64(7)},
		{"-0", int64(0)},
		{"+5", int64(5)},
		// Strings before and after.
		{"1e999", "1e999"},
		{"0x10", "0x10"},
		{"1_000", "1_000"},
		{"NaN", "NaN"},
		{"-inf", "-inf"},
		{"1e", "1e"},
		{"+", "+"},
		{".", "."},
		{"Inf", "Inf"},
		// Too large for an int64: a float.
		{"9223372036854775808", 9223372036854775808.0},
	}
	for _, tc := range cases {
		if got := DecodeText(tc.in); !reflect.DeepEqual(got, Tuple{tc.want}) {
			t.Errorf("DecodeText(%q) = %#v, want %#v", tc.in, got[0], tc.want)
		}
		// The same field nested and in a column.
		if got := DecodeText("(" + tc.in + ")"); !reflect.DeepEqual(got, Tuple{Tuple{tc.want}}) {
			t.Errorf("DecodeText((%s)) = %#v, want (%#v)", tc.in, got[0], tc.want)
		}
		b, err := DecodeTextBatch([]byte(tc.in + "\n"))
		if err != nil || b.Len() != 1 || !reflect.DeepEqual(b.Row(0), Tuple{tc.want}) {
			t.Errorf("DecodeTextBatch(%q) = %#v (%v), want %#v", tc.in, b.Row(0), err, tc.want)
		}
	}
}

// TestFloatRuleMatchesSpec checks parseFloat — which screens the
// grammar itself so that a non-number never costs a strconv error —
// against the rule as stated (specFloat), over every string of up to
// six bytes from an alphabet that reaches each grammar state.
func TestFloatRuleMatchesSpec(t *testing.T) {
	const alphabet = "07.+-eE"
	var walk func(prefix string)
	checked := 0
	walk = func(prefix string) {
		if prefix != "" {
			got, gotOK := parseFloat(prefix)
			want, wantOK := specFloat(prefix)
			if gotOK != wantOK || got != want {
				t.Fatalf("parseFloat(%q) = %v, %v; the stated rule gives %v, %v", prefix, got, gotOK, want, wantOK)
			}
			checked++
		}
		if len(prefix) == 6 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(prefix + alphabet[i:i+1])
		}
	}
	walk("")
	for _, s := range []string{"+Inf", "-Inf", "+inf", "Inf", "+Infinity", "1e308", "1e309", "-1e309", "4.9e-324", "1e-400", "x1", "1x"} {
		got, gotOK := parseFloat(s)
		want, wantOK := specFloat(s)
		if gotOK != wantOK || got != want {
			t.Errorf("parseFloat(%q) = %v, %v; the stated rule gives %v, %v", s, got, gotOK, want, wantOK)
		}
	}
	if checked < 100000 {
		t.Fatalf("only %d strings checked", checked)
	}
}

// Part-file lines shaped like the generators' (pigmix/datagen.go,
// pigmix/nettraffic.go), a sub-job output, and the codec's corner
// cases: the fuzz seeds, and the corpus of the always-run differential.
var codecSeeds = []string{
	// page_views: nullable user, action, timespent, term, ip, timestamp, revenue, two fillers.
	"u1000123\t1\t37\tterm0042\t192.168.13.7\t1300000042\t52.07\tqwertyuiopasdfghjkl\tzxcvbnmqwertyuiopasdfgh\n" +
		"\t2\t5\tterm0001\t192.168.0.255\t1300000043\t0.5\tabcdef\tghijkl\n",
	// users.
	"u1000123\t555-0123\tfillerfillerfillerfi\tfillerfill\nu1000126\t555-9999\tabcdefghijabcdefghij\tabcdefghij\n",
	// net traffic.
	"0\thost007\ttcp\t4211\t88123\t1200\n0\thost113\ticmp\t1\t64\t0\n",
	// sub-job output: narrow, numeric.
	"u1000123\t17\t931.25\nu1000126\t3\t12\n\t1\t0.5\n",
	// The whole-field rule's table.
	"12.34.56.78\t2012-01-05\t555-0123\t1-2\t1e5\t.5\t5.\t1.0\t+Inf\t-Inf\t007\t-0\t+5\n" +
		"1e999\t0x10\t1_000\tNaN\t-inf\t1e\t+\t.\t9223372036854775808\t-9223372036854775808\n",
	// Ragged then widening rows, empty lines, no trailing newline.
	"1\t2\t3\n1\n\n1\t2\t3\t4\t5\n\n\nx",
	// Kind changes: leading nulls re-homed, int column meeting a string, a float, a tuple.
	"\t\t\t\n\t1\ta\t1.5\n7\tb\t2\t(1)\n",
	// Escapes: tab, newline, backslash, unknown, a lone trailing backslash.
	"a\\tb\t\\n\t\\\\\t\\q\t\\12\tend\\\n\\\n\\\t\\\n",
	// Nested values, balanced and not.
	"(1,a,2.5)\t{(1),(b,)}\t()\t{}\t((1),{(2)})\n(1\t{(1)\t(1))\t{1}\t(a)(b)\t(\\t,\\(1)\n",
	"\r\n1\r\n",
}

// FuzzDecodeTextBatch: the typed-column kernel builds exactly the batch
// the row path builds.
func FuzzDecodeTextBatch(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeTextBatch(data)
	if err != nil {
		t.Fatalf("DecodeTextBatch(%q): %v", data, err)
	}
	want := rowDecodeBatch(data)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeTextBatch(%q)\n got %+v\nwant %+v", data, got, want)
	}
	if got.SrcBytes() != int64(len(data)) {
		t.Fatalf("SrcBytes = %d, want %d", got.SrcBytes(), len(data))
	}
	// Every field the batch hands out, through Batch.Row and through a
	// cursor over every column, is the field the row codec boxes on its
	// own: the same dynamic type and hash, equal under Compare, and for
	// a scalar equal under ==.
	rows := rowDecode(data)
	if len(rows) != got.Len() {
		t.Fatalf("DecodeTextBatch(%q): %d rows, the row codec %d", data, got.Len(), len(rows))
	}
	cur := got.Cursor()
	for i, ref := range rows {
		for _, row := range []Tuple{got.Row(i), cur.Row(i)} {
			if len(row) != len(ref) {
				t.Fatalf("DecodeTextBatch(%q) row %d: %v, the row codec %v", data, i, row, ref)
			}
			for j, v := range row {
				w := ref[j]
				same := reflect.TypeOf(v) == reflect.TypeOf(w) && Hash(v) == Hash(w) && Compare(v, w) == 0
				switch w.(type) {
				case Tuple, *Bag: // not comparable by ==
				default:
					same = same && v == w
				}
				if !same {
					t.Fatalf("DecodeTextBatch(%q) row %d field %d: %#v, the row codec %#v", data, i, j, v, w)
				}
			}
		}
	}
}

// FuzzEncodeText: the append encoder writes what the string-and-Join
// encoder wrote, the byte counts agree with it, and re-encoding a
// decoded file is a fixed point of decode.
func FuzzEncodeText(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkEncode(t, data) })
}

// valueRows returns the rows data decodes to, plus rows carrying what
// the decoder never yields, drawn from data: raw bytes as strings
// (empty, number-like, bracketed, holding commas and brackets inside a
// nested tuple, invalid UTF-8), any float64 including NaN, -0 and ±Inf
// (the first eight bytes are its bits, big-endian), any int64, and a
// null or an empty string alone in a row.
func valueRows(data []byte) []Tuple {
	decoded := rowDecodeBatch(data)
	var rows []Tuple
	for i := 0; i < decoded.Len(); i++ {
		rows = append(rows, decoded.Row(i))
	}
	bits := uint64(len(data))
	for i := 0; i < len(data) && i < 8; i++ {
		bits = bits<<8 | uint64(data[i])
	}
	whole, head, tail := string(data), string(data[:len(data)/2]), string(data[len(data)/2:])
	fl := math.Float64frombits(bits)
	return append(rows,
		Tuple{head, int64(bits), fl, nil, tail},
		Tuple{Tuple{tail, fl, nil}, &Bag{Tuples: []Tuple{{head}, {}, {int64(bits), Tuple{tail}}}}},
		Tuple{whole},
		Tuple{Tuple{whole, head}},
		Tuple{fl},
		Tuple{nil},
		Tuple{""},
	)
}

func checkEncode(t *testing.T, data []byte) {
	t.Helper()
	decoded := rowDecodeBatch(data)
	rows := valueRows(data)

	var out bytes.Buffer
	w := NewWriter(&out)
	for _, row := range rows {
		before := w.Bytes()
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
		line := EncodeText(row)
		if n := w.Bytes() - before; n != int64(len(line))+1 {
			t.Fatalf("Writer counted %d bytes for %v, the line has %d", n, row, len(line)+1)
		}
		if n := EncodeTextLen(row); n != len(line) {
			t.Fatalf("EncodeTextLen(%v) = %d, the line has %d", row, n, len(line))
		}
		// The old encoder ranged over runes, so an invalid byte next to
		// an escape came out as U+FFFD, three bytes that EncodeTextLen
		// never counted; it is the reference for valid UTF-8 only.
		if ref := refEncodeText(row); utf8.ValidString(ToString(row)) && line != ref {
			t.Fatalf("EncodeText(%v) = %q, the reference encoder gives %q", row, line, ref)
		}
		for _, v := range row {
			if s, ok := v.(string); ok && unescapeField(string(appendText(nil, s))) != s {
				t.Fatalf("string %q does not survive escape and unescape", s)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != int64(len(rows)) || w.Bytes() != int64(out.Len()) {
		t.Fatalf("Writer reports %d rows, %d bytes; wrote %d rows, %d bytes", w.Rows(), w.Bytes(), len(rows), out.Len())
	}
	var lines []string
	for _, row := range rows {
		lines = append(lines, EncodeText(row)+"\n")
	}
	if got := strings.Join(lines, ""); got != out.String() {
		t.Fatalf("Writer wrote %q, EncodeText per row gives %q", out.String(), got)
	}

	// decode(encode(decode(x))) == decode(x), up to the number types
	// the text cannot carry (the float 5 is written "5"): Equal compares
	// numbers across int and float.
	var reenc []byte
	for i := 0; i < decoded.Len(); i++ {
		reenc = append(AppendText(reenc, decoded.Row(i)), '\n')
	}
	again, err := DecodeTextBatch(reenc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != decoded.Len() {
		t.Fatalf("%q decodes to %d rows, re-encoded (%q) to %d", data, decoded.Len(), reenc, again.Len())
	}
	for i := 0; i < decoded.Len(); i++ {
		if a, b := decoded.Row(i), again.Row(i); len(a) != len(b) || CompareTuples(a, b) != 0 {
			t.Fatalf("row %d of %q: decoded %v, re-encoded (%q) and decoded %v", i, data, a, reenc, b)
		}
	}
}

// TestKernelsMatchRowCodec runs the fuzz properties over the seeds
// and over 5 000 random files cut from an alphabet dense in the
// codec's structure, so the differential runs in every `go test`, not
// only under -fuzz.
func TestKernelsMatchRowCodec(t *testing.T) {
	for _, s := range codecSeeds {
		checkDecode(t, []byte(s))
		checkEncode(t, []byte(s))
	}
	pieces := []string{
		"\t", "\t", "\t", "\n", "\n", "\\", "\\t", "\\n", "(", ")", "{", "}", ",",
		"0", "1", "7", "-", "+", ".", "e", "E", "Inf", "NaN", "a", "term0042", "u1000123",
		"192.168.1.2", "555-0123", "1.5", "12", "\xff", "é", "\r", " ",
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		var b []byte
		for n := r.Intn(40); n > 0; n-- {
			b = append(b, pieces[r.Intn(len(pieces))]...)
		}
		checkDecode(t, b)
		checkEncode(t, b)
	}
}

// TestWriterZeroAllocs: in steady state — its buffer grown, flushing
// every writerFlushAt bytes — the Writer encodes a row without
// allocating.
func TestWriterZeroAllocs(t *testing.T) {
	row := pageViewsRow(7)
	w := NewWriter(io.Discard)
	for w.Bytes() < 2*writerFlushAt {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	perRow := testing.AllocsPerRun(1000, func() {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	})
	if perRow != 0 {
		t.Fatalf("Writer.Write allocates %.2f times per row, want 0", perRow)
	}
}

// TestDecodeTextBatchAllocs: over typed columns the kernel allocates
// per file and per column, never per row or per field (the row path
// made 10.2 allocations per row of this file: the line, the split, the
// tuple, a box per scalar, a string per field).
func TestDecodeTextBatchAllocs(t *testing.T) {
	// The clean benchmark shape with a float column that stays one
	// (i*1.5 is written "3" every other row, which mixes the column).
	data := encodeRows(1000, func(i int) Tuple {
		return Tuple{int64(i), "user" + string(rune('a'+i%26)), float64(i) + 0.5, "payload-string-of-some-width"}
	})
	perFile := testing.AllocsPerRun(20, func() {
		if _, err := DecodeTextBatch(data); err != nil {
			t.Fatal(err)
		}
	})
	// The file's string, the builder and its widths, three growths of
	// the column slice, one vector per column, the batch.
	if perFile > 16 {
		t.Fatalf("DecodeTextBatch allocates %.0f times for 1000 four-column rows, want at most 16", perFile)
	}
}

var filler = strings.Repeat("abcdefghijklmnopqrstuvwxyz", 31)

// pageViewsRow is the generator's page_views row (pigmix/datagen.go):
// nullable user, action, timespent, query term, ip address, timestamp,
// revenue and the 600- and 800-byte fillers that are most of its bytes.
func pageViewsRow(i int) Tuple {
	var user Value
	if i%50 != 0 {
		user = "u" + strings.Repeat("1", 3) + string(rune('0'+i%10)) + "000"
	}
	return Tuple{
		user,
		int64(i % 3),
		int64(i % 60),
		"term00" + string(rune('0'+i%10)) + string(rune('0'+i/10%10)),
		"192.168." + string(rune('1'+i%9)) + "." + string(rune('1'+i/9%9)),
		int64(1_300_000_000 + i),
		float64(i%10000) / 100.0,
		filler[i%100 : i%100+600],
		filler[:800],
	}
}

// narrowNumericRow is what a stored sub-job output looks like: a key
// and a few aggregates.
func narrowNumericRow(i int) Tuple {
	return Tuple{"u" + string(rune('0'+i%10)) + "00", int64(i), float64(i) * 0.25}
}

func encodeRows(n int, row func(int) Tuple) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = append(AppendText(buf, row(i)), '\n')
	}
	return buf
}

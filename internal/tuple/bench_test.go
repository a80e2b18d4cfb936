package tuple

import (
	"io"
	"testing"
)

var benchTuple = Tuple{
	"u1000123", int64(1_300_000_042), 52.07,
	"some page info text that is moderately long",
	&Bag{Tuples: []Tuple{{"a", int64(1)}, {"b", int64(2)}}},
}

func BenchmarkEncodeText(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EncodeText(benchTuple)
	}
}

func BenchmarkDecodeText(b *testing.B) {
	line := EncodeText(benchTuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DecodeText(line)
	}
}

func BenchmarkCompareTuples(b *testing.B) {
	other := benchTuple.Copy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CompareTuples(benchTuple, other)
	}
}

func BenchmarkHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hash("u1000123")
	}
}

// codecShapes are the files the codec benchmarks run over: the clean
// four typed columns, the generator's page_views row (mostly two long
// filler strings, with the ip address that is not a number), and the
// narrow numeric rows stored sub-job outputs are made of.
var codecShapes = []struct {
	name string
	rows int
	row  func(int) Tuple
}{
	{"clean", 1000, func(i int) Tuple {
		return Tuple{int64(i), "user" + string(rune('a'+i%26)), float64(i) * 1.5, "payload-string-of-some-width"}
	}},
	{"pageviews", 200, pageViewsRow},
	{"narrow-numeric", 2000, narrowNumericRow},
}

func BenchmarkDecodeTextBatch(b *testing.B) {
	for _, sh := range codecShapes {
		data := encodeRows(sh.rows, sh.row)
		b.Run(sh.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeTextBatch(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriter(b *testing.B) {
	for _, sh := range codecShapes {
		rows := make([]Tuple, sh.rows)
		for i := range rows {
			rows[i] = sh.row(i)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.SetBytes(int64(len(encodeRows(sh.rows, sh.row))))
			b.ReportAllocs()
			w := NewWriter(io.Discard)
			for i := 0; i < b.N; i++ {
				for _, t := range rows {
					if err := w.Write(t); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

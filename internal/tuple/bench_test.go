package tuple

import "testing"

var benchTuple = Tuple{
	"u1000123", int64(1_300_000_042), 52.07,
	"some page info text that is moderately long",
	NewBag(Tuple{"a", int64(1)}, Tuple{"b", int64(2)}),
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

package tuple

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFloatTextLen holds FloatTextLen and appendFloat to the
// formatter they stand in for.
func checkFloatTextLen(t *testing.T, f float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, f, 'g', -1, 64)
	if got := FloatTextLen(f); got != len(want) {
		t.Fatalf("FloatTextLen(%v) (bits %#x) = %d, want %d (%q)", f, math.Float64bits(f), got, len(want), want)
	}
	if got := appendFloat([]byte("x"), f); string(got) != "x"+string(want) {
		t.Fatalf("appendFloat(%v) (bits %#x) = %q, want %q", f, math.Float64bits(f), got[1:], want)
	}
}

// TestFloatTextLen covers both notations and where 'g' switches between
// them, zeros, non-finite values, float sums whose shortest digits are
// long, values past the fast path, and random bit patterns.
func TestFloatTextLen(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -1, 0.5, 10, 100, 1000,
		1e-4, 9.9999e-5, 1e-5, 0.00012345, 1.5e-20, 1e-22, 1e-23,
		1e5, 123456, 999999, 1e6, 1234567, 1e15, 1e21, 1e22, 1e100, 1.5e300,
		0.1 + 0.2, 0.3, 1.1 * 1.1, 100.0 / 3, 2.0 / 3, math.Pi, math.E,
		123.456, -123.456, 4.35, 1.15, 9007199254740991, 9007199254740993,
		1 << 50, 1<<50 - 1, 1<<50 + 1, 1 << 53, 999999999999999, 99999999999999.99,
		0.1 * 3, 9.995, 0.000099999, 999999.5, 9999995,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	}
	for _, f := range cases {
		checkFloatTextLen(t, f)
		checkFloatTextLen(t, -f)
	}
	// Sums as a combiner builds them, of values parsed from two-decimal
	// text.
	sum := 0.0
	for i := 0; i < 2000; i++ {
		sum += float64(i%997) / 100
		checkFloatTextLen(t, sum)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		checkFloatTextLen(t, math.Float64frombits(r.Uint64()))
		// Short decimals at every scale the fast path handles.
		d, k := r.Int63n(1_000_000_000_000_000), r.Intn(25)
		checkFloatTextLen(t, float64(d)/math.Pow(10, float64(k)))
		checkFloatTextLen(t, float64(r.Int63n(100000))*math.Pow(10, float64(r.Intn(40)-20)))
	}
}

// FuzzFloatTextLen: FloatTextLen is strconv's shortest 'g' width, and
// appendFloat its bytes, for any float64 bits.
func FuzzFloatTextLen(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1e-4, 9.9999e-5, 1e5, 1e6, 1e15, 1e21, 0.1 + 0.2, -123.456} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkFloatTextLen(t, math.Float64frombits(bits)) })
}

func TestIntTextLen(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 9, 10, -10, 99, 100, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		if got, want := IntTextLen(n), len(strconv.FormatInt(n, 10)); got != want {
			t.Fatalf("IntTextLen(%d) = %d, want %d", n, got, want)
		}
	}
}

// BenchmarkFloatTextLen compares FloatTextLen and appendFloat with
// strconv's formatting, over short decimals (the fast path) and running
// float sums (mostly 17 digits, the fallback).
func BenchmarkFloatTextLen(b *testing.B) {
	short := make([]float64, 1024)
	sums := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	sum := 0.0
	for i := range short {
		short[i] = float64(r.Intn(1_000_000)) / 100
		sum += short[i]
		sums[i] = sum
	}
	for _, set := range []struct {
		name string
		vals []float64
	}{{"short", short}, {"sums", sums}} {
		b.Run(set.name+"/closed-form", func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n += FloatTextLen(set.vals[i%len(set.vals)])
			}
		})
		b.Run(set.name+"/appendFloat", func(b *testing.B) {
			var buf [32]byte
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(appendFloat(buf[:0], set.vals[i%len(set.vals)]))
			}
		})
		b.Run(set.name+"/append-float", func(b *testing.B) {
			var buf [32]byte
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(strconv.AppendFloat(buf[:0], set.vals[i%len(set.vals)], 'g', -1, 64))
			}
		})
	}
}

package exp

import (
	"sort"
	"testing"
)

func TestZipfMixDeterministicAndSkewed(t *testing.T) {
	items := []string{"L1", "L2", "L3", "L5", "L12"}
	a, err := NewZipfMix(items, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewZipfMix(items, 1.0, 42)

	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		pa, pb := a.Pick(), b.Pick()
		if pa != pb {
			t.Fatalf("draw %d diverged under same seed: %q vs %q", i, pa, pb)
		}
		counts[pa]++
	}
	// Popularity must follow item order under skew 1.0.
	for i := 1; i < len(items); i++ {
		if counts[items[i-1]] < counts[items[i]] {
			t.Fatalf("expected %s (rank %d) at least as popular as %s: %v",
				items[i-1], i-1, items[i], counts)
		}
	}
	if counts["L1"] < 2*counts["L12"] {
		t.Fatalf("skew 1.0 should make the head dominate the tail: %v", counts)
	}

	if total := a.cum[len(a.cum)-1]; total < 0.999 || total > 1.001 {
		t.Fatalf("probabilities sum to %v, want 1", total)
	}
}

func TestZipfMixUniformAtZeroSkew(t *testing.T) {
	m, err := NewZipfMix([]string{"a", "b", "c", "d"}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 0; i < 4; i++ {
		p := m.cum[i] - prev
		prev = m.cum[i]
		if p < 0.2499 || p > 0.2501 {
			t.Fatalf("skew 0 item %d probability %v, want 0.25", i, p)
		}
	}
}

func TestZipfMixRejectsBadInput(t *testing.T) {
	if _, err := NewZipfMix(nil, 1, 1); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := NewZipfMix([]string{"x"}, -0.5, 1); err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	sort.Float64s(samples)
	if got := Percentile(samples, 50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(samples, 99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := Percentile(samples, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}

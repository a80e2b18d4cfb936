package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ZipfMix is a Zipf-distributed query mix: item 0 is the most popular,
// item i has probability proportional to 1/(i+1)^skew. It models the
// recurring multi-tenant traffic ReStore is built for — a few hot
// dashboard queries dominating a long tail — so the load harness's
// reuse-hit ratio means something. Draws are deterministic under the
// seed and safe for concurrent use.
type ZipfMix struct {
	items []string
	cum   []float64

	mu sync.Mutex
	r  *rand.Rand
}

// NewZipfMix builds a mix over items with the given skew (1.0 is the
// classic Zipf; 0 degenerates to uniform) and seed.
func NewZipfMix(items []string, skew float64, seed int64) (*ZipfMix, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("exp: empty query mix")
	}
	if skew < 0 {
		return nil, fmt.Errorf("exp: negative zipf skew %v", skew)
	}
	cum := make([]float64, len(items))
	total := 0.0
	for i := range items {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfMix{
		items: append([]string(nil), items...),
		cum:   cum,
		r:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Pick draws one item.
func (m *ZipfMix) Pick() string {
	m.mu.Lock()
	x := m.r.Float64()
	m.mu.Unlock()
	lo, hi := 0, len(m.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.items[lo]
}

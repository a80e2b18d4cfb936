package tuple

import (
	"math"
	"math/bits"
)

// The value and string hashes below are a rapidhash/wyhash-style
// folded-multiply construction: each step multiplies two 64-bit lanes
// and XORs the 128-bit product's halves together (bits.Mul64), which
// mixes every input bit into every output bit in one multiply. Unlike
// the byte-at-a-time FNV loop this replaced, the string path consumes
// eight bytes per step and the whole construction allocates nothing,
// which matters on the two hot paths that call it: shuffle partitioning
// (once per emitted record) and plan-fingerprint hashing on the submit
// path (lease lock naming).

const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
	hashK3 = 0x589965cc75374cc3
)

// Per-type tags keep values of different dynamic types from colliding
// structurally (the string "1" vs the int 1, a tuple vs its only field).
const (
	hashTagNull   = 0x9e3779b97f4a7c15
	hashTagNum    = 0xbf58476d1ce4e5b9
	hashTagString = 0x94d049bb133111eb
	hashTagTuple  = 0x2545f4914f6cdd1d
	hashTagBag    = 0xd6e8feb86659fd93
)

// foldMul is the core mixing step: the XOR-folded 128-bit product.
func foldMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash64 returns a 64-bit hash of s under seed; distinct seeds give
// independent hash functions over the same input. It is deterministic
// across processes (no per-process randomization), so values derived
// from it — lease lock file names — agree between the Systems sharing
// a durable DFS.
func Hash64(s string, seed uint64) uint64 {
	h := seed ^ hashK0
	n := len(s)
	for len(s) >= 8 {
		h = foldMul(h^leUint64(s), hashK1)
		s = s[8:]
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * uint(i))
	}
	h = foldMul(h^tail, hashK2)
	return foldMul(h^uint64(n), hashK3)
}

// leUint64 reads 8 little-endian bytes from the head of s without
// converting the string to a byte slice (no allocation).
func leUint64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Hash returns a 64-bit hash of v, consistent with Compare: values that
// compare equal hash equally. A number hashes through its float64 image,
// so the int64 3 and the float64 3.0 agree; -0.0 hashes as 0.0 and every
// NaN payload as one NaN, because Compare treats each pair as equal.
// The MapReduce engine uses it to partition map output across reducers
// and, carried on each shuffled record, to group a reducer's input.
func Hash(v Value) uint64 {
	return hashValue(v, 0)
}

func hashValue(v Value, seed uint64) uint64 {
	switch x := v.(type) {
	case nil:
		return foldMul(seed^hashTagNull, hashK1)
	case int64:
		// Hash through the float64 image so int/float values that
		// compare equal hash equally.
		return hashFloat(float64(x), seed)
	case float64:
		return hashFloat(x, seed)
	case string:
		return Hash64(x, seed^hashTagString)
	case Tuple:
		h := foldMul(seed^hashTagTuple, hashK1)
		for _, f := range x {
			h = foldMul(h, hashValue(f, h))
		}
		return foldMul(h^uint64(len(x)), hashK3)
	case *Bag:
		h := foldMul(seed^hashTagBag, hashK1)
		for _, t := range x.Tuples {
			h = foldMul(h, hashValue(t, h))
		}
		return foldMul(h^uint64(len(x.Tuples)), hashK3)
	}
	return 0
}

// hashFloat hashes a number's float64 image, folding the values Compare
// equates but whose bits differ: -0.0 onto 0.0, every NaN onto one.
func hashFloat(f float64, seed uint64) uint64 {
	switch {
	case f == 0:
		f = 0
	case math.IsNaN(f):
		f = math.NaN()
	}
	return foldMul(seed^hashTagNum, math.Float64bits(f)^hashK2)
}

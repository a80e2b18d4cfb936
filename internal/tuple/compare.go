package tuple

import (
	"math"
	"strings"
)

// typeRank orders values of different dynamic types so that comparison is
// a total order: null < numbers < strings < tuples < bags.
func typeRank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case int64, float64:
		return 1
	case string:
		return 2
	case Tuple:
		return 3
	case *Bag:
		return 4
	}
	return 5
}

// Compare returns -1, 0, or +1 ordering a relative to b. Numeric values
// compare numerically across int/float (an int64 through its float64
// image), so int64(0), 0.0 and -0.0 are equal; NaN equals NaN and sorts
// after every other number, +Inf included (Java's Double.compareTo
// rule). Otherwise values compare within their type, and across types
// by typeRank. The result is a total order, which the shuffle's
// grouping and sort rely on; Hash agrees with it (Compare(a, b) == 0
// implies Hash(a) == Hash(b)).
func Compare(a, b Value) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return sign(ra - rb)
	}
	switch x := a.(type) {
	case nil:
		return 0
	case int64:
		return compareNumeric(float64(x), b)
	case float64:
		return compareNumeric(x, b)
	case string:
		return strings.Compare(x, b.(string)) // scans equal strings once; < then > would scan twice
	case Tuple:
		return CompareTuples(x, b.(Tuple))
	case *Bag:
		return compareBags(x, b.(*Bag))
	}
	return 0
}

func compareNumeric(x float64, b Value) int {
	var y float64
	switch v := b.(type) {
	case int64:
		y = float64(v)
	case float64:
		y = v
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	// At least one side is NaN.
	xNaN, yNaN := math.IsNaN(x), math.IsNaN(y)
	switch {
	case xNaN && yNaN:
		return 0
	case xNaN:
		return 1
	}
	return -1
}

// CompareTuples orders tuples lexicographically field by field; a shorter
// tuple that is a prefix of a longer one sorts first.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return sign(len(a) - len(b))
}

func compareBags(a, b *Bag) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if c := CompareTuples(a.Tuples[i], b.Tuples[i]); c != 0 {
			return c
		}
	}
	return sign(a.Len() - b.Len())
}

// Equal reports whether a and b compare as equal (Compare(a, b) == 0).
// Strings and tuples are tested for equality without being ordered,
// which is what the shuffle asks of every record it groups.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return Compare(a, b) == 0
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

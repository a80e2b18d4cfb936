package tuple

import (
	"math"
	"strconv"
)

// The engine accounts shuffle volume by the text width of every value
// it ships, so it needs the widths of numbers far more often than their
// digits. IntTextLen and FloatTextLen count them without formatting.

// IntTextLen returns len(strconv.AppendInt(nil, n, 10)).
func IntTextLen(n int64) int {
	w := 1
	u := uint64(n)
	if n < 0 {
		w++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		w++
	}
	return w
}

// FloatTextLen returns len(strconv.AppendFloat(nil, f, 'g', -1, 64)),
// the width of the shortest decimal that reads back as f.
//
// Most floats the engine meets were parsed from short decimals, and for
// those the width follows from the digits without running the shortest-
// digit search: if f == float64(m)/10^k for an integer m, the decimal
// m·10⁻ᵏ reads back as f, and the least such k gives the shortest one
// (see shortDecimal). Any other value, NaN and ±Inf among them, is
// formatted. appendFloat writes the digits this counts.
func FloatTextLen(f float64) int {
	if f == 0 {
		if math.Signbit(f) {
			return 2 // "-0"
		}
		return 1
	}
	neg, abs := 0, f
	if f < 0 {
		neg, abs = 1, -f
	}
	if _, nd, dp, ok := shortDecimal(abs); ok {
		return neg + gWidth(nd, dp)
	}
	var buf [32]byte
	return len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
}

// appendFloat appends strconv.AppendFloat(dst, f, 'g', -1, 64): from
// shortDecimal's digits when it finds them, in the plain or the
// exponent form gWidth counts, and from strconv otherwise.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	m, nd, dp, ok := shortDecimal(abs)
	if !ok {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	var buf [20]byte
	i := len(buf)
	for ; m > 0; m /= 10 {
		i--
		buf[i] = byte('0' + m%10)
	}
	d := buf[i:] // nd digits
	if exp := dp - 1; exp < -4 || exp >= 6 {
		dst = append(dst, d[0])
		if nd > 1 {
			dst = append(append(dst, '.'), d[1:]...)
		}
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		return append(dst, 'e', sign, byte('0'+exp/10), byte('0'+exp%10))
	}
	switch {
	case dp <= 0: // 0.000ddd
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		return append(dst, d...)
	case dp >= nd: // ddd000
		dst = append(dst, d...)
		for ; dp > nd; dp-- {
			dst = append(dst, '0')
		}
		return dst
	}
	return append(append(append(dst, d[:dp]...), '.'), d[dp:]...)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// shortDecimal returns the digits m, their count nd and the decimal-
// point position dp (the value is 0.d₁…d_nd × 10^dp, as strconv counts
// them) of the shortest decimal that reads back as the positive f, when
// it has at most about 15 significant digits and 22 fraction digits; ok
// is false otherwise, and for zero.
//
// For k = 0, 1, … it proves f = m·10⁻ᵏ: m = round(f·10ᵏ) is integral,
// below 2⁵⁰, and float64(m)/10ᵏ == f. Both operands of that division
// are exact and IEEE division rounds correctly, so the check is exactly
// "the decimal m·10⁻ᵏ reads back as f" (NaN and ±Inf never pass it).
// Every decimal that reads back as f lies within half an ulp of f, so
// its m lies within f·10ᵏ·2⁻⁵² of the computed product; below 2⁵⁰ that
// is under ½, and round(f·10ᵏ) is the only candidate. The decimals that
// read back as f share one dp unless a power of ten is among them, and
// then the least k finds it; so the least k gives the fewest digits.
// m's trailing zeros (possible only at k = 0) are not digits.
func shortDecimal(f float64) (m uint64, nd, dp int, ok bool) {
	// f < 2ᵉ, so f·10ᵏ < 2⁵⁰ for every k up to (50-e)·log₁₀2, which
	// 78913/2¹⁸ rounds down. A decimal that reads back as f at some k
	// also does at every larger one (append zeros), so one check at the
	// largest k rejects the long ones.
	_, e := math.Frexp(f)
	kmax := min((50-e)*78913>>18, len(pow10)-1)
	if kmax < 0 {
		return 0, 0, 0, false
	}
	if _, ok := decimalAt(f, kmax); !ok {
		return 0, 0, 0, false
	}
	for k := 0; ; k++ {
		if m, ok := decimalAt(f, k); ok {
			digits := IntTextLen(int64(m))
			nd = digits
			for ; m%10 == 0; m /= 10 {
				nd--
			}
			return m, nd, digits - k, true
		}
	}
}

// decimalAt returns the integer m with float64(m)/10ᵏ == f, if there is
// one, for f·10ᵏ < 2⁵⁰.
func decimalAt(f float64, k int) (uint64, bool) {
	p := pow10[k]
	x := f * p
	m := float64(int64(x + 0.5)) // round(x)
	// A product this far from an integer does not come from a decimal
	// that reads back as f, and needs no division to rule out.
	if m == 0 || math.Abs(x-m) > x*0x1p-51 || m/p != f {
		return 0, false
	}
	return uint64(m), true
}

// gWidth is the width of strconv's shortest 'g' rendering of a positive
// value with nd significant digits and decimal-point position dp: the
// exponent form d[.ddd]e±dd when the exponent dp-1 is below -4 or at
// least 6, else the plain form with max(dp, 1) integer digits and the
// fraction's nd-dp digits after a point. The exponent has two digits:
// shortDecimal's values lie between 10⁻²³ and 2⁵⁰.
func gWidth(nd, dp int) int {
	if exp := dp - 1; exp < -4 || exp >= 6 {
		w := 1 + 2 + 2 // the first digit, 'e', the sign and two digits
		if nd > 1 {
			w += nd // the point and the other digits
		}
		return w
	}
	w := max(dp, 1)
	if nd > dp {
		w += 1 + nd - dp
	}
	return w
}

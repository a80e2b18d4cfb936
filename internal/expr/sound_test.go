package expr

import (
	"math"
	"testing"

	"repro/internal/tuple"
)

// soundValues is the constant and row-value pool for FuzzSignatureSound.
// Its numbers come in int/float twins that render alike as text but
// differ in arithmetic (Binary keeps int64 integral and takes anything
// else through float64): 1/1.0, 2^53±1, MaxInt64, 0/−0.0. NaN, null and
// strings that look like numbers round it out.
var soundValues = []tuple.Value{
	int64(1), 1.0,
	int64(1<<53 + 1), float64(1<<53 + 1),
	int64(1<<53 - 1), float64(1<<53 - 1),
	int64(math.MaxInt64), float64(math.MaxInt64),
	int64(0), math.Copysign(0, -1),
	int64(-1), -1.0,
	math.NaN(),
	nil,
	"1", "1.0", "NaN", "",
}

// soundTwin maps each pool index to its int/float twin, or to itself.
func soundTwin(i int) int {
	if i < 12 {
		return i ^ 1
	}
	return i
}

// soundRows is the row pool every expression is evaluated on: three
// columns drawn from soundValues, rotated so each column meets every
// value, at two strides so each pair of columns meets many pairs.
func soundRows() []tuple.Tuple {
	n := len(soundValues)
	var rows []tuple.Tuple
	for _, stride := range []int{1, 5} {
		for i := range soundValues {
			rows = append(rows, tuple.Tuple{
				soundValues[i], soundValues[(i+stride)%n], soundValues[(i+2*stride)%n],
			})
		}
	}
	return rows
}

// exprDecoder turns fuzz bytes into expressions from a small grammar:
// columns, constants from soundValues, Binary, Compare, Logic and Not.
// Exhausted input reads as zero bytes, so every input decodes.
type exprDecoder struct {
	data []byte
}

func (d *exprDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// pair decodes one expression and returns it with its twin: the same
// tree with every constant swapped for its int/float twin, which a
// type-blind signature would confuse with it.
func (d *exprDecoder) pair(depth int) (Expr, Expr) {
	b := d.next()
	if depth >= 3 {
		b %= 2
	}
	switch b % 6 {
	case 0:
		c := Col{Index: d.next() % 4} // $3 is past the row: null
		return c, c
	case 1:
		i := d.next() % len(soundValues)
		return Const{V: soundValues[i]}, Const{V: soundValues[soundTwin(i)]}
	case 2:
		op := BinaryOp(d.next() % 5)
		l, lt := d.pair(depth + 1)
		r, rt := d.pair(depth + 1)
		return Binary{op, l, r}, Binary{op, lt, rt}
	case 3:
		op := CmpOp(d.next() % 6)
		l, lt := d.pair(depth + 1)
		r, rt := d.pair(depth + 1)
		return Compare{op, l, r}, Compare{op, lt, rt}
	case 4:
		op := LogicOp(d.next() % 2)
		l, lt := d.pair(depth + 1)
		r, rt := d.pair(depth + 1)
		return Logic{op, l, r}, Logic{op, lt, rt}
	default:
		e, et := d.pair(depth + 1)
		return Not{e}, Not{et}
	}
}

// evalText renders e's result on every row through tuple.AppendText,
// one line per row; an error renders as its message.
func evalText(e Expr, rows []tuple.Tuple) []byte {
	var out []byte
	for _, r := range rows {
		v, err := e.Eval(r)
		if err != nil {
			out = append(out, "error: "+err.Error()...)
		} else {
			out = tuple.AppendText(out, tuple.Tuple{v})
		}
		out = append(out, '\n')
	}
	return out
}

// FuzzSignatureSound holds the plan matcher's invariant at the
// expression level: two expressions with equal canonical strings (the
// stuff of operator signatures) must evaluate to the same bytes on every
// row. Each decoded expression joins the batch together with its
// int/float twin, and the batch is grouped by String.
func FuzzSignatureSound(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 1, 0})             // mul($0, 1)
	f.Add([]byte{3, 0, 0, 1, 1, 12})            // eq($1, NaN)
	f.Add([]byte{2, 0, 0, 2, 1, 4, 4, 1, 1, 5}) // add($2, 2^53-1); or(float 2^53-1, $0)
	f.Add([]byte{5, 2, 3, 0, 1, 1, 9})          // not(div($1, -0.0))
	rows := soundRows()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data}
		var batch []Expr
		for len(d.data) > 0 && len(batch) < 16 {
			e, twin := d.pair(0)
			batch = append(batch, e, twin)
		}
		seen := map[string]Expr{}
		want := map[string][]byte{}
		for _, e := range batch {
			sig := e.String()
			got := evalText(e, rows)
			if first, ok := want[sig]; !ok {
				seen[sig], want[sig] = e, got
			} else if string(first) != string(got) {
				t.Fatalf("signature %s: %#v and %#v evaluate differently:\n%s\nvs\n%s",
					sig, seen[sig], e, first, got)
			}
		}
	})
}

package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// refAgg is Agg.Eval's answer over a bag as it was computed before
// AggState: one loop over the tuples with the rules written out inline.
// It shares no code with AggState, so the fold, the merge of partials
// and the map-side combiner (held to Eval by FuzzMapCombine) are all
// checked against an independent reading of Pig's aggregate rules.
func refAgg(a Agg, bag *tuple.Bag) (tuple.Value, error) {
	if bag == nil {
		if a.Kind == AggCount {
			return int64(0), nil
		}
		return nil, nil
	}
	if a.Kind == AggCount && a.Field < 0 {
		return int64(bag.Len()), nil
	}
	var (
		count int64
		sum   float64
		minV  tuple.Value
		maxV  tuple.Value
		allI  = true
		sumI  int64
	)
	for _, bt := range bag.Tuples {
		var v tuple.Value
		if a.Field < 0 {
			if len(bt) > 0 {
				v = bt[0]
			}
		} else if a.Field < len(bt) {
			v = bt[a.Field]
		}
		if tuple.IsNull(v) {
			continue
		}
		switch a.Kind {
		case AggCount:
			count++
		case AggSum, AggAvg:
			f, ok := tuple.ToFloat(v)
			if !ok {
				continue
			}
			count++
			sum += f
			if i, isInt := v.(int64); isInt {
				sumI += i
			} else {
				allI = false
			}
		case AggMin:
			if minV == nil || tuple.Compare(v, minV) < 0 {
				minV = v
			}
		case AggMax:
			if maxV == nil || tuple.Compare(v, maxV) > 0 {
				maxV = v
			}
		}
	}
	switch a.Kind {
	case AggCount:
		return count, nil
	case AggSum:
		if count == 0 {
			return nil, nil
		}
		if allI {
			return sumI, nil
		}
		return sum, nil
	case AggAvg:
		if count == 0 {
			return nil, nil
		}
		return sum / float64(count), nil
	case AggMin:
		return minV, nil
	case AggMax:
		return maxV, nil
	}
	return nil, fmt.Errorf("expr: unknown aggregate %v", a.Kind)
}

// aggValues are aggregated fields: numbers whose sums are exact in any
// order (small ints and halves, ±0, the infinities, NaN) with ties
// across types (5 and 5.0, 0 and -0.0), numeric and other strings, and
// null.
var aggValues = []tuple.Value{
	int64(-3), int64(0), int64(1), int64(5), int64(7), 0.5, -1.5, 5.0, 0.0, math.Copysign(0, -1),
	math.NaN(), math.Inf(1), math.Inf(-1), "7", "2.5", "NaN", "x", "a\tb", nil,
}

// identical reports whether a and b are the same value: the same type,
// a float with the same bits (any two NaNs match, since they print
// alike) — stricter than tuple.Equal, which equates 5 with 5.0 and 0
// with -0.0.
func identical(a, b tuple.Value) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && (math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y))
	}
	return a == b
}

// rendering is the text form a partial state's width is accounted at:
// the nested tuple (count,sumI,sumF,allInt,min,max), allInt 1 or 0.
func rendering(s *AggState) tuple.Tuple {
	allInt := int64(1)
	if s.mixed {
		allInt = 0
	}
	return tuple.Tuple{tuple.Tuple{s.count, s.sumI, s.sumF, allInt, s.minV, s.maxV}}
}

// checkAggState draws an aggregate and a bag from d, cuts the bag into
// runs (some empty), Adds each run into a state of its own and Merges
// the runs' states in order. It requires that the merged Result and
// Eval over the whole bag are both identical to refAgg, and that every
// state's TextLen is the width of its rendering.
func checkAggState(t *testing.T, d *exprDecoder) {
	t.Helper()
	a := Agg{Kind: AggKind(d.next() % 5), Bag: NewCol(0), Field: d.next()%4 - 1}
	bag := &tuple.Bag{}
	for n := d.next() % 48; n > 0; n-- {
		bt := make(tuple.Tuple, d.next()%3)
		for j := range bt {
			bt[j] = aggValues[d.next()%len(aggValues)]
		}
		bag.Add(bt)
	}
	want, err := refAgg(a, bag)
	if err != nil {
		t.Fatal(err)
	}
	checkWidth := func(s *AggState) {
		if got, want := s.TextLen(), tuple.EncodeTextLen(rendering(s)); got != want {
			t.Fatalf("%v over %v: TextLen %d, rendering %v is %d wide", a, bag.Tuples, got, rendering(s), want)
		}
	}
	var total AggState
	for lo := 0; lo < bag.Len(); {
		n := d.next() % 8
		if n == 0 {
			total.Merge(&AggState{}) // an empty run, then a run of one
			n = 1
		}
		hi := min(bag.Len(), lo+n)
		var run AggState
		for _, bt := range bag.Tuples[lo:hi] {
			run.Add(a, bt)
		}
		checkWidth(&run)
		total.Merge(&run)
		lo = hi
	}
	checkWidth(&total)
	if got := total.Result(a.Kind); !identical(got, want) {
		t.Fatalf("%v over %v: merged %v (%T), want %v (%T)", a, bag.Tuples, got, got, want, want)
	}
	got, err := a.Eval(tuple.Tuple{bag})
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatalf("%v over %v: Eval %v (%T), want %v (%T)", a, bag.Tuples, got, got, want, want)
	}
}

// TestAggState runs checkAggState over random bytes.
func TestAggState(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 200)
		r.Read(data)
		checkAggState(t, &exprDecoder{data: data})
	}
}

// FuzzAggState is TestAggState with the aggregate, the bag and its cut
// into runs drawn from the fuzzer's bytes.
func FuzzAggState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 6, 2, 3, 7, 1, 9, 2, 4, 3, 2, 0, 8, 1, 1, 5, 0, 2, 10, 11})
	f.Add([]byte("partials of SUM, MIN and MAX over 5 and 5.0, 0 and -0.0"))
	f.Fuzz(func(t *testing.T, data []byte) { checkAggState(t, &exprDecoder{data: data}) })
}

// TestAggStateTextLen holds TextLen to the width of the rendering over
// single-field states of every kind, the empty state, and states whose
// sums are not finite or whose MIN and MAX need escaping.
func TestAggStateTextLen(t *testing.T) {
	states := []AggState{{}}
	for k := AggCount; k <= AggMax; k++ {
		for _, v := range aggValues {
			var s AggState
			s.Add(Agg{Kind: k, Field: 0}, tuple.Tuple{v})
			states = append(states, s)
		}
	}
	states = append(states,
		AggState{count: math.MaxInt64, sumI: math.MinInt64, sumF: -1e300, mixed: true},
		AggState{count: 3, sumF: math.NaN(), minV: "a\\b\nc", maxV: "(x,y)"},
	)
	for i := range states {
		s := &states[i]
		if got, want := s.TextLen(), tuple.EncodeTextLen(rendering(s)); got != want {
			t.Errorf("state %+v: TextLen %d, rendering %v is %d wide", *s, got, rendering(s), want)
		}
	}
}

// TestAggEvalUnknownKind keeps Eval's error for an aggregate kind it
// does not know, over any bag; a null bag still aggregates as empty.
func TestAggEvalUnknownKind(t *testing.T) {
	a := Agg{Kind: AggMax + 1, Bag: NewCol(0), Field: 0}
	if _, err := a.Eval(tuple.Tuple{&tuple.Bag{}}); err == nil {
		t.Error("unknown aggregate over an empty bag: want an error")
	}
	if _, err := a.Eval(tuple.Tuple{&tuple.Bag{Tuples: []tuple.Tuple{{int64(1)}}}}); err == nil {
		t.Error("unknown aggregate over a bag: want an error")
	}
	if v, err := a.Eval(tuple.Tuple{nil}); v != nil || err != nil {
		t.Errorf("unknown aggregate over a null bag: %v, %v", v, err)
	}
}

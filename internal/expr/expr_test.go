package expr

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

func evalOK(t *testing.T, e Expr, tu tuple.Tuple) tuple.Value {
	t.Helper()
	v, err := e.Eval(tu)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColAndConst(t *testing.T) {
	tu := tuple.Tuple{"a", int64(5)}
	if v := evalOK(t, NewCol(1), tu); v != int64(5) {
		t.Errorf("col = %v", v)
	}
	if v := evalOK(t, NewCol(9), tu); v != nil {
		t.Errorf("out-of-range col should be null, got %v", v)
	}
	if v := evalOK(t, Const{V: "lit"}, tu); v != "lit" {
		t.Errorf("const = %v", v)
	}
}

func TestArithmetic(t *testing.T) {
	tu := tuple.Tuple{int64(10), int64(3), 2.5, "4"}
	cases := []struct {
		e    Expr
		want tuple.Value
	}{
		{Binary{OpAdd, NewCol(0), NewCol(1)}, int64(13)},
		{Binary{OpSub, NewCol(0), NewCol(1)}, int64(7)},
		{Binary{OpMul, NewCol(0), NewCol(1)}, int64(30)},
		{Binary{OpDiv, NewCol(0), NewCol(1)}, 10.0 / 3.0},
		{Binary{OpMod, NewCol(0), NewCol(1)}, int64(1)},
		{Binary{OpAdd, NewCol(0), NewCol(2)}, 12.5},
		{Binary{OpAdd, NewCol(0), NewCol(3)}, 14.0}, // string coercion
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, tu); !tuple.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestArithmeticNulls(t *testing.T) {
	tu := tuple.Tuple{nil, int64(3), "zebra"}
	if v := evalOK(t, Binary{OpAdd, NewCol(0), NewCol(1)}, tu); v != nil {
		t.Errorf("null + 3 = %v, want null", v)
	}
	if v := evalOK(t, Binary{OpAdd, NewCol(2), NewCol(1)}, tu); v != nil {
		t.Errorf("non-numeric string + 3 = %v, want null", v)
	}
	if v := evalOK(t, Binary{OpDiv, NewCol(1), Const{V: int64(0)}}, tu); v != nil {
		t.Errorf("div by zero = %v, want null", v)
	}
	// A float divisor that truncates to zero is a modulus by zero too
	// (it used to panic with an integer divide by zero).
	if v := evalOK(t, Binary{OpMod, NewCol(1), Const{V: 0.5}}, tu); v != nil {
		t.Errorf("3 mod 0.5 = %v, want null", v)
	}
}

func TestComparisons(t *testing.T) {
	tu := tuple.Tuple{int64(5), "abc", nil}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Compare{CmpEq, NewCol(0), Const{V: int64(5)}}, 1},
		{Compare{CmpNe, NewCol(0), Const{V: int64(5)}}, 0},
		{Compare{CmpLt, NewCol(0), Const{V: int64(9)}}, 1},
		{Compare{CmpGe, NewCol(0), Const{V: int64(9)}}, 0},
		{Compare{CmpEq, NewCol(1), Const{V: "abc"}}, 1},
		{Compare{CmpEq, NewCol(0), Const{V: 5.0}}, 1}, // numeric cross-type
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, tu); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if got := evalOK(t, Compare{CmpEq, NewCol(2), Const{V: int64(1)}}, tu); got != nil {
		t.Errorf("comparison with null = %v, want null", got)
	}
}

func TestLogic(t *testing.T) {
	tt := Const{V: int64(1)}
	ff := Const{V: int64(0)}
	var empty tuple.Tuple
	if got := evalOK(t, Logic{LogicAnd, tt, ff}, empty); got != int64(0) {
		t.Errorf("true and false = %v", got)
	}
	if got := evalOK(t, Logic{LogicOr, ff, tt}, empty); got != int64(1) {
		t.Errorf("false or true = %v", got)
	}
	if got := evalOK(t, Not{tt}, empty); got != int64(0) {
		t.Errorf("not true = %v", got)
	}
	if got := evalOK(t, Not{Const{V: nil}}, empty); got != int64(1) {
		t.Errorf("not null = %v (null is falsy)", got)
	}
}

func TestLogicShortCircuit(t *testing.T) {
	// The right side errors if evaluated (unknown function); AND with a
	// false left side must not evaluate it.
	bad := Func{Name: "NO_SUCH_FN"}
	e := Logic{LogicAnd, Const{V: int64(0)}, bad}
	if got := evalOK(t, e, nil); got != int64(0) {
		t.Errorf("short-circuit and = %v", got)
	}
	e2 := Logic{LogicOr, Const{V: int64(1)}, bad}
	if got := evalOK(t, e2, nil); got != int64(1) {
		t.Errorf("short-circuit or = %v", got)
	}
}

func groupedTuple() tuple.Tuple {
	// (group, bag{(u1, 10), (u2, 20), (u3, null)})
	return tuple.Tuple{
		"g",
		tuple.NewBag(
			tuple.Tuple{"u1", int64(10)},
			tuple.Tuple{"u2", int64(20)},
			tuple.Tuple{"u3", nil},
		),
	}
}

func TestAggregates(t *testing.T) {
	tu := groupedTuple()
	cases := []struct {
		e    Expr
		want tuple.Value
	}{
		{Agg{AggCount, NewCol(1), -1}, int64(3)},
		{Agg{AggCount, NewCol(1), 1}, int64(2)}, // nulls not counted
		{Agg{AggSum, NewCol(1), 1}, int64(30)},
		{Agg{AggAvg, NewCol(1), 1}, 15.0},
		{Agg{AggMin, NewCol(1), 1}, int64(10)},
		{Agg{AggMax, NewCol(1), 1}, int64(20)},
		{Agg{AggMin, NewCol(1), 0}, "u1"},
		{Agg{AggMax, NewCol(1), 0}, "u3"},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, tu); !tuple.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestAggregateEmptyAndNullBags(t *testing.T) {
	empty := tuple.Tuple{"g", tuple.NewBag()}
	if got := evalOK(t, Agg{AggSum, NewCol(1), 0}, empty); got != nil {
		t.Errorf("SUM(empty) = %v, want null", got)
	}
	if got := evalOK(t, Agg{AggCount, NewCol(1), -1}, empty); got != int64(0) {
		t.Errorf("COUNT(empty) = %v, want 0", got)
	}
	nullBag := tuple.Tuple{"g", nil}
	if got := evalOK(t, Agg{AggCount, NewCol(1), -1}, nullBag); got != int64(0) {
		t.Errorf("COUNT(null) = %v, want 0", got)
	}
}

func TestAggSumFloatPromotion(t *testing.T) {
	tu := tuple.Tuple{"g", tuple.NewBag(tuple.Tuple{1.5}, tuple.Tuple{int64(2)})}
	got := evalOK(t, Agg{AggSum, NewCol(1), 0}, tu)
	if got != 3.5 {
		t.Errorf("SUM mixed = %v, want 3.5", got)
	}
}

func TestBagField(t *testing.T) {
	tu := groupedTuple()
	v := evalOK(t, BagField{NewCol(1), 0}, tu)
	bag := v.(*tuple.Bag)
	if bag.Len() != 3 || bag.Tuples[0][0] != "u1" {
		t.Errorf("BagField = %v", v)
	}
}

func TestScalarFuncs(t *testing.T) {
	tu := tuple.Tuple{"HeLLo", tuple.NewBag(), tuple.NewBag(tuple.Tuple{int64(1)})}
	if got := evalOK(t, Func{"LOWER", []Expr{NewCol(0)}}, tu); got != "hello" {
		t.Errorf("LOWER = %v", got)
	}
	if got := evalOK(t, Func{"UPPER", []Expr{NewCol(0)}}, tu); got != "HELLO" {
		t.Errorf("UPPER = %v", got)
	}
	if got := evalOK(t, Func{"ISEMPTY", []Expr{NewCol(1)}}, tu); got != int64(1) {
		t.Errorf("ISEMPTY(empty) = %v", got)
	}
	if got := evalOK(t, Func{"ISEMPTY", []Expr{NewCol(2)}}, tu); got != int64(0) {
		t.Errorf("ISEMPTY(nonempty) = %v", got)
	}
	if got := evalOK(t, Func{"SIZE", []Expr{NewCol(2)}}, tu); got != int64(1) {
		t.Errorf("SIZE = %v", got)
	}
	if got := evalOK(t, Func{"CONCAT", []Expr{NewCol(0), Const{V: "!"}}}, tu); got != "HeLLo!" {
		t.Errorf("CONCAT = %v", got)
	}
	if _, err := (Func{Name: "BOGUS"}).Eval(tu); err == nil {
		t.Errorf("unknown function should error")
	}
}

func TestCanonicalStrings(t *testing.T) {
	e := Logic{LogicAnd,
		Compare{CmpEq, NewCol(0), Const{V: "x"}},
		Not{Compare{CmpLt, NewCol(3), Const{V: int64(7)}}},
	}
	want := `and(eq($0,"x"),not(lt($3,const:i7)))`
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
	a := Agg{AggSum, NewCol(1), 2}
	if a.String() != "SUM($1.$2)" {
		t.Errorf("agg String = %q", a.String())
	}
	c := Agg{AggCount, NewCol(1), -1}
	if c.String() != "COUNT($1)" {
		t.Errorf("count String = %q", c.String())
	}
}

func TestStringInjectiveOnStructure(t *testing.T) {
	// Distinct expressions must not share canonical strings.
	exprs := []Expr{
		NewCol(0), NewCol(1),
		Const{V: int64(0)}, Const{V: "0"},
		Binary{OpAdd, NewCol(0), NewCol(1)},
		Binary{OpSub, NewCol(0), NewCol(1)},
		Compare{CmpEq, NewCol(0), NewCol(1)},
		Agg{AggSum, NewCol(1), 0},
		Agg{AggSum, NewCol(1), 1},
		Agg{AggAvg, NewCol(1), 0},
		// A literal's type is part of its meaning: int64 arithmetic
		// stays integral, anything else goes through float64.
		Const{V: int64(1)}, Const{V: float64(1)}, Const{V: nil}, Const{V: ""},
		Binary{OpMul, NewCol(0), Const{V: int64(1)}},
		Binary{OpMul, NewCol(0), Const{V: float64(1)}},
	}
	seen := map[string]Expr{}
	for _, e := range exprs {
		s := e.String()
		if prev, ok := seen[s]; ok {
			t.Errorf("canonical collision: %#v and %#v both render %q", prev, e, s)
		}
		seen[s] = e
	}
}

// opaque is an Expr kind Columns does not know.
type opaque struct{}

func (opaque) Eval(t tuple.Tuple) (tuple.Value, error) { return int64(len(t)), nil }
func (opaque) String() string                          { return "opaque" }

func TestColumns(t *testing.T) {
	e := Logic{LogicAnd,
		Compare{CmpEq, NewCol(3), Const{V: "x"}},
		Compare{CmpLt, Binary{OpAdd, NewCol(1), NewCol(3)}, NewCol(0)},
	}
	cases := []struct {
		e    Expr
		want []int
		ok   bool
	}{
		{e, []int{0, 1, 3}, true},
		{Const{V: int64(1)}, []int{}, true},
		{Func{"CONCAT", []Expr{NewCol(7), Not{NewCol(2)}}}, []int{2, 7}, true},
		{Agg{AggSum, BagField{NewCol(4), 1}, 0}, []int{4}, true},
		{opaque{}, nil, false},
		{Binary{OpAdd, NewCol(1), opaque{}}, nil, false},
		{Func{"CONCAT", []Expr{NewCol(0), opaque{}}}, nil, false},
	}
	for _, c := range cases {
		got, ok := Columns(c.e)
		if ok != c.ok || !slices.Equal(got, c.want) {
			t.Errorf("Columns(%s) = %v, %v; want %v, %v", c.e, got, ok, c.want, c.ok)
		}
	}
}

func TestRemap(t *testing.T) {
	e := Compare{CmpEq, NewCol(2), Const{V: int64(1)}}
	m := map[int]int{2: 0}
	ne, ok := Remap(e, m)
	if !ok {
		t.Fatal("Remap failed")
	}
	if ne.String() != "eq($0,const:i1)" {
		t.Errorf("Remap = %s", ne)
	}
	if _, ok := Remap(Compare{CmpEq, NewCol(5), Const{V: int64(1)}}, m); ok {
		t.Errorf("Remap should fail on unmapped column")
	}
}

func TestEvalDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tu := tuple.Tuple{int64(r.Intn(100)), float64(r.Intn(100)), "s"}
	e := Binary{OpMul, Binary{OpAdd, NewCol(0), NewCol(1)}, Const{V: int64(3)}}
	v1 := evalOK(t, e, tu)
	for i := 0; i < 10; i++ {
		if v2 := evalOK(t, e, tu); !tuple.Equal(v1, v2) {
			t.Fatalf("nondeterministic eval: %v vs %v", v1, v2)
		}
	}
}

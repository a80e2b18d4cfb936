package expr

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/tuple"
)

// AggKind identifies an aggregate function applied to a bag.
type AggKind int

// The aggregate functions of the Pig builtin set that the PigMix queries
// exercise.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggKindByName resolves a (case-insensitive) function name.
func AggKindByName(name string) (AggKind, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	}
	return 0, false
}

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AGG(%d)", int(k))
}

// Agg applies an aggregate function over a bag-valued expression. Field
// selects the bag-tuple column to aggregate; -1 aggregates whole tuples
// (only meaningful for COUNT).
type Agg struct {
	Kind  AggKind
	Bag   Expr
	Field int
}

// Eval computes the aggregate: a fold of the bag's tuples through one
// AggState. A null or missing bag aggregates as an empty bag.
func (a Agg) Eval(t tuple.Tuple) (tuple.Value, error) {
	bv, err := a.Bag.Eval(t)
	if err != nil {
		return nil, err
	}
	bag, _ := bv.(*tuple.Bag)
	if a.Kind == AggCount && a.Field < 0 {
		return int64(bag.Len()), nil
	}
	var s AggState
	if bag != nil {
		if a.Kind < AggCount || a.Kind > AggMax {
			return nil, fmt.Errorf("expr: unknown aggregate %v", a.Kind)
		}
		for _, bt := range bag.Tuples {
			s.Add(a, bt)
		}
	}
	return s.Result(a.Kind), nil
}

// AggState is the partial state of one aggregate over some of a bag's
// tuples; the zero value is the state of none. Agg.Eval folds a whole
// bag through one, and the map-side combiner folds each map task's
// share of a group into its own and merges them at the reducer, so both
// answer by the same rules: SUM/AVG/MIN/MAX skip null and non-numeric
// fields the way Pig's builtins do, COUNT counts non-null fields (or
// all tuples when Field is -1), SUM stays an int64 while every summed
// number is one, and a MIN or MAX tie keeps the first arrival.
type AggState struct {
	count int64
	sumI  int64
	sumF  float64
	// mixed: a summed number was not an int64, so SUM is sumF.
	mixed bool
	minV  tuple.Value
	maxV  tuple.Value
}

// Add folds one bag tuple into the state.
func (s *AggState) Add(a Agg, t tuple.Tuple) {
	var v tuple.Value
	switch {
	case a.Field < 0 && a.Kind == AggCount:
		// COUNT(bag): counts tuples.
		s.count++
		return
	case a.Field < 0:
		if len(t) > 0 {
			v = t[0]
		}
	case a.Field < len(t):
		v = t[a.Field]
	}
	if tuple.IsNull(v) {
		return
	}
	switch a.Kind {
	case AggCount:
		s.count++
	case AggSum, AggAvg:
		f, ok := tuple.ToFloat(v)
		if !ok {
			return
		}
		s.count++
		s.sumF += f
		if i, isInt := v.(int64); isInt {
			s.sumI += i
		} else {
			s.mixed = true
		}
	case AggMin:
		if s.minV == nil || tuple.Compare(v, s.minV) < 0 {
			s.minV = v
		}
	case AggMax:
		if s.maxV == nil || tuple.Compare(v, s.maxV) > 0 {
			s.maxV = v
		}
	}
}

// Merge folds the partial o, of tuples that came after the state's,
// into the state. On a MIN or MAX tie the state's value stays, so
// merging partials in arrival order keeps the first arrival, as one
// fold over the whole bag would. Float sums are re-associated, so a
// merged SUM or AVG of floats may differ from that fold in its last
// bits.
func (s *AggState) Merge(o *AggState) {
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	s.mixed = s.mixed || o.mixed
	if o.minV != nil && (s.minV == nil || tuple.Compare(o.minV, s.minV) < 0) {
		s.minV = o.minV
	}
	if o.maxV != nil && (s.maxV == nil || tuple.Compare(o.maxV, s.maxV) > 0) {
		s.maxV = o.maxV
	}
}

// Result is the aggregate's value over the tuples folded in: COUNT of
// none is 0, SUM, AVG, MIN and MAX of none are null.
func (s *AggState) Result(kind AggKind) tuple.Value {
	switch kind {
	case AggCount:
		return s.count
	case AggSum:
		if s.count == 0 {
			return nil
		}
		if !s.mixed {
			return s.sumI
		}
		return s.sumF
	case AggAvg:
		if s.count == 0 {
			return nil
		}
		return s.sumF / float64(s.count)
	case AggMin:
		return s.minV
	case AggMax:
		return s.maxV
	}
	return nil
}

// TextLen is the state's shuffle volume: the width of its text
// rendering as the nested tuple (count,sumI,sumF,allInt,min,max), where
// allInt is 1 or 0 and min and max are escaped like stored fields.
func (s *AggState) TextLen() int {
	const fixed = 2 + 5 + 1 // parentheses, commas, the allInt digit
	return fixed + tuple.IntTextLen(s.count) + tuple.IntTextLen(s.sumI) + tuple.FloatTextLen(s.sumF) +
		tuple.EncodeTextLen(tuple.Tuple{s.minV}) + tuple.EncodeTextLen(tuple.Tuple{s.maxV})
}

func (a Agg) String() string {
	if a.Field < 0 {
		return fmt.Sprintf("%s(%s)", a.Kind, a.Bag)
	}
	return fmt.Sprintf("%s(%s.$%d)", a.Kind, a.Bag, a.Field)
}

// BagField projects one column out of every tuple of a bag, producing a
// new bag of 1-field tuples. It implements Pig's "C.est_revenue" when the
// projection is used as a value rather than inside an aggregate.
type BagField struct {
	Bag   Expr
	Field int
}

// Eval projects the bag column.
func (b BagField) Eval(t tuple.Tuple) (tuple.Value, error) {
	bv, err := b.Bag.Eval(t)
	if err != nil {
		return nil, err
	}
	bag, _ := bv.(*tuple.Bag)
	if bag == nil {
		return nil, nil
	}
	out := &tuple.Bag{Tuples: make([]tuple.Tuple, 0, bag.Len())}
	for _, bt := range bag.Tuples {
		var v tuple.Value
		if b.Field >= 0 && b.Field < len(bt) {
			v = bt[b.Field]
		}
		out.Add(tuple.Tuple{v})
	}
	return out, nil
}

func (b BagField) String() string {
	return fmt.Sprintf("bagfield(%s,$%d)", b.Bag, b.Field)
}

// Func is a scalar builtin function call.
type Func struct {
	Name string // canonical upper-case name
	Args []Expr
}

// Eval dispatches on the function name. Supported builtins: ISEMPTY
// (bags), SIZE (bags/strings/tuples), CONCAT, LOWER, UPPER.
func (f Func) Eval(t tuple.Tuple) (tuple.Value, error) {
	args := make([]tuple.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(t)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch f.Name {
	case "ISEMPTY":
		if len(args) != 1 {
			return nil, fmt.Errorf("expr: ISEMPTY wants 1 arg, got %d", len(args))
		}
		bag, _ := args[0].(*tuple.Bag)
		return boolVal(bag.Len() == 0), nil
	case "SIZE":
		if len(args) != 1 {
			return nil, fmt.Errorf("expr: SIZE wants 1 arg, got %d", len(args))
		}
		switch x := args[0].(type) {
		case *tuple.Bag:
			return int64(x.Len()), nil
		case tuple.Tuple:
			return int64(len(x)), nil
		case string:
			return int64(len(x)), nil
		case nil:
			return nil, nil
		default:
			return int64(1), nil
		}
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if tuple.IsNull(a) {
				return nil, nil
			}
			b.WriteString(tuple.ToString(a))
		}
		return b.String(), nil
	case "LOWER":
		if len(args) != 1 {
			return nil, fmt.Errorf("expr: LOWER wants 1 arg")
		}
		s, _ := args[0].(string)
		return strings.ToLower(s), nil
	case "UPPER":
		if len(args) != 1 {
			return nil, fmt.Errorf("expr: UPPER wants 1 arg")
		}
		s, _ := args[0].(string)
		return strings.ToUpper(s), nil
	}
	return nil, fmt.Errorf("expr: unknown function %s", f.Name)
}

func (f Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ","))
}

// IsScalarFunc reports whether name is a supported scalar builtin.
func IsScalarFunc(name string) bool {
	switch strings.ToUpper(name) {
	case "ISEMPTY", "SIZE", "CONCAT", "LOWER", "UPPER":
		return true
	}
	return false
}

// Columns returns the top-level input columns the expression reads, in
// ascending order. It reports false when e holds an expression kind it
// cannot see into: the caller must then assume every column is read.
// The map engine uses it to choose the columns a task's row feed
// fills; under-reporting there would hide a value the expression
// reads, so an unknown kind is reported, never skipped.
func Columns(e Expr) ([]int, bool) {
	seen := map[int]bool{}
	var walk func(Expr) bool
	walk = func(e Expr) bool {
		switch x := e.(type) {
		case Col:
			seen[x.Index] = true
		case Const:
		case Binary:
			return walk(x.L) && walk(x.R)
		case Compare:
			return walk(x.L) && walk(x.R)
		case Logic:
			return walk(x.L) && walk(x.R)
		case Not:
			return walk(x.E)
		case Agg:
			return walk(x.Bag)
		case BagField:
			return walk(x.Bag)
		case Func:
			for _, a := range x.Args {
				if !walk(a) {
					return false
				}
			}
		default:
			return false
		}
		return true
	}
	if !walk(e) {
		return nil, false
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	slices.Sort(out)
	return out, true
}

// Remap rewrites every column reference through m (old index → new
// index). It returns false when a referenced column is missing from m.
// The optimizer uses it to push expressions through projections.
func Remap(e Expr, m map[int]int) (Expr, bool) {
	switch x := e.(type) {
	case Col:
		ni, ok := m[x.Index]
		if !ok {
			return nil, false
		}
		return Col{Index: ni}, true
	case Const:
		return x, true
	case Binary:
		l, ok1 := Remap(x.L, m)
		r, ok2 := Remap(x.R, m)
		if !ok1 || !ok2 {
			return nil, false
		}
		return Binary{Op: x.Op, L: l, R: r}, true
	case Compare:
		l, ok1 := Remap(x.L, m)
		r, ok2 := Remap(x.R, m)
		if !ok1 || !ok2 {
			return nil, false
		}
		return Compare{Op: x.Op, L: l, R: r}, true
	case Logic:
		l, ok1 := Remap(x.L, m)
		r, ok2 := Remap(x.R, m)
		if !ok1 || !ok2 {
			return nil, false
		}
		return Logic{Op: x.Op, L: l, R: r}, true
	case Not:
		inner, ok := Remap(x.E, m)
		if !ok {
			return nil, false
		}
		return Not{E: inner}, true
	case Agg:
		b, ok := Remap(x.Bag, m)
		if !ok {
			return nil, false
		}
		return Agg{Kind: x.Kind, Bag: b, Field: x.Field}, true
	case BagField:
		b, ok := Remap(x.Bag, m)
		if !ok {
			return nil, false
		}
		return BagField{Bag: b, Field: x.Field}, true
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, ok := Remap(a, m)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return Func{Name: x.Name, Args: args}, true
	}
	return nil, false
}

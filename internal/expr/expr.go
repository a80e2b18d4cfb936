// Package expr implements the positional expression algebra evaluated by
// physical operators: column references, literals, arithmetic,
// comparisons, boolean connectives, scalar functions, and the aggregate
// functions applied to bags after grouping.
//
// Every expression has a canonical String form. Two physical operators
// are considered equivalent by the ReStore plan matcher only when their
// expressions' canonical strings match, so String must be injective on
// semantics: equal strings ⇒ equal behaviour.
package expr

import (
	"fmt"
	"strconv"

	"repro/internal/tuple"
)

// Expr is an evaluatable expression over a tuple.
type Expr interface {
	// Eval computes the expression over t. Boolean results are int64 1/0.
	Eval(t tuple.Tuple) (tuple.Value, error)
	// String returns the canonical form used for plan equivalence.
	String() string
}

// Col references the i'th field of the input tuple.
type Col struct {
	Index int
}

// NewCol returns a reference to input column i.
func NewCol(i int) Col { return Col{Index: i} }

// Eval returns the referenced field, or null when the tuple is short.
func (c Col) Eval(t tuple.Tuple) (tuple.Value, error) {
	if c.Index < 0 || c.Index >= len(t) {
		return nil, nil
	}
	return t[c.Index], nil
}

func (c Col) String() string { return fmt.Sprintf("$%d", c.Index) }

// Const is a literal value.
type Const struct {
	V tuple.Value
}

// Eval returns the literal.
func (c Const) Eval(tuple.Tuple) (tuple.Value, error) { return c.V, nil }

// String tags a numeric literal with its type ("const:i1", "const:f1"):
// Binary keeps int64 arithmetic integral and takes anything else through
// float64, so x*1 and x*1.0 differ beyond 2^53 and must not share a
// signature.
func (c Const) String() string {
	switch x := c.V.(type) {
	case string:
		return fmt.Sprintf("%q", x)
	case int64:
		return "const:i" + strconv.FormatInt(x, 10)
	case float64:
		return "const:f" + strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return "const:" + tuple.ToString(c.V)
	}
}

// BinaryOp identifies an arithmetic operator.
type BinaryOp int

// Arithmetic operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpMod:
		return "mod"
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// Binary applies an arithmetic operator. Integer inputs stay integral
// except for division, which promotes to float.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Eval computes the arithmetic result; operands that cannot be coerced to
// numbers yield null, matching Pig's null-propagation.
func (b Binary) Eval(t tuple.Tuple) (tuple.Value, error) {
	lv, err := b.L.Eval(t)
	if err != nil {
		return nil, err
	}
	rv, err := b.R.Eval(t)
	if err != nil {
		return nil, err
	}
	if tuple.IsNull(lv) || tuple.IsNull(rv) {
		return nil, nil
	}
	li, lok := lv.(int64)
	ri, rok := rv.(int64)
	if lok && rok && b.Op != OpDiv {
		switch b.Op {
		case OpAdd:
			return li + ri, nil
		case OpSub:
			return li - ri, nil
		case OpMul:
			return li * ri, nil
		case OpMod:
			if ri == 0 {
				return nil, nil
			}
			return li % ri, nil
		}
	}
	lf, lok2 := tuple.ToFloat(lv)
	rf, rok2 := tuple.ToFloat(rv)
	if !lok2 || !rok2 {
		return nil, nil
	}
	switch b.Op {
	case OpAdd:
		return lf + rf, nil
	case OpSub:
		return lf - rf, nil
	case OpMul:
		return lf * rf, nil
	case OpDiv:
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	case OpMod:
		// Both sides truncate to int64; a divisor that truncates to
		// zero (|rf| < 1) is a modulus by zero, so null.
		d := int64(rf)
		if d == 0 {
			return nil, nil
		}
		return float64(int64(lf) % d), nil
	}
	return nil, fmt.Errorf("expr: unknown binary op %v", b.Op)
}

func (b Binary) String() string {
	return fmt.Sprintf("%s(%s,%s)", b.Op, b.L, b.R)
}

// CmpOp identifies a comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "eq"
	case CmpNe:
		return "ne"
	case CmpLt:
		return "lt"
	case CmpLe:
		return "le"
	case CmpGt:
		return "gt"
	case CmpGe:
		return "ge"
	}
	return fmt.Sprintf("cmp(%d)", int(op))
}

// Compare evaluates a comparison; the result is int64 1 or 0, and null
// when either operand is null.
type Compare struct {
	Op   CmpOp
	L, R Expr
}

// Eval computes the comparison.
func (c Compare) Eval(t tuple.Tuple) (tuple.Value, error) {
	lv, err := c.L.Eval(t)
	if err != nil {
		return nil, err
	}
	rv, err := c.R.Eval(t)
	if err != nil {
		return nil, err
	}
	if tuple.IsNull(lv) || tuple.IsNull(rv) {
		return nil, nil
	}
	cmp := tuple.Compare(lv, rv)
	var ok bool
	switch c.Op {
	case CmpEq:
		ok = cmp == 0
	case CmpNe:
		ok = cmp != 0
	case CmpLt:
		ok = cmp < 0
	case CmpLe:
		ok = cmp <= 0
	case CmpGt:
		ok = cmp > 0
	case CmpGe:
		ok = cmp >= 0
	}
	return boolVal(ok), nil
}

func (c Compare) String() string {
	return fmt.Sprintf("%s(%s,%s)", c.Op, c.L, c.R)
}

// LogicOp identifies a boolean connective.
type LogicOp int

// Boolean connectives.
const (
	LogicAnd LogicOp = iota
	LogicOr
)

func (op LogicOp) String() string {
	if op == LogicAnd {
		return "and"
	}
	return "or"
}

// Logic combines two boolean expressions.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Eval computes the connective with null treated as false.
func (l Logic) Eval(t tuple.Tuple) (tuple.Value, error) {
	lv, err := l.L.Eval(t)
	if err != nil {
		return nil, err
	}
	lb := Truthy(lv)
	if l.Op == LogicAnd && !lb {
		return boolVal(false), nil
	}
	if l.Op == LogicOr && lb {
		return boolVal(true), nil
	}
	rv, err := l.R.Eval(t)
	if err != nil {
		return nil, err
	}
	return boolVal(Truthy(rv)), nil
}

func (l Logic) String() string {
	return fmt.Sprintf("%s(%s,%s)", l.Op, l.L, l.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval computes the negation with null treated as false.
func (n Not) Eval(t tuple.Tuple) (tuple.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return nil, err
	}
	return boolVal(!Truthy(v)), nil
}

func (n Not) String() string { return fmt.Sprintf("not(%s)", n.E) }

// Truthy interprets a value as a boolean: non-zero numbers, non-empty
// strings, non-empty bags and tuples are true; null is false.
func Truthy(v tuple.Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case tuple.Tuple:
		return len(x) > 0
	case *tuple.Bag:
		return x.Len() > 0
	}
	return false
}

func boolVal(b bool) tuple.Value {
	if b {
		return int64(1)
	}
	return int64(0)
}

// EvalBool evaluates e and interprets the result as a boolean.
func EvalBool(e Expr, t tuple.Tuple) (bool, error) {
	v, err := e.Eval(t)
	if err != nil {
		return false, err
	}
	return Truthy(v), nil
}

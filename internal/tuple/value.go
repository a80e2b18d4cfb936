// Package tuple defines the data model shared by every layer of the
// system: dynamically typed values, tuples, bags, and schemas, together
// with comparison, hashing, and the text codec (codec.go) used by the
// MapReduce engine's load, store, and shuffle paths.
//
// The model mirrors Pig's: a relation is a bag of tuples, a tuple is an
// ordered list of fields, and a field is an int, a float, a string, a
// nested tuple, a bag, or null.
package tuple

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies the dynamic type of a Value.
type Type int

// The dynamic types a field can take.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeTuple
	TypeBag
)

// String returns the Pig-style name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "long"
	case TypeFloat:
		return "double"
	case TypeString:
		return "chararray"
	case TypeTuple:
		return "tuple"
	case TypeBag:
		return "bag"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Value is a dynamically typed field value. The concrete types are:
// nil, int64, float64, string, Tuple, and *Bag.
type Value interface{}

// Tuple is an ordered list of field values.
type Tuple []Value

// Bag is an unordered collection of tuples. Bags appear as the result of
// grouping and as nested fields inside tuples.
type Bag struct {
	Tuples []Tuple
}

// Add appends a tuple to the bag.
func (b *Bag) Add(t Tuple) { b.Tuples = append(b.Tuples, t) }

// Len returns the number of tuples in the bag.
func (b *Bag) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Tuples)
}

// IsNull reports whether v is the null value.
func IsNull(v Value) bool { return v == nil }

// ToFloat coerces v to a float64 the way Pig's arithmetic does: numbers
// convert directly and strings are parsed. The second result is false
// when no numeric interpretation exists.
func ToFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// ToString renders v in the text form used by the tab-separated storage
// format. Null renders as the empty string.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case Tuple:
		parts := make([]string, len(x))
		for i, f := range x {
			parts[i] = ToString(f)
		}
		return "(" + strings.Join(parts, ",") + ")"
	case *Bag:
		parts := make([]string, len(x.Tuples))
		for i, t := range x.Tuples {
			parts[i] = ToString(t)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	panic(fmt.Sprintf("tuple: unsupported value type %T", v))
}

// Copy returns a deep copy of t.
func (t Tuple) Copy() Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = copyValue(v)
	}
	return out
}

func copyValue(v Value) Value {
	switch x := v.(type) {
	case Tuple:
		return x.Copy()
	case *Bag:
		ts := make([]Tuple, len(x.Tuples))
		for i, t := range x.Tuples {
			ts[i] = t.Copy()
		}
		return &Bag{Tuples: ts}
	default:
		return v
	}
}

// String renders the tuple in Pig's parenthesized form.
func (t Tuple) String() string { return ToString(t) }

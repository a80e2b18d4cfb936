package tuple

import (
	"fmt"
	"strings"
)

// Field describes one column of a schema: a name and an optional declared
// type (TypeNull means "unspecified", Pig's bytearray-ish default). Bag
// and tuple columns produced by grouping carry the nested schema in
// Inner so that "C.est_revenue" projections can resolve.
type Field struct {
	Name  string
	Type  Type
	Inner *Schema
}

// Schema names the columns of a relation. The compiler uses schemas to
// resolve column names in Pig Latin to positional references; at runtime
// everything is positional.
type Schema struct {
	Fields []Field
}

// Len returns the number of columns.
func (s *Schema) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Fields)
}

// IndexOf returns the position of the named column, or -1. Names compare
// case-insensitively, like Pig aliases.
func (s *Schema) IndexOf(name string) int {
	if s == nil {
		return -1
	}
	for i, f := range s.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// String renders the schema as "(a, b: long, c)".
func (s *Schema) String() string {
	parts := make([]string, s.Len())
	for i, f := range s.Fields {
		if f.Type == TypeNull {
			parts[i] = f.Name
		} else {
			parts[i] = fmt.Sprintf("%s: %s", f.Name, f.Type)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseSchema parses a Pig-style schema declaration such as
// "user, timestamp: long, est_revenue: double". Unknown type names are an
// error; omitted types are unspecified.
func ParseSchema(src string) (*Schema, error) {
	src = strings.TrimSpace(src)
	src = strings.TrimPrefix(src, "(")
	src = strings.TrimSuffix(src, ")")
	if src == "" {
		return &Schema{}, nil
	}
	parts := strings.Split(src, ",")
	s := &Schema{Fields: make([]Field, 0, len(parts))}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("tuple: empty field in schema %q", src)
		}
		name, typ := p, TypeNull
		if i := strings.IndexByte(p, ':'); i >= 0 {
			name = strings.TrimSpace(p[:i])
			tn := strings.TrimSpace(p[i+1:])
			t, err := typeByName(tn)
			if err != nil {
				return nil, err
			}
			typ = t
		}
		if name == "" {
			return nil, fmt.Errorf("tuple: empty field name in schema %q", src)
		}
		s.Fields = append(s.Fields, Field{Name: name, Type: typ})
	}
	return s, nil
}

func typeByName(n string) (Type, error) {
	switch strings.ToLower(n) {
	case "int", "long":
		return TypeInt, nil
	case "float", "double":
		return TypeFloat, nil
	case "chararray", "string", "bytearray":
		return TypeString, nil
	case "tuple":
		return TypeTuple, nil
	case "bag":
		return TypeBag, nil
	}
	return TypeNull, fmt.Errorf("tuple: unknown type %q", n)
}

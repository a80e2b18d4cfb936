// Package logical builds logical query plans from parsed Pig Latin
// scripts. The builder resolves column names against propagated schemas,
// turning the parser's name-based expressions into the positional
// expressions of internal/expr, exactly the job Pig's front end performs
// before physical compilation.
package logical

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// Node is a logical operator in the plan DAG.
type Node interface {
	// Inputs returns upstream operators.
	Inputs() []Node
	// Schema returns the output schema.
	Schema() *tuple.Schema
	// Alias returns the Pig alias this node was bound to ("" for Store).
	Alias() string
}

type base struct {
	alias string
	sch   *tuple.Schema
}

func (b *base) Schema() *tuple.Schema { return b.sch }
func (b *base) Alias() string         { return b.alias }

// Load reads a dataset from the DFS.
type Load struct {
	base
	Path string
}

// Inputs returns no inputs; Load is a plan root.
func (*Load) Inputs() []Node { return nil }

// ForEach projects each input tuple through Exprs.
type ForEach struct {
	base
	In    Node
	Exprs []expr.Expr
}

// Inputs returns the single input.
func (f *ForEach) Inputs() []Node { return []Node{f.In} }

// Filter keeps tuples satisfying Cond.
type Filter struct {
	base
	In   Node
	Cond expr.Expr
}

// Inputs returns the single input.
func (f *Filter) Inputs() []Node { return []Node{f.In} }

// Group groups (one input) or cogroups (several inputs) by key
// expressions. All marks the GROUP … ALL form.
type Group struct {
	base
	Ins      []Node
	Keys     [][]expr.Expr
	All      bool
	Parallel int
}

// Inputs returns the grouped inputs.
func (g *Group) Inputs() []Node { return g.Ins }

// Join equi-joins the inputs on their key expressions.
type Join struct {
	base
	Ins      []Node
	Keys     [][]expr.Expr
	Parallel int
}

// Inputs returns the joined inputs.
func (j *Join) Inputs() []Node { return j.Ins }

// Distinct removes duplicate tuples.
type Distinct struct {
	base
	In       Node
	Parallel int
}

// Inputs returns the single input.
func (d *Distinct) Inputs() []Node { return []Node{d.In} }

// Union concatenates its inputs.
type Union struct {
	base
	Ins []Node
}

// Inputs returns the unioned inputs.
func (u *Union) Inputs() []Node { return u.Ins }

// Order sorts by key expressions.
type Order struct {
	base
	In   Node
	Keys []expr.Expr
	Desc []bool
}

// Inputs returns the single input.
func (o *Order) Inputs() []Node { return []Node{o.In} }

// Limit keeps the first N tuples.
type Limit struct {
	base
	In Node
	N  int64
}

// Inputs returns the single input.
func (l *Limit) Inputs() []Node { return []Node{l.In} }

// Store writes its input to the DFS; Stores are the plan sinks.
type Store struct {
	base
	In   Node
	Path string
}

// Inputs returns the single input.
func (s *Store) Inputs() []Node { return []Node{s.In} }

// Plan is a logical plan: the list of Store sinks of a script.
type Plan struct {
	Stores []*Store
}

// Build compiles a parsed script into a logical plan, resolving all
// column references. Every alias must be defined before use; at least
// one STORE must be present.
func Build(script *piglatin.Script) (*Plan, error) {
	b := &builder{env: map[string]Node{}}
	plan := &Plan{}
	for _, st := range script.Stmts {
		switch s := st.(type) {
		case *piglatin.Assign:
			n, err := b.buildOp(s.Alias, s.Op)
			if err != nil {
				return nil, err
			}
			b.env[strings.ToLower(s.Alias)] = n
		case *piglatin.Store:
			in, err := b.lookup(s.Alias)
			if err != nil {
				return nil, err
			}
			if err := checkStorePath(plan.Stores, s.Path); err != nil {
				return nil, err
			}
			plan.Stores = append(plan.Stores, &Store{
				base: base{sch: in.Schema()},
				In:   in,
				Path: s.Path,
			})
		default:
			return nil, fmt.Errorf("logical: unknown statement %T", st)
		}
	}
	if len(plan.Stores) == 0 {
		return nil, fmt.Errorf("logical: script has no STORE statement")
	}
	return plan, nil
}

// checkStorePath rejects a STORE path that equals, contains or lies
// within an earlier STORE path of the script: one output would replace
// or nest inside the other. Paths compare as the DFS names them, with no
// leading or trailing slash.
func checkStorePath(stores []*Store, path string) error {
	dfsPath := func(p string) string { return strings.TrimSuffix(strings.TrimPrefix(p, "/"), "/") }
	p := dfsPath(path)
	for _, st := range stores {
		q := dfsPath(st.Path)
		if p == q || strings.HasPrefix(p, q+"/") || strings.HasPrefix(q, p+"/") {
			return fmt.Errorf("logical: STORE into %q overlaps STORE into %q", path, st.Path)
		}
	}
	return nil
}

type builder struct {
	env map[string]Node
}

func (b *builder) lookup(alias string) (Node, error) {
	n, ok := b.env[strings.ToLower(alias)]
	if !ok {
		return nil, fmt.Errorf("logical: undefined alias %q", alias)
	}
	return n, nil
}

func (b *builder) buildOp(alias string, op piglatin.Op) (Node, error) {
	switch o := op.(type) {
	case *piglatin.Load:
		sch := &tuple.Schema{}
		if o.SchemaSrc != "" {
			s, err := tuple.ParseSchema(o.SchemaSrc)
			if err != nil {
				return nil, err
			}
			sch = s
		}
		return &Load{base: base{alias: alias, sch: sch}, Path: o.Path}, nil

	case *piglatin.ForEach:
		in, err := b.lookup(o.Input)
		if err != nil {
			return nil, err
		}
		return buildForEach(alias, in, o.Items)

	case *piglatin.Filter:
		in, err := b.lookup(o.Input)
		if err != nil {
			return nil, err
		}
		cond, err := Resolve(o.Cond, in.Schema())
		if err != nil {
			return nil, err
		}
		return &Filter{base: base{alias: alias, sch: in.Schema()}, In: in, Cond: cond}, nil

	case *piglatin.Group:
		return b.buildGroup(alias, o)

	case *piglatin.Join:
		return b.buildJoin(alias, o)

	case *piglatin.Distinct:
		in, err := b.lookup(o.Input)
		if err != nil {
			return nil, err
		}
		return &Distinct{
			base: base{alias: alias, sch: in.Schema()}, In: in, Parallel: o.Parallel,
		}, nil

	case *piglatin.Union:
		ins := make([]Node, len(o.Inputs))
		arity := -1
		for i, name := range o.Inputs {
			n, err := b.lookup(name)
			if err != nil {
				return nil, err
			}
			ins[i] = n
			if a := n.Schema().Len(); arity == -1 {
				arity = a
			} else if a != arity && a != 0 && arity != 0 {
				return nil, fmt.Errorf("logical: union of incompatible arities %d and %d", arity, a)
			}
		}
		return &Union{base: base{alias: alias, sch: ins[0].Schema()}, Ins: ins}, nil

	case *piglatin.Order:
		in, err := b.lookup(o.Input)
		if err != nil {
			return nil, err
		}
		ord := &Order{base: base{alias: alias, sch: in.Schema()}, In: in}
		for _, k := range o.Keys {
			e, err := Resolve(k.E, in.Schema())
			if err != nil {
				return nil, err
			}
			ord.Keys = append(ord.Keys, e)
			ord.Desc = append(ord.Desc, k.Desc)
		}
		return ord, nil

	case *piglatin.Limit:
		in, err := b.lookup(o.Input)
		if err != nil {
			return nil, err
		}
		return &Limit{base: base{alias: alias, sch: in.Schema()}, In: in, N: o.N}, nil
	}
	return nil, fmt.Errorf("logical: unknown operator %T", op)
}

func buildForEach(alias string, in Node, items []piglatin.GenItem) (Node, error) {
	insch := in.Schema()
	fe := &ForEach{base: base{alias: alias}, In: in}
	out := &tuple.Schema{}
	for _, item := range items {
		if _, isStar := item.E.(piglatin.Star); isStar {
			if insch.Len() == 0 {
				return nil, fmt.Errorf("logical: '*' requires a known schema on %s", in.Alias())
			}
			for i, f := range insch.Fields {
				fe.Exprs = append(fe.Exprs, expr.NewCol(i))
				out.Fields = append(out.Fields, f)
			}
			continue
		}
		e, err := Resolve(item.E, insch)
		if err != nil {
			return nil, err
		}
		fe.Exprs = append(fe.Exprs, e)
		out.Fields = append(out.Fields, outputField(item, e, insch))
	}
	fe.sch = out
	return fe, nil
}

// outputField derives the schema field for a generate item: the AS name
// wins, then a pass-through column keeps its input name and nested
// schema, and anything else gets a positional name.
func outputField(item piglatin.GenItem, e expr.Expr, insch *tuple.Schema) tuple.Field {
	f := tuple.Field{Name: item.As}
	if c, ok := e.(expr.Col); ok && c.Index < insch.Len() {
		in := insch.Fields[c.Index]
		if f.Name == "" {
			f.Name = in.Name
		}
		f.Type = in.Type
		f.Inner = in.Inner
		return f
	}
	if f.Name == "" {
		f.Name = fmt.Sprintf("f%d", len(insch.Fields))
	}
	switch e.(type) {
	case expr.Agg:
		f.Type = tuple.TypeNull // numeric, but depends on data
	}
	return f
}

func (b *builder) buildGroup(alias string, o *piglatin.Group) (Node, error) {
	g := &Group{base: base{alias: alias}, All: o.All, Parallel: o.Parallel}
	out := &tuple.Schema{}
	var groupField tuple.Field
	for i, name := range o.Inputs {
		in, err := b.lookup(name)
		if err != nil {
			return nil, err
		}
		g.Ins = append(g.Ins, in)
		var keys []expr.Expr
		if !o.All {
			for _, k := range o.Keys[i] {
				e, err := Resolve(k, in.Schema())
				if err != nil {
					return nil, err
				}
				keys = append(keys, e)
			}
		}
		g.Keys = append(g.Keys, keys)
		if i == 0 {
			groupField = groupSchemaField(keys, in.Schema())
		}
		out.Fields = append(out.Fields, tuple.Field{
			Name:  name,
			Type:  tuple.TypeBag,
			Inner: in.Schema(),
		})
	}
	out.Fields = append([]tuple.Field{groupField}, out.Fields...)
	g.sch = out
	return g, nil
}

// groupSchemaField describes the "group" column: the key itself for a
// single key, a tuple for composite keys.
func groupSchemaField(keys []expr.Expr, insch *tuple.Schema) tuple.Field {
	f := tuple.Field{Name: "group"}
	if len(keys) == 1 {
		if c, ok := keys[0].(expr.Col); ok && c.Index < insch.Len() {
			f.Type = insch.Fields[c.Index].Type
		}
		return f
	}
	f.Type = tuple.TypeTuple
	return f
}

func (b *builder) buildJoin(alias string, o *piglatin.Join) (Node, error) {
	j := &Join{base: base{alias: alias}, Parallel: o.Parallel}
	out := &tuple.Schema{}
	for i, name := range o.Inputs {
		in, err := b.lookup(name)
		if err != nil {
			return nil, err
		}
		j.Ins = append(j.Ins, in)
		var keys []expr.Expr
		for _, k := range o.Keys[i] {
			e, err := Resolve(k, in.Schema())
			if err != nil {
				return nil, err
			}
			keys = append(keys, e)
		}
		j.Keys = append(j.Keys, keys)
		for _, f := range in.Schema().Fields {
			out.Fields = append(out.Fields, tuple.Field{
				Name:  name + "::" + f.Name,
				Type:  f.Type,
				Inner: f.Inner,
			})
		}
	}
	j.sch = out
	return j, nil
}

package piglatin

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a Pig Latin script.
func Parse(src string) (*Script, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s := &Script{}
	for !p.at(tokEOF) {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Stmts = append(s.Stmts, st)
	}
	if len(s.Stmts) == 0 {
		return nil, fmt.Errorf("piglatin: empty script")
	}
	return s, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) atPunct(text string) bool {
	return p.cur().kind == tokPunct && p.cur().text == text
}

func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) take() token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	t := p.cur()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(text string) error {
	if !p.atPunct(text) {
		return p.errorf("expected %q, found %s", text, p.cur())
	}
	p.take()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	p.take()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errorf("expected identifier, found %s", p.cur())
	}
	return p.take().text, nil
}

func (p *parser) expectString() (string, error) {
	if !p.at(tokString) {
		return "", p.errorf("expected quoted string, found %s", p.cur())
	}
	return p.take().text, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if p.atKeyword("store") {
		p.take()
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("into"); err != nil {
			return nil, err
		}
		path, err := p.expectString()
		if err != nil {
			return nil, err
		}
		// Optional "using Loader()" clause, accepted and ignored.
		if p.atKeyword("using") {
			if err := p.skipUsing(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Store{Alias: alias, Path: path}, nil
	}
	alias, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if !p.atPunct("=") {
		return nil, p.errorf("expected '=' after alias %q, found %s", alias, p.cur())
	}
	p.take()
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Assign{Alias: alias, Op: op}, nil
}

func (p *parser) skipUsing() error {
	if err := p.expectKeyword("using"); err != nil {
		return err
	}
	// "using PigStorage('\t')" or "using (a, b, c)" (the paper's variant
	// spelling of an AS clause, treated the same way by the caller).
	if p.atPunct("(") {
		return nil // caller handles schema-style using
	}
	if _, err := p.expectIdent(); err != nil {
		return err
	}
	if p.atPunct("(") {
		depth := 0
		for {
			if p.atPunct("(") {
				depth++
			} else if p.atPunct(")") {
				depth--
				if depth == 0 {
					p.take()
					return nil
				}
			} else if p.at(tokEOF) {
				return p.errorf("unterminated using clause")
			}
			p.take()
		}
	}
	return nil
}

func (p *parser) parseOp() (Op, error) {
	if !p.at(tokIdent) {
		return nil, p.errorf("expected operator keyword, found %s", p.cur())
	}
	switch strings.ToLower(p.cur().text) {
	case "load":
		return p.parseLoad()
	case "foreach":
		return p.parseForEach()
	case "filter":
		return p.parseFilter()
	case "group", "cogroup":
		return p.parseGroup()
	case "join":
		return p.parseJoin()
	case "distinct":
		return p.parseDistinct()
	case "union":
		return p.parseUnion()
	case "order":
		return p.parseOrder()
	case "limit":
		return p.parseLimit()
	}
	return nil, p.errorf("unknown operator %q", p.cur().text)
}

// parseSchemaText captures the raw source of a parenthesized or bare
// schema list following AS/USING, up to the end of the clause.
func (p *parser) parseSchemaText() (string, error) {
	var parts []string
	if p.atPunct("(") {
		p.take()
		depth := 1
		for depth > 0 {
			if p.at(tokEOF) {
				return "", p.errorf("unterminated schema")
			}
			if p.atPunct("(") {
				depth++
			}
			if p.atPunct(")") {
				depth--
				if depth == 0 {
					p.take()
					break
				}
			}
			parts = append(parts, p.take().text)
		}
		return strings.Join(parts, " "), nil
	}
	// Bare comma-separated list of name[:type].
	for {
		name, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		item := name
		if p.atPunct(":") {
			p.take()
			tn, err := p.expectIdent()
			if err != nil {
				return "", err
			}
			item += ":" + tn
		}
		parts = append(parts, item)
		if !p.atPunct(",") {
			break
		}
		p.take()
	}
	return strings.Join(parts, ", "), nil
}

func (p *parser) parseLoad() (Op, error) {
	p.take() // load
	path, err := p.expectString()
	if err != nil {
		return nil, err
	}
	ld := &Load{Path: path}
	if p.atKeyword("using") {
		if err := p.skipUsing(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			// Paper-style "using (name, phone, …)": treat as AS.
			s, err := p.parseSchemaText()
			if err != nil {
				return nil, err
			}
			ld.SchemaSrc = s
		}
	}
	if p.atKeyword("as") {
		p.take()
		s, err := p.parseSchemaText()
		if err != nil {
			return nil, err
		}
		ld.SchemaSrc = s
	}
	return ld, nil
}

func (p *parser) parseForEach() (Op, error) {
	p.take() // foreach
	input, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("generate"); err != nil {
		return nil, err
	}
	fe := &ForEach{Input: input}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := GenItem{E: e}
		if p.atKeyword("as") {
			p.take()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item.As = name
		}
		fe.Items = append(fe.Items, item)
		if !p.atPunct(",") {
			break
		}
		p.take()
	}
	return fe, nil
}

func (p *parser) parseFilter() (Op, error) {
	p.take() // filter
	input, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Filter{Input: input, Cond: cond}, nil
}

// parseKeyList parses "expr" or "(expr, expr…)".
func (p *parser) parseKeyList() ([]Expr, error) {
	if p.atPunct("(") {
		p.take()
		var keys []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			keys = append(keys, e)
			if p.atPunct(",") {
				p.take()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return keys, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return []Expr{e}, nil
}

func (p *parser) parseParallel() (int, error) {
	if !p.atKeyword("parallel") {
		return 0, nil
	}
	p.take()
	if !p.at(tokNumber) {
		return 0, p.errorf("expected number after parallel")
	}
	n, err := strconv.Atoi(p.take().text)
	if err != nil {
		return 0, p.errorf("bad parallel count: %v", err)
	}
	return n, nil
}

func (p *parser) parseGroup() (Op, error) {
	kw := strings.ToLower(p.take().text) // group | cogroup
	g := &Group{CoGroup: kw == "cogroup"}
	for {
		input, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		g.Inputs = append(g.Inputs, input)
		if p.atKeyword("all") {
			p.take()
			g.All = true
			g.Keys = append(g.Keys, nil)
		} else {
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			keys, err := p.parseKeyList()
			if err != nil {
				return nil, err
			}
			g.Keys = append(g.Keys, keys)
		}
		if p.atPunct(",") {
			p.take()
			continue
		}
		break
	}
	if !g.CoGroup && len(g.Inputs) > 1 {
		g.CoGroup = true // "group A by x, B by y" is really a cogroup
	}
	par, err := p.parseParallel()
	if err != nil {
		return nil, err
	}
	g.Parallel = par
	return g, nil
}

func (p *parser) parseJoin() (Op, error) {
	p.take() // join
	j := &Join{}
	for {
		input, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		keys, err := p.parseKeyList()
		if err != nil {
			return nil, err
		}
		j.Inputs = append(j.Inputs, input)
		j.Keys = append(j.Keys, keys)
		if p.atPunct(",") {
			p.take()
			continue
		}
		break
	}
	if len(j.Inputs) < 2 {
		return nil, p.errorf("join needs at least two inputs")
	}
	// Optional "using 'replicated'" etc.: accepted, ignored.
	if p.atKeyword("using") {
		p.take()
		if p.at(tokString) || p.at(tokIdent) {
			p.take()
		}
	}
	par, err := p.parseParallel()
	if err != nil {
		return nil, err
	}
	j.Parallel = par
	return j, nil
}

func (p *parser) parseDistinct() (Op, error) {
	p.take() // distinct
	input, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	par, err := p.parseParallel()
	if err != nil {
		return nil, err
	}
	return &Distinct{Input: input, Parallel: par}, nil
}

func (p *parser) parseUnion() (Op, error) {
	p.take() // union
	u := &Union{}
	for {
		input, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		u.Inputs = append(u.Inputs, input)
		if p.atPunct(",") {
			p.take()
			continue
		}
		break
	}
	if len(u.Inputs) < 2 {
		return nil, p.errorf("union needs at least two inputs")
	}
	return u, nil
}

func (p *parser) parseOrder() (Op, error) {
	p.take() // order
	input, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return nil, err
	}
	o := &Order{Input: input}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		key := OrderKey{E: e}
		if p.atKeyword("desc") {
			p.take()
			key.Desc = true
		} else if p.atKeyword("asc") {
			p.take()
		}
		o.Keys = append(o.Keys, key)
		if p.atPunct(",") {
			p.take()
			continue
		}
		break
	}
	if _, err := p.parseParallel(); err != nil {
		return nil, err
	}
	return o, nil
}

func (p *parser) parseLimit() (Op, error) {
	p.take() // limit
	input, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if !p.at(tokNumber) {
		return nil, p.errorf("expected limit count")
	}
	n, err := strconv.ParseInt(p.take().text, 10, 64)
	if err != nil {
		return nil, p.errorf("bad limit count: %v", err)
	}
	return &Limit{Input: input, N: n}, nil
}

// Expression grammar, loosest to tightest:
//   or → and → not → comparison → additive → multiplicative → unary → primary

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.take()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.take()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("not") {
		p.take()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	ops := map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true, "=": true}
	if p.cur().kind == tokPunct && ops[p.cur().text] {
		op := p.take().text
		if op == "=" {
			op = "==" // tolerate single '=' in predicates, as the paper's QF template uses
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atPunct("+") || p.atPunct("-") {
		op := p.take().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("*") || p.atPunct("/") || p.atPunct("%") {
		op := p.take().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atPunct("-") {
		p.take()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.take()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return FloatLit{V: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return IntLit{V: n}, nil
	case t.kind == tokString:
		p.take()
		return StrLit{V: t.text}, nil
	case t.kind == tokDollar:
		p.take()
		idx, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("bad positional reference $%s", t.text)
		}
		return p.parseDots(Dollar{Idx: idx})
	case t.kind == tokPunct && t.text == "*":
		p.take()
		return Star{}, nil
	case t.kind == tokPunct && t.text == "(":
		p.take()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return p.parseDots(e)
	case t.kind == tokIdent:
		name := p.take().text
		if p.atPunct("(") {
			p.take()
			call := Call{Name: name}
			if !p.atPunct(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.atPunct(",") {
						p.take()
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return p.parseDots(call)
		}
		return p.parseDots(Ident{Name: name})
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}

// parseDots handles the ".field" / ".$n" suffixes of a primary.
func (p *parser) parseDots(base Expr) (Expr, error) {
	for p.atPunct(".") {
		p.take()
		switch {
		case p.at(tokIdent):
			base = Dot{Base: base, Field: p.take().text, FieldIdx: -1}
		case p.at(tokDollar):
			t := p.take()
			idx, err := strconv.Atoi(t.text)
			if err != nil {
				return nil, p.errorf("bad positional reference $%s", t.text)
			}
			base = Dot{Base: base, FieldIdx: idx}
		default:
			return nil, p.errorf("expected field after '.', found %s", p.cur())
		}
	}
	return base, nil
}

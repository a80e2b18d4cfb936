package logical

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

func mustBuild(t *testing.T, src string) *Plan {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := Build(script)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildQ1(t *testing.T) {
	p := mustBuild(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'L2_out';
`)
	if len(p.Stores) != 1 {
		t.Fatalf("stores = %d", len(p.Stores))
	}
	j, ok := p.Stores[0].In.(*Join)
	if !ok {
		t.Fatalf("store input = %T", p.Stores[0].In)
	}
	if len(j.Ins) != 2 {
		t.Fatalf("join inputs = %d", len(j.Ins))
	}
	// Join schema has qualified names from both sides.
	names := j.Schema().Names()
	want := []string{"beta::name", "B::user", "B::est_revenue"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("join schema[%d] = %q, want %q", i, names[i], w)
		}
	}
	// Key of left side resolves to column 0 of beta's projection.
	if j.Keys[0][0].String() != "$0" {
		t.Errorf("left key = %s", j.Keys[0][0])
	}
	if j.Keys[1][0].String() != "$0" {
		t.Errorf("right key = %s", j.Keys[1][0])
	}
}

func TestBuildGroupAndAggregate(t *testing.T) {
	p := mustBuild(t, `
C = load 'joined' as (name, user, est_revenue);
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'L3_out';
`)
	fe := p.Stores[0].In.(*ForEach)
	if fe.Exprs[0].String() != "$0" {
		t.Errorf("group ref = %s", fe.Exprs[0])
	}
	agg, ok := fe.Exprs[1].(expr.Agg)
	if !ok {
		t.Fatalf("second expr = %T", fe.Exprs[1])
	}
	if agg.Kind != expr.AggSum || agg.Field != 2 {
		t.Errorf("agg = %+v; want SUM of inner field 2", agg)
	}
	g := fe.In.(*Group)
	sch := g.Schema()
	if sch.Fields[0].Name != "group" {
		t.Errorf("group schema field 0 = %q", sch.Fields[0].Name)
	}
	if sch.Fields[1].Name != "C" || sch.Fields[1].Type != tuple.TypeBag {
		t.Errorf("group schema field 1 = %+v", sch.Fields[1])
	}
	if sch.Fields[1].Inner.IndexOf("est_revenue") != 2 {
		t.Errorf("bag inner schema lost")
	}
}

func TestBuildCountWholeBag(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b);
B = group A by a;
C = foreach B generate group, COUNT(A);
store C into 'o';
`)
	fe := p.Stores[0].In.(*ForEach)
	agg := fe.Exprs[1].(expr.Agg)
	if agg.Kind != expr.AggCount || agg.Field != -1 {
		t.Errorf("agg = %+v", agg)
	}
}

func TestBuildGroupAll(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b);
B = group A all;
C = foreach B generate COUNT(A), SUM(A.b);
store C into 'o';
`)
	g := p.Stores[0].In.(*ForEach).In.(*Group)
	if !g.All {
		t.Errorf("not marked ALL")
	}
	if len(g.Keys[0]) != 0 {
		t.Errorf("ALL group has keys: %v", g.Keys)
	}
}

func TestBuildCoGroup(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (k, v);
B = load 'y' as (k, w);
C = cogroup A by k, B by k;
D = filter C by ISEMPTY(B);
E = foreach D generate group;
store E into 'anti';
`)
	fe := p.Stores[0].In.(*ForEach)
	fl := fe.In.(*Filter)
	fn, ok := fl.Cond.(expr.Func)
	if !ok || fn.Name != "ISEMPTY" {
		t.Fatalf("cond = %v", fl.Cond)
	}
	// B's bag is column 2 of (group, A, B).
	if fn.Args[0].String() != "$2" {
		t.Errorf("ISEMPTY arg = %s", fn.Args[0])
	}
	cg := fl.In.(*Group)
	if len(cg.Ins) != 2 {
		t.Errorf("cogroup inputs = %d", len(cg.Ins))
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		`B = foreach A generate x; store B into 'o';`,                         // undefined alias
		`A = load 'x' as (a); B = foreach A generate nope; store B into 'o';`, // unknown column
		`A = load 'x' as (a); store A into 'o'; C = foreach B generate a;`,    // undefined later alias is fine? B undefined -> error
		`A = load 'x' as (a);`, // no store
		`A = load 'x' as (a); B = foreach A generate SUM(a); store B into 'o';`, // SUM of non-bag
		`A = load 'x' as (a); B = foreach A generate BOGUS(a); store B into 'o';`,
	}
	for _, src := range cases {
		script, err := piglatin.Parse(src)
		if err != nil {
			continue // parse errors also count
		}
		if _, err := Build(script); err == nil {
			t.Errorf("Build(%q) should fail", src)
		}
	}
}

func TestBuildRejectsOverlappingStores(t *testing.T) {
	bad := [][2]string{
		{"out", "out"},
		{"out", "/out/"},
		{"out", "out/sub"},
		{"out/sub/", "out"},
		{"/a/b", "a/b/c/d"},
	}
	for _, c := range bad {
		src := "A = load 'x' as (a); B = foreach A generate a; store A into '" + c[0] + "'; store B into '" + c[1] + "';"
		script, err := piglatin.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, err = Build(script)
		if err == nil {
			t.Errorf("Build(%q) succeeded, want an overlap error", src)
			continue
		}
		if !strings.Contains(err.Error(), c[0]) || !strings.Contains(err.Error(), c[1]) {
			t.Errorf("Build(%q) error %q does not name both paths", src, err)
		}
	}
	for _, ok := range [][2]string{{"out", "out2"}, {"out/a", "out/b"}, {"out/ab", "out/a"}} {
		mustBuild(t, "A = load 'x' as (a); store A into '"+ok[0]+"'; store A into '"+ok[1]+"';")
	}
}

func TestAmbiguousShortName(t *testing.T) {
	src := `
A = load 'x' as (k, v);
B = load 'y' as (k, w);
C = join A by k, B by k;
D = foreach C generate k;
store D into 'o';
`
	script, _ := piglatin.Parse(src)
	if _, err := Build(script); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous join column should fail, got %v", err)
	}
}

func TestUnambiguousShortNameAfterJoin(t *testing.T) {
	mustBuild(t, `
A = load 'x' as (k, v);
B = load 'y' as (j, w);
C = join A by k, B by j;
D = foreach C generate v, w;
store D into 'o';
`)
}

func TestStarExpansion(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b, c);
B = foreach A generate *;
store B into 'o';
`)
	fe := p.Stores[0].In.(*ForEach)
	if len(fe.Exprs) != 3 {
		t.Fatalf("star expanded to %d exprs", len(fe.Exprs))
	}
	if fe.Schema().Names()[2] != "c" {
		t.Errorf("schema = %v", fe.Schema().Names())
	}
}

func TestOptimizeMergeFilters(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b);
B = filter A by a > 1;
C = filter B by b < 5;
store C into 'o';
`)
	Optimize(p)
	f, ok := p.Stores[0].In.(*Filter)
	if !ok {
		t.Fatalf("store input = %T", p.Stores[0].In)
	}
	if _, ok := f.In.(*Load); !ok {
		t.Fatalf("filters not merged; inner = %T", f.In)
	}
	if _, ok := f.Cond.(expr.Logic); !ok {
		t.Errorf("merged cond = %T", f.Cond)
	}
}

func TestOptimizePushFilterThroughForEach(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, c;
C = filter B by c > 10;
store C into 'o';
`)
	Optimize(p)
	fe, ok := p.Stores[0].In.(*ForEach)
	if !ok {
		t.Fatalf("store input = %T, want ForEach on top", p.Stores[0].In)
	}
	f, ok := fe.In.(*Filter)
	if !ok {
		t.Fatalf("foreach input = %T, want pushed Filter", fe.In)
	}
	// The pushed condition references the original column c = $2.
	if !strings.Contains(f.Cond.String(), "$2") {
		t.Errorf("pushed cond = %s, want reference to $2", f.Cond)
	}
}

func TestOptimizeDoesNotPushThroughComputedColumns(t *testing.T) {
	p := mustBuild(t, `
A = load 'x' as (a, b);
B = foreach A generate a + b as s;
C = filter B by s > 10;
store C into 'o';
`)
	Optimize(p)
	if _, ok := p.Stores[0].In.(*Filter); !ok {
		t.Fatalf("filter over computed column must not be pushed; got %T", p.Stores[0].In)
	}
}

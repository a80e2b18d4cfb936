package physical

import (
	"testing"

	"repro/internal/expr"
)

// groupPlan builds the canonical group-mergeable spine — Load →
// LocalRearrange → Shuffle → Package(group,1) → ForEach(exprs) → Store
// — with mutate hooks applied before sealing, so each test perturbs
// exactly one property.
func groupPlan(exprs []expr.Expr, mutate ...func(*Plan, map[string]*Op)) *Plan {
	p := NewPlan()
	ops := map[string]*Op{}
	ops["load"] = p.Add(&Op{Kind: KLoad, Path: "in"})
	ops["lr"] = p.Add(&Op{Kind: KLocalRearrange, KeyExprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ops["load"].ID}})
	ops["sh"] = p.Add(&Op{Kind: KShuffle, InputIDs: []int{ops["lr"].ID}})
	ops["pkg"] = p.Add(&Op{Kind: KPackage, Mode: PkgGroup, NumInputs: 1, InputIDs: []int{ops["sh"].ID}})
	ops["fe"] = p.Add(&Op{Kind: KForEach, Exprs: exprs, InputIDs: []int{ops["pkg"].ID}})
	ops["store"] = p.Add(&Op{Kind: KStore, Path: "out", InputIDs: []int{ops["fe"].ID}})
	for _, m := range mutate {
		m(p, ops)
	}
	return p
}

func agg(k expr.AggKind, field int) expr.Agg {
	return expr.Agg{Kind: k, Bag: expr.NewCol(1), Field: field}
}

func TestAnalyzeMergeUnion(t *testing.T) {
	p := NewPlan()
	ld := p.Add(&Op{Kind: KLoad, Path: "in"})
	fe := p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ld.ID}})
	fl := p.Add(&Op{Kind: KFilter, InputIDs: []int{fe.ID}})
	p.Add(&Op{Kind: KStore, Path: "out", InputIDs: []int{fl.ID}})

	spec := AnalyzeMerge(p)
	if spec == nil || spec.Kind != MergeUnion {
		t.Fatalf("row-wise plan: %+v, want union", spec)
	}

	// A Limit is order-sensitive: not row-wise, not mergeable.
	p2 := NewPlan()
	ld2 := p2.Add(&Op{Kind: KLoad, Path: "in"})
	lim := p2.Add(&Op{Kind: KLimit, N: 5, InputIDs: []int{ld2.ID}})
	p2.Add(&Op{Kind: KStore, Path: "out", InputIDs: []int{lim.ID}})
	if spec := AnalyzeMerge(p2); spec != nil {
		t.Fatalf("limit plan classified mergeable: %+v", spec)
	}
}

func TestAnalyzeMergeGroup(t *testing.T) {
	spec := AnalyzeMerge(groupPlan([]expr.Expr{
		expr.NewCol(0),
		agg(expr.AggSum, 1),
		agg(expr.AggCount, 1),
		agg(expr.AggMin, 2),
		agg(expr.AggMax, 2),
	}))
	if spec == nil || spec.Kind != MergeGroup {
		t.Fatalf("distributive group plan: %+v, want group", spec)
	}
	if spec.KeyCol != 0 || spec.GroupAll {
		t.Fatalf("key detection: %+v", spec)
	}
	wantKinds := []MergeColKind{MergeKey, MergeSum, MergeSum, MergeMin, MergeMax}
	for i, w := range wantKinds {
		if spec.Cols[i].Kind != w {
			t.Fatalf("col %d merges as %v, want %v", i, spec.Cols[i].Kind, w)
		}
	}
}

func TestAnalyzeMergeAvgCompanions(t *testing.T) {
	// AVG with SUM+COUNT of the same field: mergeable, wired to the
	// companions' output positions.
	spec := AnalyzeMerge(groupPlan([]expr.Expr{
		expr.NewCol(0),
		agg(expr.AggAvg, 1),
		agg(expr.AggSum, 1),
		agg(expr.AggCount, 1),
	}))
	if spec == nil {
		t.Fatal("AVG with companions rejected")
	}
	if c := spec.Cols[1]; c.Kind != MergeAvg || c.SumCol != 2 || c.CountCol != 3 {
		t.Fatalf("AVG companion wiring: %+v", c)
	}

	// A bare AVG is holistic under merging.
	if spec := AnalyzeMerge(groupPlan([]expr.Expr{expr.NewCol(0), agg(expr.AggAvg, 1)})); spec != nil {
		t.Fatalf("bare AVG classified mergeable: %+v", spec)
	}
	// Companions over a different field do not help.
	if spec := AnalyzeMerge(groupPlan([]expr.Expr{
		expr.NewCol(0), agg(expr.AggAvg, 1), agg(expr.AggSum, 2), agg(expr.AggCount, 2),
	})); spec != nil {
		t.Fatalf("AVG with mismatched companions classified mergeable: %+v", spec)
	}
}

func TestAnalyzeMergeRejections(t *testing.T) {
	sum := []expr.Expr{expr.NewCol(0), agg(expr.AggSum, 1)}
	cases := []struct {
		name   string
		mutate func(*Plan, map[string]*Op)
		exprs  []expr.Expr
	}{
		{"distinct package", func(p *Plan, ops map[string]*Op) { ops["pkg"].Mode = PkgDistinct }, sum},
		{"order package", func(p *Plan, ops map[string]*Op) { ops["pkg"].Mode = PkgFlat }, sum},
		{"cogroup", func(p *Plan, ops map[string]*Op) { ops["pkg"].NumInputs = 2 }, sum},
		{"filter after aggregation", func(p *Plan, ops map[string]*Op) {
			fl := p.Add(&Op{Kind: KFilter, InputIDs: []int{ops["fe"].ID}})
			ops["store"].InputIDs = []int{fl.ID}
		}, sum},
		{"key dropped from output", nil, []expr.Expr{agg(expr.AggSum, 1)}},
		{"raw bag column", nil, []expr.Expr{expr.NewCol(0), expr.NewCol(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var muts []func(*Plan, map[string]*Op)
			if tc.mutate != nil {
				muts = append(muts, tc.mutate)
			}
			if spec := AnalyzeMerge(groupPlan(tc.exprs, muts...)); spec != nil {
				t.Fatalf("classified mergeable: %+v", spec)
			}
		})
	}
}

func TestAnalyzeMergeGroupAll(t *testing.T) {
	spec := AnalyzeMerge(groupPlan(
		[]expr.Expr{agg(expr.AggCount, -1), agg(expr.AggSum, 1)},
		func(p *Plan, ops map[string]*Op) {
			ops["lr"].KeyExprs = nil
			ops["lr"].GroupAll = true
		}))
	if spec == nil || !spec.GroupAll {
		t.Fatalf("GROUP ALL plan: %+v", spec)
	}
}

// TestBuildMergePlan checks the synthesized merge jobs: the union
// merge is pure concatenation, and the group merge re-groups on the
// key column with partial-add/compare/divide per column.
func TestBuildMergePlan(t *testing.T) {
	u := BuildMergePlan(&MergeSpec{Kind: MergeUnion}, "stored", "delta", "out")
	var kinds []Kind
	for _, op := range u.Ops() {
		kinds = append(kinds, op.Kind)
		if op.Kind == KShuffle {
			t.Fatal("union merge plan contains a shuffle")
		}
	}
	if len(kinds) != 4 { // two loads, union, store
		t.Fatalf("union merge plan has %d ops: %v", len(kinds), kinds)
	}

	g := BuildMergePlan(&MergeSpec{
		Kind:   MergeGroup,
		KeyCol: 0,
		Cols: []MergeCol{
			{Kind: MergeKey},
			{Kind: MergeAvg, SumCol: 2, CountCol: 3},
			{Kind: MergeSum},
			{Kind: MergeSum},
			{Kind: MergeMin},
		},
	}, "stored", "delta", "out")
	var fe *Op
	loads := 0
	for _, op := range g.Ops() {
		switch op.Kind {
		case KForEach:
			fe = op
		case KLoad:
			loads++
		}
	}
	if loads != 2 || fe == nil {
		t.Fatalf("group merge plan shape: loads=%d foreach=%v", loads, fe)
	}
	if len(fe.Exprs) != 5 {
		t.Fatalf("merge foreach has %d exprs", len(fe.Exprs))
	}
	if c, ok := fe.Exprs[0].(expr.Col); !ok || c.Index != 0 {
		t.Fatalf("key column merge: %v", fe.Exprs[0])
	}
	// SUM partials (including COUNT columns) merge by adding the stored
	// and delta partials at the column's own position.
	if a, ok := fe.Exprs[2].(expr.Agg); !ok || a.Kind != expr.AggSum || a.Field != 2 {
		t.Fatalf("sum column merge: %v", fe.Exprs[2])
	}
	if a, ok := fe.Exprs[4].(expr.Agg); !ok || a.Kind != expr.AggMin || a.Field != 4 {
		t.Fatalf("min column merge: %v", fe.Exprs[4])
	}
	// AVG divides the merged companion SUM by the merged companion COUNT.
	b, ok := fe.Exprs[1].(expr.Binary)
	if !ok || b.Op != expr.OpDiv {
		t.Fatalf("avg column merge: %v", fe.Exprs[1])
	}
	if l, ok := b.L.(expr.Agg); !ok || l.Kind != expr.AggSum || l.Field != 2 {
		t.Fatalf("avg numerator: %v", b.L)
	}
	if r, ok := b.R.(expr.Agg); !ok || r.Kind != expr.AggSum || r.Field != 3 {
		t.Fatalf("avg denominator: %v", b.R)
	}
}

// TestAlgebraicGroup holds AlgebraicGroup to one table over groupPlan,
// and each row to AnalyzeMerge's answer, which adds the merge's own
// rules: the key stays in the output unless the GROUP is a GROUP ALL,
// and AVG merges only beside SUM and COUNT of its field.
func TestAlgebraicGroup(t *testing.T) {
	key := expr.NewCol(0)
	groupAll := func(p *Plan, ops map[string]*Op) {
		ops["lr"].KeyExprs = nil
		ops["lr"].GroupAll = true
	}
	cases := []struct {
		name      string
		exprs     []expr.Expr
		mutate    func(*Plan, map[string]*Op)
		algebraic bool
		merge     bool
	}{
		{"key first", []expr.Expr{key, agg(expr.AggSum, 1)}, nil, true, true},
		{"key last", []expr.Expr{agg(expr.AggSum, 1), key}, nil, true, true},
		{"key twice", []expr.Expr{key, agg(expr.AggMin, 1), key}, nil, true, true},
		{"key dropped", []expr.Expr{agg(expr.AggSum, 1)}, nil, true, false},
		{"COUNT(*)", []expr.Expr{key, agg(expr.AggCount, -1)}, nil, true, true},
		{"COUNT", []expr.Expr{key, agg(expr.AggCount, 1)}, nil, true, true},
		{"SUM", []expr.Expr{key, agg(expr.AggSum, 1)}, nil, true, true},
		{"MIN", []expr.Expr{key, agg(expr.AggMin, 1)}, nil, true, true},
		{"MAX", []expr.Expr{key, agg(expr.AggMax, 1)}, nil, true, true},
		{"bare AVG", []expr.Expr{key, agg(expr.AggAvg, 1)}, nil, true, false},
		{"AVG SUM COUNT", []expr.Expr{key, agg(expr.AggAvg, 1), agg(expr.AggSum, 1), agg(expr.AggCount, 1)}, nil, true, true},
		{"AVG SUM COUNT apart", []expr.Expr{key, agg(expr.AggAvg, 1), agg(expr.AggSum, 2), agg(expr.AggCount, 2)}, nil, true, false},
		{"GROUP ALL", []expr.Expr{agg(expr.AggCount, -1), agg(expr.AggSum, 1)}, groupAll, true, true},

		{"Col 2", []expr.Expr{key, expr.NewCol(2)}, nil, false, false},
		{"raw bag", []expr.Expr{key, expr.NewCol(1)}, nil, false, false},
		{"Agg over Col 0", []expr.Expr{key, expr.Agg{Kind: expr.AggSum, Bag: key, Field: 1}}, nil, false, false},
		{"Binary", []expr.Expr{key, expr.Binary{Op: expr.OpDiv, L: agg(expr.AggSum, 1), R: agg(expr.AggCount, 1)}}, nil, false, false},
		{"PkgDistinct", []expr.Expr{key, agg(expr.AggSum, 1)}, func(p *Plan, ops map[string]*Op) { ops["pkg"].Mode = PkgDistinct }, false, false},
		{"PkgFlat", []expr.Expr{key, agg(expr.AggSum, 1)}, func(p *Plan, ops map[string]*Op) { ops["pkg"].Mode = PkgFlat }, false, false},
		{"NumInputs 2", []expr.Expr{key, agg(expr.AggSum, 1)}, func(p *Plan, ops map[string]*Op) { ops["pkg"].NumInputs = 2 }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var muts []func(*Plan, map[string]*Op)
			if tc.mutate != nil {
				muts = append(muts, tc.mutate)
			}
			var ops map[string]*Op
			p := groupPlan(tc.exprs, append(muts, func(_ *Plan, o map[string]*Op) { ops = o })...)
			if got := AlgebraicGroup(ops["pkg"], ops["fe"]); got != tc.algebraic {
				t.Errorf("AlgebraicGroup = %t, want %t", got, tc.algebraic)
			}
			if spec := AnalyzeMerge(p); (spec != nil) != tc.merge {
				t.Errorf("AnalyzeMerge = %+v, want mergeable %t", spec, tc.merge)
			}
		})
	}
}

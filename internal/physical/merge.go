package physical

import "repro/internal/expr"

// Mergeability analysis and delta-merge plan synthesis for incremental
// maintenance. A stored sub-plan's output is "mergeable" when the
// output over a grown input can be reconstructed from the stored
// output plus the sub-plan's output over only the appended rows —
// i2MapReduce's delta model. Two shapes qualify:
//
//   - Union-mergeable: every operator is tuple-at-a-time
//     (Load/ForEach/Filter/Union/Split/Store, no shuffle). Each output
//     row is a function of one input row, so the grown output is the
//     stored output ⊎ the delta output — a merge is pure concatenation.
//
//   - Group-mergeable: a single-input distributive GROUP BY — the plan
//     is map-side tuple-at-a-time ops feeding LocalRearrange → Shuffle
//     → Package(group,1) → ForEach → Store, where AlgebraicGroup
//     accepts the ForEach: SUM, COUNT, MIN, MAX merge directly (partial
//     SUMs and COUNTs add, partial MINs/MAXs compare); AVG merges only
//     when the same ForEach also emits SUM and COUNT of the same field,
//     and the merge recomputes avg = ΣSUM / ΣCOUNT. That equals the
//     cold AVG only when every field is numeric: COUNT also counts
//     fields AVG skips (a string "x"), and the stored rows do not hold
//     the numeric count.
//
// Everything else — joins, cogroups, DISTINCT, ORDER BY, LIMIT, HAVING
// filters after aggregation, holistic aggregates — is not mergeable
// and falls back to cold recompute-and-replace.
//
// Caveat shared with Hadoop's combiner (which this engine already
// applies to the same plans): merging re-associates floating-point
// SUM/AVG accumulation, so float aggregates can differ from a cold run
// in the last ulp. Integer aggregates are exact.

// MergeColKind says how one output column of a stored entry merges.
type MergeColKind int

// The per-column merge functions.
const (
	MergeKey MergeColKind = iota // group key: carried through
	MergeSum                     // partial sums add (SUM and COUNT columns)
	MergeMin                     // partial minima compare
	MergeMax                     // partial maxima compare
	MergeAvg                     // recomputed from companion SUM+COUNT columns
)

// MergeCol describes one output column's merge function. SumCol and
// CountCol are only set for MergeAvg: the output positions of the
// companion SUM and COUNT columns the merged average divides.
type MergeCol struct {
	Kind     MergeColKind
	SumCol   int
	CountCol int
}

// MergeSpecKind classifies the overall merge shape.
type MergeSpecKind int

// The merge shapes.
const (
	MergeUnion MergeSpecKind = iota // stored ⊎ delta: concatenate
	MergeGroup                      // re-group by key and re-aggregate
)

// MergeSpec is a stored entry's mergeability classification, computed
// once at insert time from the entry's physical sub-plan and persisted
// with the entry. It carries everything merge-plan synthesis needs, so
// a refresh never has to re-analyze (or even possess) the original
// plan.
type MergeSpec struct {
	Kind MergeSpecKind
	// Group-merge fields: the output column holding the group key
	// (KeyCol, meaningless when GroupAll), and the per-column merge
	// functions.
	GroupAll bool
	KeyCol   int
	Cols     []MergeCol
}

// AnalyzeMerge classifies the sub-plan's mergeability, returning nil
// when its output cannot be delta-merged. The plan must be a
// registered sub-plan shape: one Store sink.
func AnalyzeMerge(p *Plan) *MergeSpec {
	var store *Op
	var shuffles int
	for _, op := range p.Ops() {
		switch op.Kind {
		case KStore:
			if store != nil {
				return nil // multi-output plans are never registered
			}
			store = op
		case KShuffle:
			shuffles++
		}
	}
	if store == nil {
		return nil
	}
	if shuffles == 0 {
		return analyzeUnionMerge(p)
	}
	if shuffles == 1 {
		return analyzeGroupMerge(p, store)
	}
	return nil
}

// rowwiseKinds are the operators whose output rows are each a function
// of exactly one input row, making their composition distributive over
// dataset concatenation.
func rowwiseKind(k Kind) bool {
	switch k {
	case KLoad, KForEach, KFilter, KUnion, KSplit:
		return true
	}
	return false
}

func analyzeUnionMerge(p *Plan) *MergeSpec {
	for _, op := range p.Ops() {
		if op.Kind == KStore {
			continue
		}
		if !rowwiseKind(op.Kind) {
			return nil
		}
	}
	return &MergeSpec{Kind: MergeUnion}
}

// AlgebraicGroup reports whether fe is a ForEach over pkg, a
// single-input GROUP package, whose every expression is the group key
// (Col 0) or an aggregate over the group's bag (Col 1): the one test of
// an algebraic GROUP that both the map-side combiner and the delta
// merge start from. Each adds its own rule. The two differ on AVG: the
// combiner ships partial states, so a bare AVG combines, while the
// merge reads stored results, so AVG merges only beside a SUM and a
// COUNT of its field (analyzeGroupMerge).
func AlgebraicGroup(pkg, fe *Op) bool {
	if pkg.Kind != KPackage || pkg.Mode != PkgGroup || pkg.NumInputs != 1 || fe.Kind != KForEach {
		return false
	}
	for _, e := range fe.Exprs {
		switch x := e.(type) {
		case expr.Col:
			if x.Index != 0 {
				return false // a raw bag column is not an aggregate
			}
		case expr.Agg:
			if bag, ok := x.Bag.(expr.Col); !ok || bag.Index != 1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func analyzeGroupMerge(p *Plan, store *Op) *MergeSpec {
	// Walk the spine down from the Store: ForEach ← Package ← Shuffle
	// ← LocalRearrange, with nothing in between (a filter or limit
	// after aggregation sees partial groups under a merge and would
	// change the result).
	fe := p.Op(store.InputIDs[0])
	if fe == nil || len(fe.InputIDs) != 1 {
		return nil
	}
	pkg := p.Op(fe.InputIDs[0])
	if pkg == nil || !AlgebraicGroup(pkg, fe) {
		return nil
	}
	sh := p.Op(pkg.InputIDs[0])
	if sh == nil || sh.Kind != KShuffle || len(sh.InputIDs) != 1 {
		return nil
	}
	lr := p.Op(sh.InputIDs[0])
	if lr == nil || lr.Kind != KLocalRearrange {
		return nil
	}
	// Everything upstream of the rearrange must be row-wise, so the
	// delta run over only the new input rows feeds the grouping with
	// exactly the rows the cold run would have added.
	for id := range p.Ancestors(lr.ID) {
		if id == lr.ID {
			continue
		}
		if !rowwiseKind(p.Op(id).Kind) {
			return nil
		}
	}
	spec := &MergeSpec{Kind: MergeGroup, GroupAll: lr.GroupAll, KeyCol: -1}
	// Column positions of SUM/COUNT aggregates by field, for AVG
	// companion lookup.
	sumAt := map[int]int{}
	countAt := map[int]int{}
	type pending struct{ col, field int }
	var avgs []pending
	for i, e := range fe.Exprs {
		x, ok := e.(expr.Agg)
		if !ok { // the group key
			if spec.KeyCol < 0 {
				spec.KeyCol = i
			}
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeKey})
			continue
		}
		switch x.Kind {
		case expr.AggSum:
			sumAt[x.Field] = i
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeSum})
		case expr.AggCount:
			if x.Field >= 0 {
				countAt[x.Field] = i
			}
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeSum})
		case expr.AggMin:
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeMin})
		case expr.AggMax:
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeMax})
		case expr.AggAvg:
			if x.Field < 0 {
				return nil
			}
			avgs = append(avgs, pending{col: i, field: x.Field})
			spec.Cols = append(spec.Cols, MergeCol{Kind: MergeAvg})
		default:
			return nil
		}
	}
	if !spec.GroupAll && spec.KeyCol < 0 {
		// The group key is not in the output: merged rows cannot be
		// re-grouped.
		return nil
	}
	// A bare AVG is holistic under merging — avg×count recovery is
	// float-inexact — so AVG is mergeable only as AVG+SUM+COUNT of the
	// same field.
	for _, a := range avgs {
		s, okS := sumAt[a.field]
		c, okC := countAt[a.field]
		if !okS || !okC {
			return nil
		}
		spec.Cols[a.col].SumCol = s
		spec.Cols[a.col].CountCol = c
	}
	return spec
}

// BuildMergePlan synthesizes the merge job's plan: read the stored
// output and the delta output, and combine them into outPath according
// to spec. For MergeUnion the combination is concatenation; for
// MergeGroup the rows are re-grouped on the output key column and each
// aggregate column is merged with its algebraic merge function (SUM
// and COUNT partials add — a sum of counts is a count — MIN/MAX
// partials compare, AVG divides the merged companion SUM by the merged
// companion COUNT).
func BuildMergePlan(spec *MergeSpec, storedPath, deltaPath, outPath string) *Plan {
	p := NewPlan()
	stored := p.Add(&Op{Kind: KLoad, Path: storedPath})
	delta := p.Add(&Op{Kind: KLoad, Path: deltaPath})
	union := p.Add(&Op{Kind: KUnion, InputIDs: []int{stored.ID, delta.ID}})
	if spec.Kind == MergeUnion {
		p.Add(&Op{Kind: KStore, Path: outPath, InputIDs: []int{union.ID}})
		return p
	}
	lr := &Op{Kind: KLocalRearrange, InputIDs: []int{union.ID}}
	if spec.GroupAll {
		lr.GroupAll = true
	} else {
		lr.KeyExprs = []expr.Expr{expr.Col{Index: spec.KeyCol}}
	}
	p.Add(lr)
	sh := p.Add(&Op{Kind: KShuffle, InputIDs: []int{lr.ID}})
	pkg := p.Add(&Op{Kind: KPackage, Mode: PkgGroup, NumInputs: 1, InputIDs: []int{sh.ID}})
	fe := &Op{Kind: KForEach, InputIDs: []int{pkg.ID}}
	bag := expr.Col{Index: 1}
	for i, c := range spec.Cols {
		switch c.Kind {
		case MergeKey:
			fe.Exprs = append(fe.Exprs, expr.Col{Index: 0})
		case MergeSum:
			fe.Exprs = append(fe.Exprs, expr.Agg{Kind: expr.AggSum, Bag: bag, Field: i})
		case MergeMin:
			fe.Exprs = append(fe.Exprs, expr.Agg{Kind: expr.AggMin, Bag: bag, Field: i})
		case MergeMax:
			fe.Exprs = append(fe.Exprs, expr.Agg{Kind: expr.AggMax, Bag: bag, Field: i})
		case MergeAvg:
			fe.Exprs = append(fe.Exprs, expr.Binary{
				Op: expr.OpDiv,
				L:  expr.Agg{Kind: expr.AggSum, Bag: bag, Field: c.SumCol},
				R:  expr.Agg{Kind: expr.AggSum, Bag: bag, Field: c.CountCol},
			})
		}
	}
	feOp := p.Add(fe)
	p.Add(&Op{Kind: KStore, Path: outPath, InputIDs: []int{feOp.ID}})
	return p
}

package mapreduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// naiveAggregates computes the expected group/aggregate results in
// plain Go for comparison against the combiner path.
type naiveAgg struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

func TestCombinerMatchesNaiveAggregation(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	fs := dfs.New()
	expected := map[string]*naiveAgg{}
	var rows []tuple.Tuple
	for i := 0; i < 2000; i++ {
		u := fmt.Sprintf("u%d", r.Intn(37))
		v := int64(r.Intn(1000))
		rows = append(rows, tuple.Tuple{u, v})
		e := expected[u]
		if e == nil {
			e = &naiveAgg{min: v, max: v}
			expected[u] = e
		} else {
			if v < e.min {
				e.min = v
			}
			if v > e.max {
				e.max = v
			}
		}
		e.count++
		e.sum += v
	}
	writeDataset(t, fs, "cdata", rows...)

	stats := runScript(t, fs, `
A = load 'cdata' as (u, v);
G = group A by u;
S = foreach G generate group, COUNT(A), SUM(A.v), MIN(A.v), MAX(A.v), AVG(A.v);
store S into 'out';
`)
	got := readDataset(t, fs, "out")
	if len(got) != len(expected) {
		t.Fatalf("groups = %d, want %d", len(got), len(expected))
	}
	for _, row := range got {
		u := row[0].(string)
		e := expected[u]
		if e == nil {
			t.Fatalf("unexpected group %q", u)
		}
		if row[1] != e.count || row[2] != e.sum || row[3] != e.min || row[4] != e.max {
			t.Errorf("%s: got %v, want count=%d sum=%d min=%d max=%d", u, row, e.count, e.sum, e.min, e.max)
		}
		avg := row[5].(float64)
		want := float64(e.sum) / float64(e.count)
		if avg < want-1e-9 || avg > want+1e-9 {
			t.Errorf("%s: avg = %v, want %v", u, avg, want)
		}
	}

	// The combiner must actually have engaged: shuffle records are
	// bounded by (#groups × #map tasks), far below the input rows.
	for _, st := range stats {
		if st.ShuffleSimBytes <= 0 {
			t.Errorf("no shuffle happened?")
		}
	}
}

func TestCombinerHandlesNullsAndStrings(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "nd",
		tuple.Tuple{"a", int64(1)},
		tuple.Tuple{"a", nil},
		tuple.Tuple{"a", "zebra"}, // non-numeric: skipped by SUM, counted by COUNT(A)
		tuple.Tuple{"b", nil},
	)
	runScript(t, fs, `
A = load 'nd' as (u, v);
G = group A by u;
S = foreach G generate group, COUNT(A), SUM(A.v);
store S into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"a", int64(3), int64(1)},
		tuple.Tuple{"b", int64(1), nil},
	)
}

func TestCombinerDisabledWhenBagsNeeded(t *testing.T) {
	// A ForEach that projects bag contents (not an aggregate) must not
	// trigger the combiner; the grouped bags must arrive intact.
	fs := dfs.New()
	writeDataset(t, fs, "bd",
		tuple.Tuple{"a", int64(1)},
		tuple.Tuple{"a", int64(2)},
		tuple.Tuple{"b", int64(3)},
	)
	runScript(t, fs, `
A = load 'bd' as (u, v);
G = group A by u;
S = foreach G generate group, SIZE(A), COUNT(A);
store S into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"a", int64(2), int64(2)},
		tuple.Tuple{"b", int64(1), int64(1)},
	)
}

func TestCombinerGroupAll(t *testing.T) {
	fs := dfs.New()
	var rows []tuple.Tuple
	var sum int64
	for i := int64(1); i <= 100; i++ {
		rows = append(rows, tuple.Tuple{fmt.Sprintf("u%d", i%5), i})
		sum += i
	}
	writeDataset(t, fs, "ga", rows...)
	runScript(t, fs, `
A = load 'ga' as (u, v);
G = group A all;
S = foreach G generate COUNT(A), SUM(A.v);
store S into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{int64(100), sum})
}

func TestCombinerShuffleShrinks(t *testing.T) {
	// With many rows per group, the combined shuffle must be far smaller
	// than the raw one. Compare against a structurally identical job
	// whose ForEach is non-algebraic (SIZE) so the combiner disengages.
	fs := dfs.New()
	var rows []tuple.Tuple
	for i := 0; i < 3000; i++ {
		rows = append(rows, tuple.Tuple{fmt.Sprintf("u%d", i%4), int64(i)})
	}
	writeDataset(t, fs, "sh", rows...)

	run := func(src string) *JobStats {
		script, _ := piglatin.Parse(src)
		lp, _ := logical.Build(script)
		wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/s", DefaultReducers: 2})
		eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
		st, err := runJob(eng, wf.Jobs[0])
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return st
	}
	combined := run(`
A = load 'sh' as (u, v);
G = group A by u;
S = foreach G generate group, SUM(A.v);
store S into 'out_c';
`)
	raw := run(`
A = load 'sh' as (u, v);
G = group A by u;
S = foreach G generate group, SIZE(A);
store S into 'out_r';
`)
	if combined.ShuffleSimBytes*10 > raw.ShuffleSimBytes {
		t.Errorf("combiner shuffle %d should be ≪ raw shuffle %d",
			combined.ShuffleSimBytes, raw.ShuffleSimBytes)
	}
}

func TestDistinctCombinerShrinksShuffle(t *testing.T) {
	fs := dfs.New()
	var rows []tuple.Tuple
	for i := 0; i < 2000; i++ {
		rows = append(rows, tuple.Tuple{fmt.Sprintf("u%d", i%3)})
	}
	writeDataset(t, fs, "dd", rows...)
	script, _ := piglatin.Parse(`
A = load 'dd' as (u);
D = distinct A;
store D into 'out';
`)
	lp, _ := logical.Build(script)
	wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/d", DefaultReducers: 2})
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	st, err := runJob(eng, wf.Jobs[0])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 2000 rows, 3 distinct values, 1 map task: at most 3 shuffle
	// records of a few bytes each.
	if st.ShuffleSimBytes > 200 {
		t.Errorf("distinct shuffle = %d bytes, want tiny", st.ShuffleSimBytes)
	}
	got := readDataset(t, fs, "out")
	if len(got) != 3 {
		t.Errorf("distinct rows = %v", got)
	}
}

func TestCombinerMinMaxStrings(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "ms",
		tuple.Tuple{"g", "banana"},
		tuple.Tuple{"g", "apple"},
		tuple.Tuple{"g", "cherry"},
	)
	runScript(t, fs, `
A = load 'ms' as (k, s);
G = group A by k;
S = foreach G generate group, MIN(A.s), MAX(A.s);
store S into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{"g", "apple", "cherry"})
}

func TestCombinerFloatPromotion(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "fp",
		tuple.Tuple{"g", 1.5},
		tuple.Tuple{"g", int64(2)},
	)
	runScript(t, fs, `
A = load 'fp' as (k, v);
G = group A by k;
S = foreach G generate group, SUM(A.v);
store S into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{"g", 3.5})
}

// TestCombinerEdgeKeys runs GROUPs with COUNT, MIN, MAX and an integer
// SUM, and DISTINCTs, over keys that are equal but typed or printed
// apart — the int 5 and the float 5.0, 0 and -0.0, NaN, the infinities
// and a null — and over strings that print like those numbers, and
// holds every byte the combined run writes to a run of the same job
// with the combiners off. The text decoder produces none of these keys,
// so the plan computes them: x * y makes 5.0, -0.0 and (from the string
// "NaN") NaN, and CONCAT makes "-0", "NaN", "+Inf" and "-Inf" strings.
// One GROUP aggregates whole tuples (SUM(B) reads each tuple's first
// field, as expr.Agg.Eval does).
func TestCombinerEdgeKeys(t *testing.T) {
	// x, y, s, u, v, w: the key is x * y or CONCAT(s, u); v (numbers
	// again, ties included) feeds MIN and MAX, w (ints) feeds SUM.
	base := []string{
		"5\t1\t5\t.0\t5\t1",
		"2.5\t2\t-\t0\t5.0\t2",
		"0\t7\tNa\tN\t0\t3",
		"-1.5\t0\t+\tInf\t-0.0\t4",
		"NaN\t1\tNa\tN\tNaN\t5",
		"+Inf\t1\t-\tInf\t+Inf\t6",
		"-Inf\t1\ta\tb\t-Inf\t7",
		"abc\t1\t0\t0\tabc\t8",
		"10\t0.5\t5\t\t2.5\t9",
		"-3\t0\t-\t0\t-0\t10",
	}
	// Every map task meets the int 0 before -0.0, and 5.0 before 5.
	var data []byte
	r := rand.New(rand.NewSource(38))
	for task := 0; task < 6; task++ {
		for _, i := range []int{2, 3, 1, 0} {
			data = append(data, base[i]+"\n"...)
		}
		for i := 0; i < 40; i++ {
			data = append(data, base[r.Intn(len(base))]+"\n"...)
		}
	}
	heads := []string{
		`B = foreach A generate x * y as k, v, w;
G = group B by k parallel %d;
C = foreach G generate group, COUNT(B), MIN(B.v), MAX(B.v), SUM(B.w), COUNT(B.v);`,
		`B1 = foreach A generate x * y as k, v, w;
B2 = foreach A generate CONCAT(s, u) as k, v, w;
B = union B1, B2;
G = group B by k parallel %d;
C = foreach G generate COUNT(B), group, MAX(B.v), MIN(B.v), SUM(B.w);`,
		`B = foreach A generate x * y as k, w;
G = group B by k parallel %d;
C = foreach G generate group, SUM(B), MIN(B), AVG(B), COUNT(B);`,
		`B = foreach A generate x * y as k, CONCAT(s, u) as c, w;
G = group B by (k, c) parallel %d;
C = foreach G generate group, SUM(B.w);`,
		`B = foreach A generate x * y, v;
C = distinct B parallel %d;`,
		`B1 = foreach A generate x * y;
B2 = foreach A generate CONCAT(s, u);
B = union B1, B2;
C = distinct B parallel %d;`,
	}
	for h, head := range heads {
		for _, parallel := range []int{1, 3, 5} {
			script := "A = load 'in' as (x, y, s, u, v, w);\n" + fmt.Sprintf(head, parallel) + "\nstore C into 'out';\n"
			jobs := compileScript(t, script)
			run := func(combine bool) map[string]string {
				fs := dfs.New()
				if err := fs.WriteFile("in/part-00000", data); err != nil {
					t.Fatal(err)
				}
				cfg := Config{Cost: cluster.DefaultCostModel()}
				cfg.SplitSize = int64(len(data)/6 + 1) // one task per preamble
				e := New(fs, cfg)
				for _, job := range jobs {
					seg, err := segments(job.Plan)
					if err != nil {
						t.Fatal(err)
					}
					if combine && seg.combine == nil && !seg.distinct {
						t.Fatalf("head %d: no combiner engaged", h)
					}
					if !combine {
						seg.combine, seg.distinct = nil, false
					}
					st, err := e.run(context.Background(), job, seg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if st.MapTasks < 6 {
						t.Fatalf("head %d: %d map tasks, want at least 6", h, st.MapTasks)
					}
				}
				return fsFiles(t, fs)
			}
			sameFiles(t, fmt.Sprintf("head %d parallel %d", h, parallel), run(true), run(false))
		}
	}
}

// identical reports whether a and b are the same value: the same type,
// a float with the same bits (any two NaNs match, since they print
// alike), and tuples field by field — stricter than tuple.Equal, which
// equates 5 with 5.0 and 0 with -0.0.
func identical(a, b tuple.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y))
	case tuple.Tuple:
		y, ok := b.(tuple.Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !identical(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// combineKeys are the keys where map-side combining is easiest to get
// wrong: numbers equal across types and bit patterns (5 and 5.0; 0, 0.0
// and -0.0; two NaN payloads), the infinities, null, and strings that
// print like those numbers.
func combineKeys() []tuple.Value {
	negZero := math.Copysign(0, -1)
	return []tuple.Value{
		int64(5), 5.0, int64(0), 0.0, negZero, math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), nil, "5", "0", "-0", "NaN", "+Inf", "a",
	}
}

// combineValues are aggregated fields: numbers whose sums are exact in
// any order (small ints and halves, the infinities, NaN), numeric and
// other strings, and null.
var combineValues = []tuple.Value{
	int64(-3), int64(0), int64(1), int64(5), int64(7), 0.5, -1.5, 5.0, math.Copysign(0, -1),
	math.NaN(), math.Inf(1), math.Inf(-1), "7", "2.5", "NaN", "x", nil,
}

// groupJobPlan is a GROUP job's plan: Load → LocalRearrange → Shuffle
// → Package(group,1) → ForEach(exprs) → Store, and with stored a second
// Store on the Package, as ReStore injects to keep the GROUP's output.
func groupJobPlan(exprs []expr.Expr, stored bool) *physical.Plan {
	p := physical.NewPlan()
	ld := p.Add(&physical.Op{Kind: physical.KLoad, Path: "in"})
	lr := p.Add(&physical.Op{Kind: physical.KLocalRearrange, KeyExprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ld.ID}})
	sh := p.Add(&physical.Op{Kind: physical.KShuffle, InputIDs: []int{lr.ID}})
	pkg := p.Add(&physical.Op{Kind: physical.KPackage, Mode: physical.PkgGroup, NumInputs: 1, InputIDs: []int{sh.ID}})
	fe := p.Add(&physical.Op{Kind: physical.KForEach, Exprs: exprs, InputIDs: []int{pkg.ID}})
	p.Add(&physical.Op{Kind: physical.KStore, Path: "out", InputIDs: []int{fe.ID}})
	if stored {
		p.Add(&physical.Op{Kind: physical.KStore, Path: "grouped", InputIDs: []int{pkg.ID}})
	}
	return p
}

// TestDetectCombineSoleConsumer holds the combiner's own rule beside
// physical.AlgebraicGroup: a Package that also feeds a Store ships its
// raw bags, so the job does not combine.
func TestDetectCombineSoleConsumer(t *testing.T) {
	exprs := []expr.Expr{expr.NewCol(0), expr.Agg{Kind: expr.AggSum, Bag: expr.NewCol(1), Field: 1}}
	for _, stored := range []bool{false, true} {
		seg, err := segments(groupJobPlan(exprs, stored))
		if err != nil {
			t.Fatal(err)
		}
		if (seg.combine != nil) == stored {
			t.Errorf("Package also stored %t: combine %+v", stored, seg.combine)
		}
	}
}

// checkMapCombine draws a GROUP's ForEach (aggregates over the bag,
// the group key at any positions, and sometimes one expression that is
// not algebraic, which must leave the job uncombined), takes its
// combineSpec from segments over a Load → LocalRearrange → Shuffle →
// Package → ForEach → Store plan, cuts a random stream of (key, row)
// pairs into map tasks and runs each through the combiner
// (taskScratch.combine and drainCombined), then every reducer's share
// through groupByKey and combineSpec.row, reusing one scratch
// throughout. It requires that
//
//	(a) each group's row is the ForEach's output over the group's whole
//	    bag: the first arrival of its key and expr.Agg.Eval of each
//	    aggregate, value for value;
//	(b) a task ships one record per tuple.Equal-distinct key, holding
//	    the key's first arrival in the task, to partition Hash(key) mod R;
//	(c) each record's bytes is its partials' widths joined by tabs (the
//	    width of AggState's rendering, held to it by TestAggStateTextLen
//	    in internal/expr), plus the key's text and two.
func checkMapCombine(t *testing.T, c *chooser) {
	t.Helper()
	keys := combineKeys()
	drawKey := func() tuple.Value {
		if c.n(4) == 0 {
			return tuple.Tuple{keys[c.n(len(keys))], keys[c.n(len(keys))]}
		}
		return keys[c.n(len(keys))]
	}
	var exprs []expr.Expr
	for i := c.n(4); i >= 0; i-- {
		exprs = append(exprs, expr.Agg{Kind: expr.AggKind(c.n(5)), Bag: expr.NewCol(1), Field: c.n(4) - 1})
	}
	for i := c.n(3); i > 0; i-- {
		exprs = slices.Insert(exprs, c.n(len(exprs)+1), expr.Expr(expr.NewCol(0)))
	}
	reject := c.n(8) == 0
	if reject {
		bad := []expr.Expr{
			expr.NewCol(1), // the raw bag
			expr.NewCol(2),
			expr.Agg{Kind: expr.AggSum, Bag: expr.NewCol(0), Field: 0},
			expr.Binary{Op: expr.OpAdd, L: exprs[0], R: expr.Const{V: int64(1)}},
		}
		exprs = slices.Insert(exprs, c.n(len(exprs)+1), bad[c.n(len(bad))])
	}
	seg, err := segments(groupJobPlan(exprs, false))
	if err != nil {
		t.Fatal(err)
	}
	spec := seg.combine
	if reject {
		if spec != nil {
			t.Fatalf("%v combined", exprs)
		}
		return
	}
	if spec == nil {
		t.Fatalf("%v not combined", exprs)
	}
	type pair struct {
		key tuple.Value
		row tuple.Tuple
	}
	stream := make([]pair, c.n(120))
	for i := range stream {
		row := make(tuple.Tuple, 1+c.n(3))
		for j := range row {
			row[j] = combineValues[c.n(len(combineValues))]
		}
		stream[i] = pair{drawKey(), row}
	}
	numRed := 1 + c.n(6)
	var tasks [][][]rec
	s := new(taskScratch) // one scratch for every task, as an engine slot's is reused
	for lo := 0; lo < len(stream); {
		hi := min(len(stream), lo+1+c.n(40))
		var firsts []tuple.Value // the task's distinct keys, first arrivals
		for _, p := range stream[lo:hi] {
			s.combine(spec.aggs, p.key, p.row)
			if !slices.ContainsFunc(firsts, func(k tuple.Value) bool { return tuple.Equal(k, p.key) }) {
				firsts = append(firsts, p.key)
			}
		}
		parts := s.drainCombined(len(spec.aggs), numRed)
		s.reset()
		n := 0
		for p, recs := range parts {
			for _, r := range recs {
				n++
				i := slices.IndexFunc(firsts, func(k tuple.Value) bool { return tuple.Equal(k, r.key) })
				switch {
				case i < 0 || !identical(firsts[i], r.key):
					t.Fatalf("task [%d,%d): record key %v is not a first arrival %v", lo, hi, r.key, firsts)
				case r.hash != tuple.Hash(r.key) || p != partitionOf(r.hash, numRed):
					t.Fatalf("task [%d,%d): key %v in partition %d, hash %x", lo, hi, r.key, p, r.hash)
				case len(*r.states) != len(spec.aggs):
					t.Fatalf("task [%d,%d): key %v carries %d states, want %d", lo, hi, r.key, len(*r.states), len(spec.aggs))
				}
				want := tuple.TextLen(r.key) + 2 + max(0, len(spec.aggs)-1)
				for i := range *r.states {
					want += (*r.states)[i].TextLen()
				}
				if r.bytes != int32(want) {
					t.Fatalf("key %v, %d partials: bytes %d, want %d", r.key, len(spec.aggs), r.bytes, want)
				}
			}
		}
		if n != len(firsts) {
			t.Fatalf("task [%d,%d): %d records for %d distinct keys", lo, hi, n, len(firsts))
		}
		tasks = append(tasks, parts)
		lo = hi
	}

	groups := 0
	acc := make([]expr.AggState, len(spec.aggs))
	for r := 0; r < numRed; r++ {
		parts := make([][]rec, len(tasks))
		for m := range tasks {
			parts[m] = tasks[m][r]
		}
		recs, starts := s.groupByKey(parts, nil)
		for g, lo := range starts {
			hi := len(recs)
			if g+1 < len(starts) {
				hi = starts[g+1]
			}
			got := make(tuple.Tuple, len(spec.exprs))
			spec.row(recs[lo:hi], acc, got)
			groups++
			var first tuple.Value
			bag := &tuple.Bag{}
			for _, p := range stream {
				if tuple.Equal(p.key, recs[lo].key) {
					if bag.Len() == 0 {
						first = p.key
					}
					bag.Add(p.row)
				}
			}
			for i, e := range spec.exprs {
				want, err := e.Eval(tuple.Tuple{first, bag})
				if err != nil {
					t.Fatal(err)
				}
				if !identical(got[i], want) {
					t.Fatalf("group %v, %v over %v: got %v (%T), want %v (%T)", first, e, bag.Tuples, got[i], got[i], want, want)
				}
			}
		}
		s.reset()
	}
	var distinct []tuple.Value
	for _, p := range stream {
		if !slices.ContainsFunc(distinct, func(k tuple.Value) bool { return tuple.Equal(k, p.key) }) {
			distinct = append(distinct, p.key)
		}
	}
	if groups != len(distinct) {
		t.Fatalf("%d groups for %d distinct keys", groups, len(distinct))
	}
}

// TestMapCombine runs checkMapCombine over random streams.
func TestMapCombine(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for trial := 0; trial < 1000; trial++ {
		data := make([]byte, 400)
		r.Read(data)
		checkMapCombine(t, &chooser{data: data})
	}
}

// FuzzMapCombine is TestMapCombine with the stream, the aggregates, the
// task cuts and the reducer count drawn from the fuzzer's bytes.
func FuzzMapCombine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 1, 2, 0, 4, 0, 100, 5, 0, 3, 2, 1, 7, 1, 1, 9, 2, 2, 3, 4})
	f.Add([]byte("map-side combining over keys equal under Compare but typed apart"))
	f.Fuzz(func(t *testing.T, data []byte) { checkMapCombine(t, &chooser{data: data}) })
}

// BenchmarkMapCombine times one map task's combining, combine for every
// row and drainCombined, and the reducers' merge of its partials (groupByKey and
// combineSpec.row per partition), for COUNT, an integer SUM, MIN and
// MAX by a string key. It runs at engine-scan's shape — map tasks of
// about 70 rows, 24 reducers — and over a 10 000-row task, reporting
// time and allocations per row.
func BenchmarkMapCombine(b *testing.B) {
	spec := &combineSpec{exprs: []expr.Expr{
		expr.NewCol(0),
		expr.Agg{Kind: expr.AggCount, Bag: expr.NewCol(1), Field: -1},
		expr.Agg{Kind: expr.AggSum, Bag: expr.NewCol(1), Field: 1},
		expr.Agg{Kind: expr.AggMin, Bag: expr.NewCol(1), Field: 2},
		expr.Agg{Kind: expr.AggMax, Bag: expr.NewCol(1), Field: 2},
	}}
	for _, e := range spec.exprs[1:] {
		spec.aggs = append(spec.aggs, e.(expr.Agg))
	}
	for _, shape := range []struct{ rows, keys, reducers int }{{70, 40, 24}, {10000, 2000, 24}} {
		r := rand.New(rand.NewSource(1))
		keys := make([]tuple.Value, shape.rows)
		rows := make([]tuple.Tuple, shape.rows)
		for i := range rows {
			keys[i] = fmt.Sprintf("user%05d", r.Intn(shape.keys))
			rows[i] = tuple.Tuple{keys[i], int64(r.Intn(1000)), float64(r.Intn(4000)) / 4}
		}
		b.Run(fmt.Sprintf("rows=%d", shape.rows), func(b *testing.B) {
			b.ReportAllocs()
			acc := make([]expr.AggState, len(spec.aggs))
			row := make(tuple.Tuple, len(spec.exprs)) // the reduce task's buffer
			s := new(taskScratch)                     // one slot's scratch, reset after each task
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, row := range rows {
					s.combine(spec.aggs, keys[j], row)
				}
				parts := s.drainCombined(len(spec.aggs), shape.reducers)
				s.reset()
				for _, part := range parts {
					recs, starts := s.groupByKey([][]rec{part}, nil)
					for g, lo := range starts {
						hi := len(recs)
						if g+1 < len(starts) {
							hi = starts[g+1]
						}
						spec.row(recs[lo:hi], acc, row)
					}
					s.reset()
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			n := float64(b.N * shape.rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/row")
		})
	}
}

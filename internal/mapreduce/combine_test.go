package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
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
		eng := New(fs, DefaultConfig())
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
	eng := New(fs, DefaultConfig())
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

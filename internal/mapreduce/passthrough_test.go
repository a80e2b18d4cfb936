package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
)

// renderRun runs job with no copying Store and every Load fed fresh,
// full rows: each Store renders the tuples it was handed, as every Store
// did before the copying ones. It is the reference the copying run is
// held to.
func renderRun(e *Engine, job *physical.Job) (*JobStats, error) {
	seg, err := segments(job.Plan)
	if err != nil {
		return nil, err
	}
	clear(seg.mapSide.copies)
	for id := range seg.feeds {
		seg.feeds[id] = feed{}
	}
	return e.run(context.Background(), job, seg, nil)
}

// passThroughPlans are map-only jobs whose Stores all copy: each writes
// rows of the Load unchanged, through Filter, Split, Union and Limit.
// Every plan reads "in", and every Store path starts with "out".
var passThroughPlans = []struct {
	name  string
	build func(b planBuilder, cond expr.Expr) []*physical.Op // the Stores
}{
	{"load-filter-store", func(b planBuilder, cond expr.Expr) []*physical.Op {
		return []*physical.Op{b.store("out", b.filter(b.load("in"), cond))}
	}},
	{"load-split-store", func(b planBuilder, cond expr.Expr) []*physical.Op {
		sp := b.add(physical.Op{Kind: physical.KSplit}, b.load("in"))
		return []*physical.Op{
			b.store("out0", sp),
			b.store("out1", b.filter(sp, cond)),
			b.store("out2", b.add(physical.Op{Kind: physical.KLimit, N: 3}, sp)),
		}
	}},
	{"load-store", func(b planBuilder, cond expr.Expr) []*physical.Op {
		return []*physical.Op{b.store("out", b.load("in"))}
	}},
	{"split-filters-rejoin", func(b planBuilder, cond expr.Expr) []*physical.Op {
		// A row both branches pass reaches the Store twice in a row.
		sp := b.add(physical.Op{Kind: physical.KSplit}, b.load("in"))
		u := b.add(physical.Op{Kind: physical.KUnion}, b.filter(sp, cond), sp)
		return []*physical.Op{b.store("out", u)}
	}},
}

// checkPassThrough runs every pass-through plan over the part files
// files, with the batch cache on (cold, then warm) and off, over small
// splits and a split per file, and holds the bytes each writes and its
// statistics to renderRun's.
func checkPassThrough(t *testing.T, files []string, cond expr.Expr) {
	t.Helper()
	for _, pl := range passThroughPlans {
		b := planBuilder{physical.NewPlan()}
		stores := pl.build(b, cond)
		if err := b.p.Validate(); err != nil {
			t.Fatal(err)
		}
		seg, err := segments(b.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stores {
			if !seg.mapSide.copies[st.ID] {
				t.Fatalf("%s: Store %s does not copy", pl.name, st.Path)
			}
		}
		job := &physical.Job{ID: "pass", Plan: b.p, OutputPath: stores[0].Path}
		for _, cf := range []struct{ split, budget int64 }{
			{48, 0}, {48, -1}, // small splits: a task's rows start and end inside a file
			{1 << 20, 0}, // a task per file
		} {
			run := func(reference bool) (map[string]string, []*JobStats) {
				fs := dfs.New()
				for i, f := range files {
					if err := fs.WriteFile(fmt.Sprintf("in/part-%05d", i), []byte(f)); err != nil {
						t.Fatal(err)
					}
				}
				e := New(fs, Config{Cost: cluster.DefaultCostModel(), SplitSize: cf.split, MaxCachedBatchBytes: cf.budget})
				var stats []*JobStats
				for pass := 0; pass < 2; pass++ {
					var st *JobStats
					var err error
					if reference {
						st, err = renderRun(e, job)
					} else {
						st, err = runJob(e, job)
					}
					if err != nil {
						t.Fatalf("%s: %v", pl.name, err)
					}
					stats = append(stats, st)
				}
				return fsFiles(t, fs), stats
			}
			got, gotStats := run(false)
			want, wantStats := run(true)
			label := fmt.Sprintf("%s, split size %d, cache budget %d, input %q", pl.name, cf.split, cf.budget, files)
			sameFiles(t, label, got, want)
			for i := range wantStats {
				g, w := gotStats[i], wantStats[i]
				if g.SimTime != w.SimTime || g.MapTasks != w.MapTasks || fmt.Sprint(g.Outputs) != fmt.Sprint(w.Outputs) {
					t.Fatalf("%s, pass %d: SimTime %v, %d maps, outputs %v; rendered %v, %d maps, %v",
						label, i, g.SimTime, g.MapTasks, g.Outputs, w.SimTime, w.MapTasks, w.Outputs)
				}
			}
		}
	}
}

// passThroughInputs are part-file sets for the pass-through tests: text
// that re-renders byte for byte, and text that does not.
var passThroughInputs = []struct {
	name  string
	files []string
}{
	{"canonical", []string{
		"u1\t7\t1.5\tterm0042\n\t3\t-0.25\t192.168.1.2\nu3\t12\t0.001\t(1,a,2.5)\nu4\t5\t100000.5\t{(1),(b,)}\n",
		"u5\t-3\t2\n\nu6\t9\t\t\nu7\t4\t12.34\tx\ty\n",
	}},
	{"non-canonical numbers", []string{ // one form per file
		"u1\t007\tx\nu0\t9\n", "u2\t+3\n", "u3\t-0\n", "u4\t8\t1.50\n",
		"u5\t6\t.5\n", "u6\t7\t5.\n", "u7\t5\t1e5\n",
	}},
	{"escapes", []string{
		"u1\t9\ta\\tb\nu2\t1\tc\\\\d\n", "u3\t5\tend\\\nu4\t6\tclean\n",
	}},
	{"nested and ragged", []string{
		"u1\t4\t(1,007)\nu2\t8\n\t\t\t\nu3\t6\t{(1.50)}\t\n",
	}},
	{"no final newline", []string{
		"u1\t5\tx\nu2\t6\ty",
	}},
}

// TestPassThroughStore: a Store fed only through Filter, Split, Union
// and Limit writes byte for byte what rendering its rows writes,
// whether the batch's lines are copied (canonical text) or rendered
// (any other), from a cold read, a cached batch and with no cache.
func TestPassThroughStore(t *testing.T) {
	cond := expr.Compare{Op: expr.CmpGt, L: col(1), R: expr.Const{V: int64(4)}}
	for _, in := range passThroughInputs {
		t.Run(in.name, func(t *testing.T) { checkPassThrough(t, in.files, cond) })
	}
}

// FuzzPassThroughStore holds the part files of copying Stores to the
// AppendText rendering of their decoded rows over arbitrary input: the
// first byte picks the filter's column and constant, and the rest is
// the text of two part files, split at a byte that picks where.
func FuzzPassThroughStore(f *testing.F) {
	for _, in := range passThroughInputs {
		f.Add([]byte("\x13" + strings.Join(in.files, "")))
	}
	f.Add([]byte("\x02(1)\t{(2,3)}\t0.1\n-5\t0.30000000000000004\t1e+06\n+Inf\t-Inf\tNaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, text := data[0], string(data[1:])
		cut := 0
		if len(text) > 0 {
			cut = int(sel) * 7 % (len(text) + 1)
		}
		files := []string{text[:cut], text[cut:]}
		cond := expr.Compare{Op: expr.CmpGt, L: col(int(sel % 4)), R: expr.Const{V: int64(sel % 16)}}
		checkPassThrough(t, files, cond)
	})
}

// TestPassThroughNeedsRowsUnchanged: a Store is copying only when every
// path from its Load keeps the Load's rows as they are, whatever the
// order of the ops' IDs.
func TestPassThroughNeedsRowsUnchanged(t *testing.T) {
	b := planBuilder{physical.NewPlan()}
	l1, l2 := b.load("a"), b.load("b")
	cond := eq(col(0), expr.Const{V: int64(1)})
	copying := map[*physical.Op]bool{
		b.store("copy", b.add(physical.Op{Kind: physical.KUnion}, b.filter(l1, cond), l2)): true,
	}
	b.store("proj", b.add(physical.Op{Kind: physical.KUnion}, l1, b.foreach(l2, col(0))))
	b.shuffle(b.filter(l1, cond), col(0)) // adds a reduce-side Store "out"
	// A Load added after its Filter, as a rewrite splices one in.
	f := b.add(physical.Op{Kind: physical.KFilter, Cond: cond})
	f.InputIDs = []int{b.load("c").ID}
	copying[b.store("late", f)] = true
	if err := b.p.Validate(); err != nil {
		t.Fatal(err)
	}
	seg, err := segments(b.p)
	if err != nil {
		t.Fatal(err)
	}
	if seg.redSide.copies != nil {
		t.Errorf("reduce side copies = %v, want nil: a reduce-side Store renders its rows", seg.redSide.copies)
	}
	for _, op := range b.p.Ops() {
		if op.Kind != physical.KStore {
			continue
		}
		want := copying[op]
		if got := seg.mapSide.copies[op.ID]; got != want {
			t.Errorf("Store %s: copies = %v, want %v", op.Path, got, want)
		}
	}
}

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

// reusePlans are plan shapes whose ForEach, JoinFlatten and Package
// ops rewrite one buffer per task, some of them ahead of a
// LocalRearrange that stages a copy of each row. A plan reads "in", or
// "pairs" for a JoinFlatten over the Load.
var reusePlans = []struct {
	name  string
	build func(b planBuilder)
}{
	{"foreach-store", func(b planBuilder) {
		b.store("out", b.foreach(b.load("in"), col(0), col(3)))
	}},
	{"foreach-localrearrange", func(b planBuilder) {
		b.shuffle(b.foreach(b.load("in"), col(0), col(3)), col(0))
	}},
	{"load-localrearrange", func(b planBuilder) {
		b.shuffle(b.load("in"), col(0))
	}},
	{"load-filter-localrearrange", func(b planBuilder) {
		b.shuffle(b.filter(b.load("in"), expr.Compare{Op: expr.CmpNe, L: col(3), R: expr.Const{V: int64(2)}}), col(4))
	}},
	{"split-store-and-localrearrange", func(b planBuilder) {
		sp := b.add(physical.Op{Kind: physical.KSplit}, b.foreach(b.load("in"), col(0), col(4)))
		b.store("side", sp)
		b.shuffle(sp, col(0))
	}},
	{"foreach-limit-localrearrange", func(b planBuilder) {
		fe := b.foreach(b.load("in"), col(3), col(0))
		b.shuffle(b.add(physical.Op{Kind: physical.KLimit, N: 7}, fe), col(0))
	}},
	{"joinflatten-filter-store", func(b planBuilder) {
		jf := b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, b.load("pairs"))
		b.store("out", b.filter(jf, expr.Compare{Op: expr.CmpNe, L: col(1), R: expr.Const{V: "b"}}))
	}},
	{"joinflatten-localrearrange", func(b planBuilder) {
		b.shuffle(b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, b.load("pairs")), col(1))
	}},
	{"package-foreach-store", func(b planBuilder) {
		b.shuffle(b.load("in"), col(3))
	}},
	{"package-joinflatten-store", func(b planBuilder) {
		b.join(b.foreach(b.load("in"), col(3), col(0)), col(0))
	}},
	{"combined-group", func(b planBuilder) {
		fe := b.foreach(b.load("in"), col(0), col(3))
		pkg := b.pkg(1, b.rearrange(fe, col(0), 0, false))
		b.store("out", b.foreach(pkg, col(0), expr.Agg{Kind: expr.AggSum, Bag: col(1), Field: 1}))
	}},
}

// reuseInput is the part files of "in" — rows of a key, two bags, an
// int and a float — and of "pairs": each row's key and bags, the shape
// of a stored join's group. One row has an empty bag, and each dataset
// has an empty part file, whose split has no batch.
func reuseInput() map[string]string {
	files := map[string]string{"in/part-00003": "", "pairs/part-00003": ""}
	for f := 0; f < 3; f++ {
		var in, pairs strings.Builder
		for r := 0; r < 30; r++ {
			i := f*30 + r
			b2 := fmt.Sprintf("{(x%d),(y)}", i%4)
			if i == 17 {
				b2 = "{}"
			}
			row := fmt.Sprintf("k%d\t{(%d,a),(%d,b)}\t%s", i%5, i, i+1, b2)
			fmt.Fprintf(&in, "%s\t%d\t%d.25\n", row, i%7, i)
			pairs.WriteString(row + "\n")
		}
		files[fmt.Sprintf("in/part-%05d", f)] = in.String()
		files[fmt.Sprintf("pairs/part-%05d", f)] = pairs.String()
	}
	return files
}

// TestReusedBuffersMatchFreshTuples states that every ForEach,
// JoinFlatten and Package of each reusePlans shape rewrites a buffer of
// its own, and holds the bytes each run writes, cold and from the
// cache, to refRun's, whose ops build a fresh tuple per row. A plan
// with a combiner runs again with it turned off after segments, as
// TestCombinerEdgeKeys turns it off: its LocalRearrange then stages
// copies of the ForEach's rewritten buffer.
func TestReusedBuffersMatchFreshTuples(t *testing.T) {
	for _, pl := range reusePlans {
		t.Run(pl.name, func(t *testing.T) {
			for _, off := range []bool{false, true} {
				b := planBuilder{physical.NewPlan()}
				pl.build(b)
				if err := b.p.Validate(); err != nil {
					t.Fatal(err)
				}
				seg, err := segments(b.p)
				if err != nil {
					t.Fatal(err)
				}
				if off {
					if seg.combine == nil {
						return
					}
					seg.combine = nil
				}
				checkBuffers(t, seg)
				job := &physical.Job{ID: "reuse", Plan: b.p, NumReducers: 3}
				label := fmt.Sprintf("%s, combiner turned off %t", pl.name, off)
				sameFiles(t, label, reuseRun(t, job, seg), reuseRun(t, job, nil))
			}
		})
	}
}

// checkBuffers holds each side of seg to one buffer of its own for
// every ForEach, JoinFlatten and Package.
func checkBuffers(t *testing.T, seg *segmentation) {
	t.Helper()
	for _, sd := range []*side{&seg.mapSide, &seg.redSide} {
		seen := map[int32]bool{}
		for _, op := range sd.ops {
			switch op.Kind {
			case physical.KForEach, physical.KJoinFlatten, physical.KPackage:
				if i := sd.buf[op.ID]; i < 0 || int(i) >= sd.nbuf || seen[i] {
					t.Errorf("%s %d has buffer %d of %d, want one of its own", op.Kind, op.ID, i, sd.nbuf)
				} else {
					seen[i] = true
				}
			}
		}
	}
}

// reuseRun runs job twice over reuseInput, cold and from the cache, as
// seg splits it, or as refRun does when seg is nil, and returns the
// files.
func reuseRun(t *testing.T, job *physical.Job, seg *segmentation) map[string]string {
	t.Helper()
	fs := dfs.New()
	for name, f := range reuseInput() {
		if err := fs.WriteFile(name, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(fs, Config{Cost: cluster.DefaultCostModel(), SplitSize: 512})
	for pass := 0; pass < 2; pass++ {
		var err error
		if seg == nil {
			_, err = refRun(e, job)
		} else {
			_, err = e.run(context.Background(), job, seg, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return fsFiles(t, fs)
}

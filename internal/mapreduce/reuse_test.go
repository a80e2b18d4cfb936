package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
)

// reusePlans are plan shapes that place output buffers differently.
// Each returns the ops that must rewrite one buffer and those that must
// build a fresh tuple per row, because a LocalRearrange that stages its
// input can receive their rows. A plan reads "in", or "pairs" for a
// JoinFlatten over the Load.
var reusePlans = []struct {
	name  string
	build func(b planBuilder) (reuse, fresh []*physical.Op)
}{
	{"foreach-store", func(b planBuilder) (reuse, fresh []*physical.Op) {
		fe := b.foreach(b.load("in"), col(0), col(3))
		b.store("out", fe)
		return []*physical.Op{fe}, nil
	}},
	{"foreach-localrearrange", func(b planBuilder) (reuse, fresh []*physical.Op) {
		fe := b.foreach(b.load("in"), col(0), col(3))
		b.shuffle(fe, col(0))
		return nil, []*physical.Op{fe}
	}},
	{"split-store-and-localrearrange", func(b planBuilder) (reuse, fresh []*physical.Op) {
		fe := b.foreach(b.load("in"), col(0), col(4))
		sp := b.add(physical.Op{Kind: physical.KSplit}, fe)
		b.store("side", sp)
		b.shuffle(sp, col(0))
		return nil, []*physical.Op{fe}
	}},
	{"foreach-limit-localrearrange", func(b planBuilder) (reuse, fresh []*physical.Op) {
		fe := b.foreach(b.load("in"), col(3), col(0))
		b.shuffle(b.add(physical.Op{Kind: physical.KLimit, N: 7}, fe), col(0))
		return nil, []*physical.Op{fe}
	}},
	{"joinflatten-filter-store", func(b planBuilder) (reuse, fresh []*physical.Op) {
		jf := b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, b.load("pairs"))
		b.store("out", b.filter(jf, expr.Compare{Op: expr.CmpNe, L: col(1), R: expr.Const{V: "b"}}))
		return []*physical.Op{jf}, nil
	}},
	{"joinflatten-localrearrange", func(b planBuilder) (reuse, fresh []*physical.Op) {
		jf := b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, b.load("pairs"))
		b.shuffle(jf, col(1))
		return nil, []*physical.Op{jf}
	}},
	{"package-foreach-store", func(b planBuilder) (reuse, fresh []*physical.Op) {
		pkg, fe := b.shuffle(b.load("in"), col(3))
		return []*physical.Op{pkg, fe}, nil
	}},
	{"package-joinflatten-store", func(b planBuilder) (reuse, fresh []*physical.Op) {
		fe := b.foreach(b.load("in"), col(3), col(0))
		pkg, jf := b.join(fe, col(0))
		return []*physical.Op{pkg, jf}, []*physical.Op{fe}
	}},
	{"combined-group", func(b planBuilder) (reuse, fresh []*physical.Op) {
		// The combiner keeps no row: the ForEach ahead of it reuses.
		fe := b.foreach(b.load("in"), col(0), col(3))
		pkg := b.pkg(1, b.rearrange(fe, col(0), 0, false))
		agg := b.foreach(pkg, col(0), expr.Agg{Kind: expr.AggSum, Bag: col(1), Field: 1})
		b.store("out", agg)
		return []*physical.Op{fe, pkg, agg}, nil
	}},
}

// reuseInput is the part files of "in" — rows of a key, two bags, an
// int and a float — and of "pairs": each row's key and bags, the shape
// of a stored join's group. One row has an empty bag.
func reuseInput() map[string]string {
	files := map[string]string{}
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

// TestReusedBuffersMatchFreshTuples states which ops of each reusePlans
// shape rewrite one buffer, and holds the bytes each run writes, cold
// and from the cache, to refRun's, whose ops build a fresh tuple per
// row. A plan with a combiner runs again with it turned off after
// segments, as TestCombinerEdgeKeys turns it off: the placement follows.
func TestReusedBuffersMatchFreshTuples(t *testing.T) {
	for _, pl := range reusePlans {
		t.Run(pl.name, func(t *testing.T) {
			for _, off := range []bool{false, true} {
				b := planBuilder{physical.NewPlan()}
				reuse, fresh := pl.build(b)
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
					// The combiner's LocalRearrange now stages the rows
					// of the ForEach ahead of it.
					seg.combine = nil
					reuse, fresh = reuse[1:], append(fresh, reuse[0])
				}
				seg.placeBuffers()
				checkPlacement(t, seg, reuse, fresh)
				job := &physical.Job{ID: "reuse", Plan: b.p, NumReducers: 3}
				label := fmt.Sprintf("%s, combiner turned off %t", pl.name, off)
				sameFiles(t, label, reuseRun(t, job, seg), reuseRun(t, job, nil))
			}
		})
	}
}

// checkPlacement holds seg's placed buffers to the ops that must reuse
// one and those that must build fresh tuples.
func checkPlacement(t *testing.T, seg *segmentation, reuse, fresh []*physical.Op) {
	t.Helper()
	for _, sd := range []*side{&seg.mapSide, &seg.redSide} {
		for _, op := range sd.ops {
			got := sd.buf[op.ID] >= 0
			if slices.Contains(reuse, op) && !got {
				t.Errorf("%s %d builds fresh tuples, want a reused buffer", op.Kind, op.ID)
			}
			if slices.Contains(fresh, op) && got {
				t.Errorf("%s %d reuses a buffer, want fresh tuples", op.Kind, op.ID)
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

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
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// planBuilder wires small physical plans by hand for the feed tests.
type planBuilder struct{ p *physical.Plan }

func (b planBuilder) add(op physical.Op, inputs ...*physical.Op) *physical.Op {
	for _, in := range inputs {
		op.InputIDs = append(op.InputIDs, in.ID)
	}
	return b.p.Add(&op)
}

func (b planBuilder) load(path string) *physical.Op {
	return b.add(physical.Op{Kind: physical.KLoad, Path: path})
}

func (b planBuilder) foreach(in *physical.Op, es ...expr.Expr) *physical.Op {
	return b.add(physical.Op{Kind: physical.KForEach, Exprs: es}, in)
}

func (b planBuilder) filter(in *physical.Op, cond expr.Expr) *physical.Op {
	return b.add(physical.Op{Kind: physical.KFilter, Cond: cond}, in)
}

func (b planBuilder) store(path string, in ...*physical.Op) *physical.Op {
	return b.add(physical.Op{Kind: physical.KStore, Path: path}, in...)
}

// shuffle ends in's map segment at a LocalRearrange keyed on key and
// adds the reduce side of a GROUP that stores each key with its bag. It
// returns the reduce side's Package and ForEach.
func (b planBuilder) shuffle(in *physical.Op, key expr.Expr) (pkg, fe *physical.Op) {
	pkg = b.pkg(1, b.rearrange(in, key, 0, false))
	fe = b.foreach(pkg, col(0), col(1))
	b.store("out", fe)
	return pkg, fe
}

// join ends in's map segment at two LocalRearranges keyed on key, the
// branches of a self-join, and adds the reduce side that stores the
// joined rows through a JoinFlatten. It returns the Package and the
// JoinFlatten.
func (b planBuilder) join(in *physical.Op, key expr.Expr) (pkg, jf *physical.Op) {
	pkg = b.pkg(2, b.rearrange(in, key, 0, true), b.rearrange(in, key, 1, true))
	jf = b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, pkg)
	b.store("out", jf)
	return pkg, jf
}

// rearrange adds the LocalRearrange of shuffle input branch over in,
// keyed on key; a join's drops null keys.
func (b planBuilder) rearrange(in *physical.Op, key expr.Expr, branch int, dropNull bool) *physical.Op {
	return b.add(physical.Op{Kind: physical.KLocalRearrange, KeyExprs: []expr.Expr{key}, Branch: branch, DropNull: dropNull}, in)
}

// pkg adds the Shuffle over the LocalRearranges lrs and its grouping
// Package of n inputs.
func (b planBuilder) pkg(n int, lrs ...*physical.Op) *physical.Op {
	sh := b.add(physical.Op{Kind: physical.KShuffle}, lrs...)
	return b.add(physical.Op{Kind: physical.KPackage, Mode: physical.PkgGroup, NumInputs: n}, sh)
}

func col(i int) expr.Expr { return expr.NewCol(i) }

func eq(l, r expr.Expr) expr.Expr { return expr.Compare{Op: expr.CmpEq, L: l, R: r} }

// unlisted is an Expr kind expr.Columns cannot see into.
type unlisted struct{}

func (unlisted) Eval(t tuple.Tuple) (tuple.Value, error) { return int64(len(t)), nil }
func (unlisted) String() string                          { return "unlisted" }

// TestMapFeed states the per-Load feed decision over plan shapes: which
// columns the map segment reads. A LocalRearrange reached before any
// ForEach stages a copy of the row, so it reads every column, and so
// does a Store that renders its rows as each arrives; a Store that
// copies its rows' lines keeps only their indices and reads no column.
// A JoinFlatten reads only its bag columns.
func TestMapFeed(t *testing.T) {
	pruned := func(cols ...int) feed { return feed{reuse: true, cols: append([]int{}, cols...)} }
	cases := []struct {
		name  string
		build func(b planBuilder) []*physical.Op // the Loads, in want order
		want  []feed
	}{
		{"load-foreach", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.foreach(l, col(3), col(1), col(3), col(-1)))
			return []*physical.Op{l}
		}, []feed{pruned(1, 3)}},
		{"load-filter-foreach", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			f := b.filter(l, eq(col(5), expr.Const{V: "x"}))
			b.store("out", b.foreach(f, col(0)))
			return []*physical.Op{l}
		}, []feed{pruned(0, 5)}},
		{"load-filter-store", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.filter(l, eq(col(5), expr.Const{V: "x"})))
			return []*physical.Op{l}
		}, []feed{pruned(5)}},
		{"load-split-foreach-and-store", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			sp := b.add(physical.Op{Kind: physical.KSplit}, l)
			b.store("out", b.foreach(sp, col(2)))
			b.store("side", sp)
			return []*physical.Op{l}
		}, []feed{pruned(2)}},
		{"load-union-foreach-store", func(b planBuilder) []*physical.Op {
			l1, l2 := b.load("a"), b.load("b")
			b.store("out", b.add(physical.Op{Kind: physical.KUnion}, l1, b.foreach(l2, col(1))))
			return []*physical.Op{l1, l2}
		}, []feed{{reuse: true}, pruned(1)}},
		{"load-joinflatten-store", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, l))
			return []*physical.Op{l}
		}, []feed{pruned(1, 2)}},
		{"load-localrearrange", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.shuffle(l, col(0))
			return []*physical.Op{l}
		}, []feed{{reuse: true}}},
		{"load-foreach-localrearrange", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.shuffle(b.foreach(l, col(0), col(6)), col(0))
			return []*physical.Op{l}
		}, []feed{pruned(0, 6)}},
		{"loads-union-limit-foreach", func(b planBuilder) []*physical.Op {
			l1, l2 := b.load("a"), b.load("b")
			u := b.add(physical.Op{Kind: physical.KUnion}, l1, l2)
			lim := b.add(physical.Op{Kind: physical.KLimit, N: 10}, u)
			b.store("out", b.foreach(lim, col(4), col(1)))
			return []*physical.Op{l1, l2}
		}, []feed{pruned(1, 4), pruned(1, 4)}},
		{"split-filters-rejoin", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			sp := b.add(physical.Op{Kind: physical.KSplit}, l)
			f1 := b.filter(sp, eq(col(1), expr.Const{V: int64(1)}))
			f2 := b.filter(sp, eq(col(7), expr.Const{V: int64(2)}))
			u := b.add(physical.Op{Kind: physical.KUnion}, f1, f2)
			b.store("out", b.foreach(u, col(0)))
			return []*physical.Op{l}
		}, []feed{pruned(0, 1, 7)}},
		{"foreach-agg-bagfield-func", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.foreach(l,
				expr.Agg{Kind: expr.AggCount, Bag: col(6), Field: -1},
				expr.BagField{Bag: col(7), Field: 0},
				expr.Func{Name: "CONCAT", Args: []expr.Expr{col(8), col(0)}}))
			return []*physical.Op{l}
		}, []feed{pruned(0, 6, 7, 8)}},
		{"foreach-reads-nothing", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.foreach(l, expr.Const{V: int64(1)}))
			return []*physical.Op{l}
		}, []feed{pruned()}},
		{"foreach-unlisted-expr", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.foreach(l, col(2), unlisted{}))
			return []*physical.Op{l}
		}, []feed{{reuse: true}}},
		{"filter-unlisted-cond", func(b planBuilder) []*physical.Op {
			l := b.load("in")
			b.store("out", b.foreach(b.filter(l, unlisted{}), col(2)))
			return []*physical.Op{l}
		}, []feed{{reuse: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := planBuilder{physical.NewPlan()}
			loads := tc.build(b)
			if err := b.p.Validate(); err != nil {
				t.Fatal(err)
			}
			seg, err := segments(b.p)
			if err != nil {
				t.Fatal(err)
			}
			if len(seg.feeds) != len(loads) {
				t.Fatalf("%d feeds for %d loads", len(seg.feeds), len(loads))
			}
			for i, l := range loads {
				got, want := seg.feeds[l.ID], tc.want[i]
				if got.reuse != want.reuse || (got.cols == nil) != (want.cols == nil) || !slices.Equal(got.cols, want.cols) {
					t.Errorf("load %s: feed = %+v, want %+v", l.Path, got, want)
				}
			}
		})
	}
}

// refRun runs job with every Load fed fresh, full Batch.Row tuples and
// every op building a fresh tuple per row (no side has buffers): the
// feed before column pruning and the ops before buffer reuse, kept as
// the oracle the pruned feed and the reusing ops are held to.
func refRun(e *Engine, job *physical.Job) (*JobStats, error) {
	seg, err := segments(job.Plan)
	if err != nil {
		return nil, err
	}
	for id := range seg.feeds {
		seg.feeds[id] = feed{}
	}
	seg.mapSide.buf, seg.redSide.buf = nil, nil
	return e.run(context.Background(), job, seg, nil)
}

// fsFiles returns every file on fs with its bytes.
func fsFiles(t testing.TB, fs *dfs.FS) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range fs.List("") {
		data, err := fs.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(data)
	}
	return out
}

func sameFiles(t testing.TB, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, reference %d", label, len(got), len(want))
	}
	for f, w := range want {
		if g, ok := got[f]; !ok || g != w {
			t.Fatalf("%s: %s differs from the reference run\ngot:\n%.300s\nwant:\n%.300s", label, f, g, w)
		}
	}
}

// TestPrunedFeedPigMix runs every PigMix query through the engine twice
// (cold, then over the cached input) and holds every byte it writes to
// the reference run with full rows.
func TestPrunedFeedPigMix(t *testing.T) {
	newFS := func() *dfs.FS {
		fs := dfs.New()
		if _, err := pigmix.Generate(fs, pigmix.TinyScale, 1); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fsP, fsR := newFS(), newFS()
	cfg := Config{Cost: cluster.DefaultCostModel()}
	cfg.SplitSize = 64 << 10 // several map tasks per input
	eng, ref := New(fsP, cfg), New(fsR, cfg)
	pruned := 0
	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range compileScript(t, q.Script) {
			seg, err := segments(job.Plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seg.feeds {
				if f.cols != nil {
					pruned++
				}
			}
			for run := 0; run < 2; run++ {
				if _, err := runJob(eng, job); err != nil {
					t.Fatalf("%s %s: %v", name, job.ID, err)
				}
				if _, err := refRun(ref, job); err != nil {
					t.Fatalf("%s %s reference: %v", name, job.ID, err)
				}
			}
		}
		sameFiles(t, name, fsFiles(t, fsP), fsFiles(t, fsR))
	}
	if pruned == 0 {
		t.Fatal("no PigMix Load got a pruned feed")
	}
}

// chooser draws small decisions from fuzz bytes, then zeros.
type chooser struct{ data []byte }

func (c *chooser) n(k int) int {
	if len(c.data) == 0 || k <= 1 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % k
}

// value draws a field: nulls, ints, floats, strings that look like
// numbers or nested values, tuples and bags.
func (c *chooser) value(depth int) tuple.Value {
	strs := []string{"a", "B", "7", "1.5", "(x", "u,v", "z)", "NaN", "{}", ""}
	switch c.n(7) {
	case 0:
		return nil
	case 1:
		return int64(c.n(9) - 3)
	case 2:
		return float64(c.n(9)) / 4
	case 3, 4:
		return strs[c.n(len(strs))]
	case 5:
		if depth > 0 {
			return tuple.Tuple{c.value(depth - 1), c.value(depth - 1)}
		}
		return "t"
	default:
		if depth > 0 {
			b := &tuple.Bag{}
			for i := c.n(3); i >= 0; i-- {
				b.Add(tuple.Tuple{c.value(depth - 1), c.value(depth - 1)})
			}
			return b
		}
		return int64(9)
	}
}

// expr draws an expression over columns 0..width (one past the widest
// row, so short rows and absent columns are read too).
func (c *chooser) expr(width, depth int) expr.Expr {
	if depth == 0 {
		if c.n(4) == 0 {
			return expr.Const{V: c.value(0)}
		}
		return col(c.n(width + 1))
	}
	sub := func() expr.Expr { return c.expr(width, depth-1) }
	switch c.n(9) {
	case 0:
		return expr.Binary{Op: expr.BinaryOp(c.n(5)), L: sub(), R: sub()}
	case 1:
		return expr.Compare{Op: expr.CmpOp(c.n(6)), L: sub(), R: sub()}
	case 2:
		return expr.Logic{Op: expr.LogicOp(c.n(2)), L: sub(), R: sub()}
	case 3:
		return expr.Not{E: sub()}
	case 4:
		return expr.Func{Name: []string{"SIZE", "LOWER", "UPPER", "ISEMPTY"}[c.n(4)], Args: []expr.Expr{sub()}}
	case 5:
		return expr.Func{Name: "CONCAT", Args: []expr.Expr{sub(), sub()}}
	case 6:
		return expr.Agg{Kind: expr.AggKind(c.n(5)), Bag: sub(), Field: c.n(3) - 1}
	case 7:
		return expr.BagField{Bag: sub(), Field: c.n(3)}
	default:
		return sub()
	}
}

// FuzzPrunedFeed builds random map segments — projections, filters,
// splits, limits, joined rows, a side Store, a GROUP or a self-join —
// over a ragged, mixed-type input with nulls and nested values, and
// holds the engine's output bytes, from pruned feeds and reused
// buffers, to the reference run with full, fresh rows.
func FuzzPrunedFeed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("projection and filter over a ragged batch"))
	f.Add([]byte{9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 254, 253, 7, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &chooser{data: data}
		const width = 6
		var in strings.Builder
		for r := 0; r < 40; r++ {
			row := make(tuple.Tuple, 1+c.n(width))
			for j := range row {
				row[j] = c.value(2)
			}
			in.WriteString(tuple.EncodeText(row))
			in.WriteByte('\n')
		}

		b := planBuilder{physical.NewPlan()}
		tip := b.load("in")
		if c.n(2) == 0 {
			tip = b.filter(tip, c.expr(width, 2))
		}
		if c.n(3) == 0 {
			tip = b.add(physical.Op{Kind: physical.KLimit, N: int64(5 + c.n(40))}, tip)
		}
		if c.n(4) == 0 { // a ForEach whose rows a Split may hand to a Store and a LocalRearrange
			tip = b.foreach(tip, col(0), col(c.n(width)), c.expr(width, 1), col(c.n(width)))
		}
		branches := []*physical.Op{tip}
		if c.n(2) == 0 {
			sp := b.add(physical.Op{Kind: physical.KSplit}, tip)
			branches = []*physical.Op{sp, b.filter(sp, c.expr(width, 1))}
		}
		shuffled := false // a job has one shuffle
		shuffle := func(in *physical.Op, key expr.Expr) bool {
			if shuffled {
				return false
			}
			if shuffled = true; c.n(2) == 0 {
				b.join(in, key)
			} else {
				b.shuffle(in, key)
			}
			return true
		}
		for i, br := range branches {
			// A Store straight after the Load copies its rows' lines and
			// reads no column; a LocalRearrange reads every column and
			// stages a copy of the row, which may be the feed's or a
			// ForEach's or JoinFlatten's rewritten buffer.
			out := fmt.Sprintf("out%d", i)
			switch c.n(7) {
			case 0:
				b.store(out, br)
				continue
			case 1:
				if shuffle(br, c.expr(width, 1)) {
					continue
				}
			case 2: // join a row's bags: JoinFlatten → Filter → Store
				jf := b.add(physical.Op{Kind: physical.KJoinFlatten, NumInputs: 2}, b.foreach(br, col(0), col(c.n(width)), col(c.n(width))))
				b.store(out, b.filter(jf, c.expr(width, 1)))
				continue
			}
			es := make([]expr.Expr, 1+c.n(3))
			for k := range es {
				es[k] = c.expr(width, c.n(3))
			}
			fe := b.foreach(br, es...)
			if c.n(3) == 0 {
				fe = b.add(physical.Op{Kind: physical.KLimit, N: int64(3 + c.n(20))}, fe)
			}
			if c.n(3) == 0 && shuffle(fe, col(0)) {
				continue
			}
			b.store(out, fe)
		}
		job := &physical.Job{ID: "fuzz", Plan: b.p, NumReducers: 2}
		if err := b.p.Validate(); err != nil {
			t.Fatal(err)
		}

		cfg := Config{Cost: cluster.DefaultCostModel()}
		cfg.SplitSize = 256
		run := func(reference bool) (map[string]string, error) {
			fs := dfs.New()
			if err := fs.WriteFile("in/part-00000", []byte(in.String())); err != nil {
				t.Fatal(err)
			}
			e := New(fs, cfg)
			for pass := 0; pass < 2; pass++ { // cold, then from the cache
				var err error
				if reference {
					_, err = refRun(e, job)
				} else {
					_, err = runJob(e, job)
				}
				if err != nil {
					return nil, err
				}
			}
			return fsFiles(t, fs), nil
		}
		got, gerr := run(false)
		want, werr := run(true)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("pruned run error %v, reference run error %v", gerr, werr)
		}
		if werr == nil {
			sameFiles(t, job.Plan.String(), got, want)
		}
	})
}

package mapreduce

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// exec interprets one segment of a physical plan in push mode: tuples
// enter at a root (Load in map tasks, Package in reduce tasks) and flow
// through successors until they hit a Store, a LocalRearrange, or get
// filtered out. A tuple is valid only during the push that delivers it:
// the feed, ForEach, JoinFlatten and Package rewrite one buffer per
// task. Whatever keeps a row copies it: a Store writes each row into
// its part file's text as it arrives, and the staging LocalRearrange
// (keyed) stages a copy.
type exec struct {
	// succ, stores, copies, slot and buf are this task's side of the
	// segmentation (see side).
	succ   [][]*physical.Op
	stores []*physical.Op
	copies []bool
	slot   []int32
	buf    []int32

	// keyed receives LocalRearrange emissions (map tasks only).
	keyed func(branch int, key tuple.Value, t tuple.Tuple)

	// suffix names this task's part files, e.g. "part-m-00003".
	suffix string

	// parts[i] is Store stores[i]'s part file, limits[i] the rows the
	// Limit in slot i has let through, and bufs[i] the output tuple of the
	// op in buffer i. all and bags are the records and bags of the
	// Package's group. exec lives in its task's scratch, and these arrays
	// outlive the task for the next one.
	parts  []part
	limits []int64
	bufs   []tuple.Tuple
	all    []tuple.Tuple
	bags   []tuple.Bag

	// batch is a map task's input and row the index in it of the row
	// being pushed.
	batch *tuple.Batch
	row   int32
}

// part is one Store's part file of a task, written as its rows arrive.
// A copying Store's rows are batch lines, and [lo, hi) is its pending
// run of consecutive ones, appended when the run breaks or at close.
type part struct {
	text   []byte
	rows   int64
	lo, hi int32
}

// newExec returns the interpreter of seg's map side, or of its reduce
// side when reduce is set: s's own, its state sized for the side's
// Stores, Limits and buffers.
func newExec(seg *segmentation, reduce bool, s *taskScratch) *exec {
	sd := &seg.mapSide
	if reduce {
		sd = &seg.redSide
	}
	x := &s.x
	x.succ, x.stores, x.copies, x.slot, x.buf = sd.succ, sd.stores, sd.copies, sd.slot, sd.buf
	x.parts = sized(x.parts, len(sd.stores))
	x.limits = sized(x.limits, sd.limits)
	clear(x.limits)
	x.bufs = sized(x.bufs, sd.nbuf)
	return x
}

// reset empties the task's part files and drops every tuple it left,
// keeping the arrays.
func (x *exec) reset() {
	for i := range x.parts {
		x.parts[i] = part{text: x.parts[i].text[:0]}
	}
	for i := range x.bufs {
		clear(x.bufs[i][:cap(x.bufs[i])])
	}
	clear(x.all)
	clear(x.bags)
	*x = exec{parts: x.parts[:0], limits: x.limits[:0], bufs: x.bufs[:0], all: x.all[:0], bags: x.bags[:0]}
}

// copying reports whether Store id keeps row indices (side.copies).
func (x *exec) copying(id int) bool { return x.copies != nil && x.copies[id] }

// out returns an n-field tuple for op id to build its output in: its
// buffer, grown to n, or a fresh tuple when the side has no buffers
// (refRun's oracle).
func (x *exec) out(id, n int) tuple.Tuple {
	if x.buf == nil {
		return make(tuple.Tuple, n)
	}
	b := &x.bufs[x.buf[id]]
	if cap(*b) < n {
		*b = make(tuple.Tuple, n)
	}
	return (*b)[:n]
}

// push delivers t to every successor of op fromID.
func (x *exec) push(fromID int, t tuple.Tuple) error {
	for _, op := range x.succ[fromID] {
		if err := x.apply(op, t); err != nil {
			return err
		}
	}
	return nil
}

func (x *exec) apply(op *physical.Op, t tuple.Tuple) error {
	switch op.Kind {
	case physical.KForEach:
		out := x.out(op.ID, len(op.Exprs))
		for i, e := range op.Exprs {
			v, err := e.Eval(t)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return x.push(op.ID, out)

	case physical.KFilter:
		ok, err := expr.EvalBool(op.Cond, t)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return x.push(op.ID, t)

	case physical.KUnion, physical.KSplit:
		return x.push(op.ID, t)

	case physical.KLimit:
		n := &x.limits[x.slot[op.ID]]
		if *n >= op.N {
			return nil
		}
		*n++
		return x.push(op.ID, t)

	case physical.KStore:
		p := &x.parts[x.slot[op.ID]]
		p.rows++
		if !x.copying(op.ID) {
			p.text = append(tuple.AppendText(p.text, t), '\n')
			return nil
		}
		if x.row != p.hi {
			p.text = x.batch.AppendRows(p.text, int(p.lo), int(p.hi))
			p.lo = x.row
		}
		p.hi = x.row + 1
		return nil

	case physical.KLocalRearrange:
		key, err := rearrangeKey(op, t)
		if err != nil {
			return err
		}
		if op.DropNull && tuple.IsNull(key) {
			return nil
		}
		if x.keyed == nil {
			return fmt.Errorf("mapreduce: LocalRearrange outside a shuffling task")
		}
		x.keyed(op.Branch, key, t)
		return nil

	case physical.KJoinFlatten:
		return x.joinFlatten(op, t)

	case physical.KPackage, physical.KShuffle:
		// Package output is produced by the framework (emitGroup); a
		// tuple should never be pushed *into* these.
		return fmt.Errorf("mapreduce: unexpected push into %s", op.Kind)

	case physical.KLoad:
		return fmt.Errorf("mapreduce: unexpected push into Load")
	}
	return fmt.Errorf("mapreduce: unhandled op kind %s", op.Kind)
}

// rearrangeKey computes the shuffle key: the single key expression's
// value, a tuple for composite keys, or the constant "all" for GROUP ALL.
func rearrangeKey(op *physical.Op, t tuple.Tuple) (tuple.Value, error) {
	if op.GroupAll {
		return "all", nil
	}
	if len(op.KeyExprs) == 1 {
		return op.KeyExprs[0].Eval(t)
	}
	key := make(tuple.Tuple, len(op.KeyExprs))
	for i, e := range op.KeyExprs {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

// joinFlatten receives a Package group tuple (key, bag0, bag1, …) and
// emits the inner-join cross product: one concatenated tuple per
// combination, fields of input 0 first.
func (x *exec) joinFlatten(op *physical.Op, t tuple.Tuple) error {
	n := op.NumInputs
	if len(t) != n+1 {
		return fmt.Errorf("mapreduce: JoinFlatten got %d fields, want %d", len(t), n+1)
	}
	var bagsArr [8]*tuple.Bag
	var idxArr [8]int
	bags, idx := bagsArr[:0], idxArr[:0]
	for i := 0; i < n; i++ {
		b, ok := t[1+i].(*tuple.Bag)
		if !ok || b.Len() == 0 {
			return nil // inner join: a missing side produces nothing
		}
		bags, idx = append(bags, b), append(idx, 0)
	}
	for {
		width := 0
		for i := 0; i < n; i++ {
			width += len(bags[i].Tuples[idx[i]])
		}
		out := x.out(op.ID, width)
		w := 0
		for i := 0; i < n; i++ {
			w += copy(out[w:], bags[i].Tuples[idx[i]])
		}
		if err := x.push(op.ID, out); err != nil {
			return err
		}
		// Advance the odometer.
		k := n - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < bags[k].Len() {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// close writes every Store's part file to the DFS in Store-ID order
// (one per task per Store, created even when empty, as Hadoop does: an
// empty part still pays the setup cost) with one Write each, and
// accumulates output statistics scaled to simulated bytes. A copying
// Store's pending run of lines is appended first.
func (x *exec) close(fs dfs.Backend, simScale float64, outStats map[string]OutputStat) error {
	for i, op := range x.stores {
		p := &x.parts[i]
		if p.hi > p.lo {
			p.text = x.batch.AppendRows(p.text, int(p.lo), int(p.hi))
			p.lo = p.hi
		}
		f := fs.Create(op.Path + "/" + x.suffix)
		if _, err := f.Write(p.text); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		cur := outStats[op.Path]
		cur.SimBytes += int64(float64(len(p.text)) * simScale)
		cur.Records += int64(float64(p.rows) * simScale)
		outStats[op.Path] = cur
	}
	return nil
}

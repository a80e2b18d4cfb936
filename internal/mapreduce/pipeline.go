package mapreduce

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// exec interprets one segment of a physical plan in push mode: tuples
// enter at a root (Load in map tasks, Package in reduce tasks) and flow
// through successors until they hit a Store, a LocalRearrange, or get
// filtered out.
type exec struct {
	// succ[id] are op id's successors on this task's side of the
	// segmentation, and stores its Store ops in ID order.
	succ   [][]*physical.Op
	stores []*physical.Op
	copies []bool

	// keyed receives LocalRearrange emissions (map tasks only).
	keyed func(branch int, key tuple.Value, t tuple.Tuple)

	// suffix names this task's part files, e.g. "part-m-00003".
	suffix string

	// rows[id] are the rows Store id writes, lines[id] the indices in
	// batch of the rows copying Store id writes, and limits[id] the rows
	// Limit id has let through, all in the task's scratch.
	rows   [][]tuple.Tuple
	lines  [][]int32
	limits []int64

	// batch is a map task's input and row the index in it of the row
	// being pushed.
	batch *tuple.Batch
	row   int32

	// encode is the wall-clock close spent encoding part files and
	// writing them to the DFS, for JobStats.
	encode time.Duration
}

// copying reports whether Store id keeps row indices (side.copies).
func (x *exec) copying(id int) bool { return x.copies != nil && x.copies[id] }

// newExec returns the interpreter of seg's map side, or of its reduce
// side when reduce is set: s's own, with its per-op state in s.
func newExec(seg *segmentation, reduce bool, s *taskScratch) *exec {
	sd := seg.mapSide
	if reduce {
		sd = seg.redSide
	}
	n := len(sd.succ) // one entry per op ID
	s.rows = sized(s.rows, n)
	s.lines = sized(s.lines, n)
	s.limits = sized(s.limits, n)
	clear(s.limits)
	s.x = exec{succ: sd.succ, stores: sd.stores, copies: sd.copies, rows: s.rows, lines: s.lines, limits: s.limits}
	return &s.x
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
		out := make(tuple.Tuple, len(op.Exprs))
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
		if x.limits[op.ID] >= op.N {
			return nil
		}
		x.limits[op.ID]++
		return x.push(op.ID, t)

	case physical.KStore:
		if x.copying(op.ID) {
			x.lines[op.ID] = append(x.lines[op.ID], x.row)
			return nil
		}
		x.rows[op.ID] = append(x.rows[op.ID], t)
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
	bags := make([]*tuple.Bag, n)
	for i := 0; i < n; i++ {
		b, ok := t[1+i].(*tuple.Bag)
		if !ok || b.Len() == 0 {
			return nil // inner join: a missing side produces nothing
		}
		bags[i] = b
	}
	idx := make([]int, n)
	for {
		width := 0
		for i := 0; i < n; i++ {
			width += len(bags[i].Tuples[idx[i]])
		}
		out := make(tuple.Tuple, 0, width)
		for i := 0; i < n; i++ {
			out = append(out, bags[i].Tuples[idx[i]]...)
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

// close flushes every Store's rows to the DFS in Store-ID order (one
// part file per task per Store, created even when empty, as Hadoop
// does: an empty part still pays the setup cost) and accumulates output
// statistics scaled to simulated bytes. A copying Store's part file is
// its rows' lines of the batch, copied where the batch's text has them
// as AppendText writes them.
func (x *exec) close(fs dfs.Backend, simScale float64, outStats map[string]OutputStat) error {
	bp := partBufs.Get().(*[]byte)
	buf := *bp
	for _, op := range x.stores {
		start := time.Now()
		buf = buf[:0]
		var n int // rows written
		if x.copying(op.ID) {
			n = len(x.lines[op.ID])
			buf = x.batch.AppendRows(buf, x.lines[op.ID])
		} else {
			n = len(x.rows[op.ID])
			for _, t := range x.rows[op.ID] {
				buf = append(tuple.AppendText(buf, t), '\n')
			}
		}
		f := fs.Create(op.Path + "/" + x.suffix)
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		x.encode += time.Since(start)
		cur := outStats[op.Path]
		cur.SimBytes += int64(float64(len(buf)) * simScale)
		cur.Records += int64(float64(n) * simScale)
		outStats[op.Path] = cur
	}
	*bp = buf
	partBufs.Put(bp)
	return nil
}

// partBufs recycles close's encode buffers across tasks: a part's bytes
// are dead once the DFS writer has copied them, and growing a fresh
// buffer per part was 5 % of cold-store's CPU.
var partBufs = sync.Pool{New: func() any { return new([]byte) }}

package mapreduce

import (
	"math/bits"

	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// Pig's combiners: when the statement after a GROUP only applies
// algebraic aggregates (COUNT/SUM/AVG/MIN/MAX), map tasks pre-aggregate
// each key into partial states, the shuffle carries one record per key
// per task, and reducers merge partials instead of materializing bags.
// A DISTINCT takes the same map-side path with no aggregates: each task
// ships every distinct key once. A partial state is an expr.AggState,
// the state expr.Agg.Eval folds a whole bag through, so the combined
// row and the uncombined one answer by one set of aggregate rules (a
// float SUM or AVG may still round apart: AggState.Merge).
//
// The algebraic combiner is disabled whenever the Package output has
// any consumer other than that single ForEach — in particular when
// ReStore injects a Store to materialize the Group's output, the raw
// bags must be shipped and written, which is exactly the overhead the
// paper observes on L6.
//
// A map task numbers its distinct keys in a keyIndex, by key hash and
// tuple.Equal — the identity the reducer's groupByKey groups by — and
// keeps every key's partial states in one slice, both in its scratch.
// Draining copies the states out once; each shuffle record points at
// its key's (rec.states): nothing is rendered to strings or boxed into
// tuples on the way to the reducer, which folds them with
// AggState.Merge.

// combineSpec describes a combinable GROUP job.
type combineSpec struct {
	feID int
	// exprs are the ForEach's output expressions: Col(0) (the group) or
	// Agg over the bag column; aggs are its aggregates in order, one
	// partial state each.
	exprs []expr.Expr
	aggs  []expr.Agg
}

// detectCombine returns a spec when the job is combinable: the Package
// feeds only its ForEach, and physical.AlgebraicGroup accepts the pair.
func detectCombine(p *physical.Plan, succ map[int][]int, pkg *physical.Op) *combineSpec {
	consumers := succ[pkg.ID]
	if len(consumers) != 1 {
		return nil // an injected Store needs the raw bags
	}
	fe := p.Op(consumers[0])
	if !physical.AlgebraicGroup(pkg, fe) {
		return nil
	}
	spec := &combineSpec{feID: fe.ID, exprs: fe.Exprs}
	for _, e := range fe.Exprs {
		if a, ok := e.(expr.Agg); ok {
			spec.aggs = append(spec.aggs, a)
		}
	}
	return spec
}

// partialBytes is a shuffled record's volume: its states' renderings
// joined by tabs, plus the key's text and two bytes of framing — what
// the shuffle would carry for the key and partial as one text line.
func partialBytes(key tuple.Value, states []expr.AggState) int32 {
	n := tuple.TextLen(key) + 2
	for i := range states {
		if i > 0 {
			n++
		}
		n += states[i].TextLen()
	}
	return int32(n)
}

// keyIndex numbers the distinct keys of one map task in first-seen
// order. slots is an open-addressing table over the keys' hashes whose
// entries hold a key number + 1 (0 is empty); keys with equal hashes
// are told apart by tuple.Equal.
type keyIndex struct {
	slots  []int32
	shift  uint
	keys   []tuple.Value
	hashes []uint64
}

// add returns the number of key and whether key is new.
func (x *keyIndex) add(key tuple.Value) (int, bool) {
	h := tuple.Hash(key)
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	for slot := x.slot(h); ; slot = (slot + 1) & mask {
		g := x.slots[slot]
		if g == 0 {
			x.keys = append(x.keys, key)
			x.hashes = append(x.hashes, h)
			x.slots[slot] = int32(len(x.keys))
			return len(x.keys) - 1, true
		}
		if x.hashes[g-1] == h && tuple.Equal(x.keys[g-1], key) {
			return int(g - 1), false
		}
	}
}

// slot is h's home slot, from the top bits of a multiplied hash.
func (x *keyIndex) slot(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> x.shift }

// reset empties the index, keeping its arrays.
func (x *keyIndex) reset() {
	clear(x.keys)
	x.keys = x.keys[:0]
	x.hashes = x.hashes[:0]
	clear(x.slots)
}

// grow doubles the table (16 slots to start) and re-slots every key.
func (x *keyIndex) grow() {
	size := max(16, 2*len(x.slots))
	x.slots = make([]int32, size)
	x.shift = 64 - uint(bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for i, h := range x.hashes {
		slot := x.slot(h)
		for x.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		x.slots[slot] = int32(i + 1)
	}
}

// combine folds one map-side row into its key's partial states, one
// per aggregate (none for a DISTINCT), numbering the task's keys in s.
func (s *taskScratch) combine(aggs []expr.Agg, key tuple.Value, t tuple.Tuple) {
	i, added := s.keys.add(key)
	k := len(aggs)
	if added {
		s.states = append(s.states, make([]expr.AggState, k)...)
	}
	st := s.states[i*k : (i+1)*k]
	for j, a := range aggs {
		st[j].Add(a, t)
	}
}

// drainCombined returns the task's combined shuffle output: for each
// partition, one record per distinct key in first-seen order, holding
// the first arrival of the key and its k states. The states are copied
// out of the scratch into one array the records share. The order within
// a partition is free: each key has one record per task, and groupByKey
// orders the reducer's input by key.
func (s *taskScratch) drainCombined(k, numRed int) [][]rec {
	n := len(s.keys.keys)
	var states []expr.AggState
	var heads [][]expr.AggState // what each record points at
	if k > 0 {
		states = append(make([]expr.AggState, 0, n*k), s.states...)
		heads = make([][]expr.AggState, n)
	}
	for i, key := range s.keys.keys {
		st := states[i*k : (i+1)*k : (i+1)*k]
		r := rec{key: key, hash: s.keys.hashes[i], bytes: partialBytes(key, st)}
		if k > 0 {
			heads[i] = st
			r.states = &heads[i]
		}
		s.staged = append(s.staged, r)
	}
	return s.partition(numRed)
}

// row merges one key group's partial records into acc, len(aggs)
// states reused across a reducer's groups, and writes the ForEach's
// output row into row, len(exprs) fields.
func (c *combineSpec) row(group []rec, acc []expr.AggState, row tuple.Tuple) {
	clear(acc)
	for g := range group {
		st := *group[g].states
		for j := range acc {
			acc[j].Merge(&st[j])
		}
	}
	j := 0
	for i, e := range c.exprs {
		switch x := e.(type) {
		case expr.Col:
			row[i] = group[0].key
		case expr.Agg:
			row[i] = acc[j].Result(x.Kind)
			j++
		}
	}
}

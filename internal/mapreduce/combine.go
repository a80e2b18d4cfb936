package mapreduce

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// Pig's combiner: when the statement after a GROUP only applies
// algebraic aggregates (COUNT/SUM/AVG/MIN/MAX), map tasks pre-aggregate
// each key into a partial state, the shuffle carries one record per key
// per task, and reducers merge partials instead of materializing bags.
//
// The combiner is disabled whenever the Package output has any consumer
// other than that single ForEach — in particular when ReStore injects a
// Store to materialize the Group's output, the raw bags must be shipped
// and written, which is exactly the overhead the paper observes on L6.

// combineSpec describes a combinable job.
type combineSpec struct {
	pkgID int
	feID  int
	// exprs are the ForEach's output expressions: Col(0) (the group) or
	// Agg over the bag column.
	exprs []expr.Expr
}

// detectCombine inspects the reduce segment and returns a spec when the
// job is combinable.
func detectCombine(p *physical.Plan, succ map[int][]int, pkg *physical.Op) *combineSpec {
	if pkg == nil || pkg.Mode != physical.PkgGroup || pkg.NumInputs != 1 {
		return nil
	}
	consumers := succ[pkg.ID]
	if len(consumers) != 1 {
		return nil
	}
	fe := p.Op(consumers[0])
	if fe.Kind != physical.KForEach {
		return nil
	}
	for _, e := range fe.Exprs {
		switch x := e.(type) {
		case expr.Col:
			if x.Index != 0 {
				return nil // only the group key passes through
			}
		case expr.Agg:
			bag, ok := x.Bag.(expr.Col)
			if !ok || bag.Index != 1 {
				return nil
			}
		default:
			return nil
		}
	}
	return &combineSpec{pkgID: pkg.ID, feID: fe.ID, exprs: fe.Exprs}
}

// aggState is the partial state of one aggregate.
type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	allInt bool
	minV   tuple.Value
	maxV   tuple.Value
}

func newAggState() *aggState { return &aggState{allInt: true} }

// accumulate folds one raw (pre-package) tuple into the state.
func (s *aggState) accumulate(a expr.Agg, t tuple.Tuple) {
	if a.Field < 0 {
		// COUNT(bag): counts tuples.
		s.count++
		return
	}
	var v tuple.Value
	if a.Field < len(t) {
		v = t[a.Field]
	}
	if tuple.IsNull(v) {
		return
	}
	switch a.Kind {
	case expr.AggCount:
		s.count++
	case expr.AggSum, expr.AggAvg:
		f, ok := tuple.ToFloat(v)
		if !ok {
			return
		}
		s.count++
		s.sumF += f
		if i, isInt := v.(int64); isInt {
			s.sumI += i
		} else {
			s.allInt = false
		}
	case expr.AggMin:
		if s.minV == nil || tuple.Compare(v, s.minV) < 0 {
			s.minV = v
		}
	case expr.AggMax:
		if s.maxV == nil || tuple.Compare(v, s.maxV) > 0 {
			s.maxV = v
		}
	}
}

// encode renders the state as a tuple for the shuffle.
func (s *aggState) encode() tuple.Tuple {
	allInt := int64(0)
	if s.allInt {
		allInt = 1
	}
	return tuple.Tuple{s.count, s.sumI, s.sumF, allInt, s.minV, s.maxV}
}

// mergeEncoded folds a shuffled partial into the state.
func (s *aggState) mergeEncoded(t tuple.Tuple) error {
	if len(t) != 6 {
		return fmt.Errorf("mapreduce: bad combiner partial %v", t)
	}
	cnt, _ := tuple.ToInt(t[0])
	sumI, _ := tuple.ToInt(t[1])
	var sumF float64
	if f, ok := tuple.ToFloat(t[2]); ok {
		sumF = f
	}
	allInt, _ := tuple.ToInt(t[3])
	s.count += cnt
	s.sumI += sumI
	s.sumF += sumF
	if allInt == 0 {
		s.allInt = false
	}
	if t[4] != nil && (s.minV == nil || tuple.Compare(t[4], s.minV) < 0) {
		s.minV = t[4]
	}
	if t[5] != nil && (s.maxV == nil || tuple.Compare(t[5], s.maxV) > 0) {
		s.maxV = t[5]
	}
	return nil
}

// final produces the aggregate's value.
func (s *aggState) final(kind expr.AggKind) tuple.Value {
	switch kind {
	case expr.AggCount:
		return s.count
	case expr.AggSum:
		if s.count == 0 {
			return nil
		}
		if s.allInt {
			return s.sumI
		}
		return s.sumF
	case expr.AggAvg:
		if s.count == 0 {
			return nil
		}
		return s.sumF / float64(s.count)
	case expr.AggMin:
		return s.minV
	case expr.AggMax:
		return s.maxV
	}
	return nil
}

// partialKey groups partial states per key within a map task; hash is
// tuple.Hash(key), computed once for its partition and carried on the
// shuffled record.
type partialKey struct {
	key    tuple.Value
	hash   uint64
	states []*aggState
}

// combineAccumulator builds per-partition partial aggregates in a map
// task.
type combineAccumulator struct {
	spec  *combineSpec
	parts []map[string]*partialKey
}

func newCombineAccumulator(spec *combineSpec, numRed int) *combineAccumulator {
	parts := make([]map[string]*partialKey, numRed)
	for i := range parts {
		parts[i] = map[string]*partialKey{}
	}
	return &combineAccumulator{spec: spec, parts: parts}
}

func (c *combineAccumulator) add(key tuple.Value, t tuple.Tuple) {
	h := tuple.Hash(key)
	p := partitionOf(h, len(c.parts))
	ks := tuple.ToString(key)
	pk := c.parts[p][ks]
	if pk == nil {
		pk = &partialKey{key: key, hash: h}
		for _, e := range c.spec.exprs {
			if _, isAgg := e.(expr.Agg); isAgg {
				pk.states = append(pk.states, newAggState())
			}
		}
		c.parts[p][ks] = pk
	}
	si := 0
	for _, e := range c.spec.exprs {
		if a, isAgg := e.(expr.Agg); isAgg {
			pk.states[si].accumulate(a, t)
			si++
		}
	}
}

// drain converts the accumulated partials into shuffle records.
func (c *combineAccumulator) drain() [][]rec {
	out := make([][]rec, len(c.parts))
	for p, m := range c.parts {
		// Deterministic order: sort keys. Keys Compare equates but that
		// print apart ("0" and "-0") are separate partials here and meet
		// in one reduce group.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, ks := range keys {
			pk := m[ks]
			t := make(tuple.Tuple, 0, len(pk.states))
			for _, st := range pk.states {
				t = append(t, st.encode())
			}
			n := int64(tuple.EncodeTextLen(t) + len(ks) + 2)
			out[p] = append(out[p], rec{key: pk.key, hash: pk.hash, t: t, bytes: n})
		}
	}
	return out
}

// mergeCombined merges one key's partial records and emits the final
// ForEach output row downstream.
func mergeCombined(px *exec, spec *combineSpec, group []rec) error {
	var states []*aggState
	for _, e := range spec.exprs {
		if _, isAgg := e.(expr.Agg); isAgg {
			states = append(states, newAggState())
		}
	}
	for _, r := range group {
		si := 0
		for i := range spec.exprs {
			if _, isAgg := spec.exprs[i].(expr.Agg); !isAgg {
				continue
			}
			if si < len(r.t) {
				part, ok := r.t[si].(tuple.Tuple)
				if !ok {
					return fmt.Errorf("mapreduce: combiner partial field %d is %T", si, r.t[si])
				}
				if err := states[si].mergeEncoded(part); err != nil {
					return err
				}
			}
			si++
		}
	}
	row := make(tuple.Tuple, len(spec.exprs))
	si := 0
	for i, e := range spec.exprs {
		switch x := e.(type) {
		case expr.Col:
			row[i] = group[0].key
		case expr.Agg:
			row[i] = states[si].final(x.Kind)
			si++
		}
	}
	return px.push(spec.feID, row)
}

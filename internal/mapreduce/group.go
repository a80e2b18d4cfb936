package mapreduce

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/tuple"
)

// keyRun is one (key, branch) run of a reducer's input: the key and hash
// of its first record, that record's branch, the run's rank in arrival
// order (id) and its record count.
type keyRun struct {
	key    tuple.Value
	hash   uint64
	branch int32
	id     int32
	n      int32
}

// groupByKey orders one reducer's input, parts[m] from map task m, the
// way a stable sort of the concatenated parts by (key under desc, branch)
// would — equal keys in arrival order within a branch — and returns the
// records with starts[g], the index of key group g's first record. It
// never sorts the records:
//
//  1. each record is hashed into its (key, branch) run through an
//     open-addressing table, matching on the hash the map task carried
//     and on tuple.Equal, which is compareKeys(a, b, desc) == 0 for every
//     desc;
//  2. only the runs are sorted, by (key, branch), and adjacent runs with
//     unequal keys start a key group;
//  3. the records are scattered into one slice in arrival order.
//
// n records holding d distinct keys cost O(n) probes and O(d log d) key
// compares. Grouping by hash is exact because Compare(a, b) == 0 implies
// Hash(a) == Hash(b) (see tuple.Hash). The table, the runs and the
// returned records and starts are s's: they live until s is reset.
func (s *taskScratch) groupByKey(parts [][]rec, desc []bool) ([]rec, []int) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil, nil
	}
	// Slots hold a run index + 1 (0 is empty). The table is a power of
	// two of at least 2n slots, indexed by the top bits of a multiplied
	// hash: the low bits are no use, since every record in this
	// partition has the same hash mod the reducer count.
	logSize := bits.Len(uint(2*n - 1))
	table := sized(s.table, 1<<logSize)
	clear(table)
	mask, shift := uint64(len(table)-1), 64-logSize
	runOf := sized(s.runOf, n)
	runs := s.runs[:0]
	i := 0
	for _, p := range parts {
		for k := range p {
			r := &p[k]
			slot := (r.hash * 0x9e3779b97f4a7c15) >> shift
			for {
				g := table[slot]
				if g == 0 {
					runs = append(runs, keyRun{key: r.key, hash: r.hash, branch: r.branch, id: int32(len(runs)), n: 1})
					table[slot] = int32(len(runs))
					runOf[i] = int32(len(runs) - 1)
					break
				}
				run := &runs[g-1]
				if run.hash == r.hash && run.branch == r.branch && tuple.Equal(run.key, r.key) {
					run.n++
					runOf[i] = g - 1
					break
				}
				slot = (slot + 1) & mask
			}
			i++
		}
	}

	// No two runs share both key and branch, so (key, branch) orders
	// them strictly and an unstable sort is deterministic.
	slices.SortFunc(runs, func(a, b keyRun) int {
		if c := compareKeys(a.key, b.key, desc); c != 0 {
			return c
		}
		return cmp.Compare(a.branch, b.branch)
	})
	next := sized(s.next, len(runs)) // by run id: where its next record goes
	starts := s.starts[:0]
	var pos int32
	for k := range runs {
		run := &runs[k]
		if k == 0 || run.hash != runs[k-1].hash || !tuple.Equal(run.key, runs[k-1].key) {
			starts = append(starts, int(pos))
		}
		next[run.id] = pos
		pos += run.n
	}

	recs := sized(s.recs, n)
	i = 0
	for _, p := range parts {
		for k := range p {
			g := runOf[i]
			recs[next[g]] = p[k]
			next[g]++
			i++
		}
	}
	s.table, s.runOf, s.runs, s.next, s.starts, s.recs = table, runOf, runs, next, starts, recs
	return recs, starts
}

// compareKeys orders shuffle keys: by tuple.Compare, or for an ORDER BY
// (desc non-empty) per component of a composite key, each component
// reversed where desc says so. It returns 0 exactly when
// tuple.Equal(a, b).
func compareKeys(a, b tuple.Value, desc []bool) int {
	if len(desc) == 0 {
		return tuple.Compare(a, b)
	}
	// Composite ORDER BY keys compare per component with direction.
	at, aok := a.(tuple.Tuple)
	bt, bok := b.(tuple.Tuple)
	if !aok || !bok {
		c := tuple.Compare(a, b)
		if len(desc) > 0 && desc[0] {
			return -c
		}
		return c
	}
	for i := range at {
		if i >= len(bt) {
			return 1
		}
		c := tuple.Compare(at[i], bt[i])
		if c != 0 {
			if i < len(desc) && desc[i] {
				return -c
			}
			return c
		}
	}
	if len(at) < len(bt) {
		return -1
	}
	return 0
}

package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

// refReduceOrder is the reducer's order before groupByKey: concatenate
// the map tasks' partitions, stable-sort the records by (key under desc,
// branch) and start a key group wherever adjacent keys differ. It is the
// oracle for groupByKey and the baseline of BenchmarkReduceGroup.
func refReduceOrder(parts [][]rec, desc []bool) ([]rec, []int) {
	var recs []rec
	for _, p := range parts {
		recs = append(recs, p...)
	}
	slices.SortStableFunc(recs, func(a, b rec) int {
		if c := compareKeys(a.key, b.key, desc); c != 0 {
			return c
		}
		return cmp.Compare(a.branch, b.branch)
	})
	var starts []int
	for i := 0; i < len(recs); {
		starts = append(starts, i)
		j := i
		for j < len(recs) && compareKeys(recs[j].key, recs[i].key, desc) == 0 {
			j++
		}
		i = j
	}
	return recs, starts
}

// shuffleScalars are the key values where grouping is easiest to get
// wrong: the numbers Compare equates across bit patterns (0, 0.0 and
// -0.0; two NaN payloads; 2^53 and 2^53+1, which share a float64 image),
// the infinities, null, strings and a bag.
func shuffleScalars() []tuple.Value {
	negZero := math.Copysign(0, -1)
	return []tuple.Value{
		nil, int64(0), 0.0, negZero, math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), int64(1 << 53), int64(1<<53 + 1), float64(1 << 53),
		float64(1<<53) + 2, int64(-1), 2.5, "", "0", "a", "b",
		&tuple.Bag{Tuples: []tuple.Tuple{{negZero}}}, &tuple.Bag{Tuples: []tuple.Tuple{{int64(0)}}},
	}
}

// shuffleDescs are the Package.Desc vectors a reducer sees: none (GROUP,
// COGROUP, DISTINCT) and ORDER BY on one to three columns.
var shuffleDescs = [][]bool{nil, {false}, {true}, {true, false}, {false, true}, {true, true, false}}

// shuffleInput builds one reducer's input from the choices choose makes
// (each in [0, n)): up to four map partitions, up to three branches, a
// desc vector, and records whose keys are a shuffleScalars value or a
// composite key of one to three of them, hashed as a map task would.
// Each record's bytes field is its arrival index: its identity when two
// orders are compared.
func shuffleInput(choose func(n int) int) ([][]rec, []bool) {
	scalars := shuffleScalars()
	desc := shuffleDescs[choose(len(shuffleDescs))]
	parts := make([][]rec, 1+choose(4))
	branches := 1 + choose(3)
	n := choose(256)
	for i := 0; i < n; i++ {
		var key tuple.Value
		if choose(2) == 0 {
			key = scalars[choose(len(scalars))]
		} else {
			kt := make(tuple.Tuple, 1+choose(3))
			for j := range kt {
				kt[j] = scalars[choose(len(scalars))]
			}
			key = kt
		}
		p := choose(len(parts))
		parts[p] = append(parts[p], rec{key: key, hash: tuple.Hash(key), branch: int32(choose(branches)), bytes: int32(i)})
	}
	return parts, desc
}

// checkGroupByKey requires groupByKey to produce refReduceOrder's record
// order, compared by record identity, and its group starts, on a
// scratch that last grouped another input (half of this one).
func checkGroupByKey(t *testing.T, parts [][]rec, desc []bool) {
	t.Helper()
	want, wantStarts := refReduceOrder(parts, desc)
	s := new(taskScratch)
	s.groupByKey(parts[len(parts)/2:], desc)
	s.reset()
	got, gotStarts := s.groupByKey(parts, desc)
	if len(got) != len(want) {
		t.Fatalf("groupByKey returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].bytes != want[i].bytes {
			t.Fatalf("desc %v: record %d is #%d (key %v, branch %d), want #%d (key %v, branch %d)",
				desc, i, got[i].bytes, got[i].key, got[i].branch, want[i].bytes, want[i].key, want[i].branch)
		}
	}
	if !slices.Equal(gotStarts, wantStarts) {
		t.Fatalf("desc %v: group starts %v, want %v", desc, gotStarts, wantStarts)
	}
}

// TestGroupByKeyMatchesStableSort holds groupByKey to the stable sort
// and adjacent-key walk it replaced, over random reducer inputs.
func TestGroupByKeyMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		parts, desc := shuffleInput(r.Intn)
		checkGroupByKey(t, parts, desc)
	}
}

// FuzzGroupByKey is TestGroupByKeyMatchesStableSort with the input's
// choices read from the fuzzer's bytes (zeros once they run out).
func FuzzGroupByKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 2, 40, 0, 1, 0, 1, 0, 0, 3, 2, 0, 2, 1, 1, 4, 3, 0, 0, 5, 1, 1})
	f.Add([]byte{5, 3, 1, 90, 1, 2, 3, 4, 5, 0, 1, 1, 6, 7, 8, 2, 0, 0, 9, 10, 1, 1, 3, 1, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, desc := shuffleInput(func(n int) int {
			if len(data) == 0 {
				return 0
			}
			c := int(data[0]) % n
			data = data[1:]
			return c
		})
		checkGroupByKey(t, parts, desc)
	})
}

// TestGroupNegativeZeroIsOneGroup groups on a computed key that is the
// int 0 for some rows and -0.0 for others. Compare equates the two, so
// they are one group at every reducer count: the key must pick one
// reducer on every map task and form one group there, through the
// combiner and through DISTINCT.
func TestGroupNegativeZeroIsOneGroup(t *testing.T) {
	cases := []struct {
		name, tail string
		want       tuple.Tuple
	}{
		{"group-combined", `G = group B by k parallel %d;
C = foreach G generate group, COUNT(B);`, tuple.Tuple{int64(0), int64(4)}},
		{"distinct", `C = distinct B parallel %d;`, tuple.Tuple{int64(0)}},
	}
	for _, tc := range cases {
		for p := 2; p <= 8; p++ {
			t.Run(fmt.Sprintf("%s/parallel-%d", tc.name, p), func(t *testing.T) {
				fs := dfs.New()
				writeDataset(t, fs, "xy",
					tuple.Tuple{int64(3), int64(0)},
					tuple.Tuple{-2.5, int64(0)},
					tuple.Tuple{int64(4), int64(0)},
					tuple.Tuple{-1.5, int64(0)},
				)
				runScript(t, fs, `
A = load 'xy' as (x, y);
B = foreach A generate x * y as k;
`+fmt.Sprintf(tc.tail, p)+`
store C into 'out';
`)
				wantRows(t, fs, "out", tc.want)
			})
		}
	}
}

// BenchmarkReduceGroup times one reducer's grouping of its input, 8 map
// partitions of 300 records, under the stable sort it replaced
// (stable-sort, which also concatenates the partitions) and under
// groupByKey (group-by-hash), for three shapes: string keys repeated
// about three times (a combined or bag GROUP, a DISTINCT), composite
// ORDER BY keys, and a two-branch COGROUP.
func BenchmarkReduceGroup(b *testing.B) {
	const maps, perMap = 8, 300
	const n = maps * perMap
	userKey := func(i int) tuple.Value { return fmt.Sprintf("user%05d", i) }
	shapes := []struct {
		name     string
		desc     []bool
		branches int
		key      func(i int) tuple.Value
	}{
		{"strings", nil, 1, userKey},
		{"composite", []bool{false, true}, 1, func(i int) tuple.Value {
			return tuple.Tuple{fmt.Sprintf("q%03d", i%97), int64(i)}
		}},
		{"cogroup", nil, 2, userKey},
	}
	s := new(taskScratch) // one slot's scratch, reset after each grouping
	impls := []struct {
		name string
		fn   func([][]rec, []bool) ([]rec, []int)
	}{
		{"stable-sort", refReduceOrder},
		{"group-by-hash", func(parts [][]rec, desc []bool) ([]rec, []int) {
			defer s.reset()
			return s.groupByKey(parts, desc)
		}},
	}
	for _, sh := range shapes {
		r := rand.New(rand.NewSource(1))
		parts := make([][]rec, maps)
		for m := range parts {
			for i := 0; i < perMap; i++ {
				key := sh.key(r.Intn(n / 3))
				parts[m] = append(parts[m], rec{key: key, hash: tuple.Hash(key), branch: int32(r.Intn(sh.branches)), bytes: 1})
			}
		}
		for _, im := range impls {
			b.Run(sh.name+"/"+im.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					im.fn(parts, sh.desc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
			})
		}
	}
}

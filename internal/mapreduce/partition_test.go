package mapreduce

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/tuple"
)

// TestPartitionIsHashOfKey states the shuffle's partition contract: a
// record's reducer is tuple.Hash(key) mod R, whatever ran before. For a
// combined GROUP, a bag-valued GROUP and a DISTINCT, all PARALLEL 4 and
// fed by several map tasks, every row of part-r-0000i must carry a key
// that hashes to i, and a cold run, a warm run over the cached input and
// a run with the cache off must write byte-identical part files. A
// partition-wise merge of a stored output with a delta relies on this.
func TestPartitionIsHashOfKey(t *testing.T) {
	const parallel = 4
	groupKey := func(row tuple.Tuple) tuple.Value { return row[0] }
	cases := []struct {
		name    string
		script  string
		combine bool
		key     func(row tuple.Tuple) tuple.Value
	}{
		{"group-combined", `
A = load 'in' as (user, amount);
B = group A by user parallel 4;
C = foreach B generate group, COUNT(A), SUM(A.amount);
store C into 'out';
`, true, groupKey},
		{"group-bags", `
A = load 'in' as (user, amount);
B = group A by user parallel 4;
C = foreach B generate group, A;
store C into 'out';
`, false, groupKey},
		{"distinct", `
A = load 'in' as (user, amount);
D = distinct A parallel 4;
store D into 'out';
`, false, func(row tuple.Tuple) tuple.Value { return row }},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := compileScript(t, tc.script)
			if len(jobs) != 1 {
				t.Fatalf("want 1 job, got %d", len(jobs))
			}
			job := jobs[0]
			seg, err := segments(job.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := seg.combine != nil; got != tc.combine {
				t.Fatalf("combiner used = %v, want %v", got, tc.combine)
			}

			newEngine := func(cacheBytes int64) (*Engine, *dfs.FS) {
				fs := dfs.New()
				var data []byte
				for i := 0; i < 400; i++ {
					data = append(data, fmt.Sprintf("user%d\t%d\n", i%37, i%5)...)
				}
				if err := fs.WriteFile("in/part-00000", data); err != nil {
					t.Fatal(err)
				}
				cfg := Config{Cost: cluster.DefaultCostModel()}
				cfg.SplitSize = 512 // several map tasks feed every reducer
				cfg.MaxCachedBatchBytes = cacheBytes
				return New(fs, cfg), fs
			}
			run := func(eng *Engine, fs *dfs.FS) map[string]string {
				st, err := runJob(eng, job)
				if err != nil {
					t.Fatal(err)
				}
				if st.MapTasks < 2 || st.RedTasks != parallel {
					t.Fatalf("ran %d map and %d reduce tasks, want >= 2 and %d", st.MapTasks, st.RedTasks, parallel)
				}
				files := map[string]string{}
				for _, f := range fs.List("out") {
					data, err := fs.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					files[f] = string(data)
				}
				return files
			}

			eng, fs := newEngine(0)
			cold := run(eng, fs)
			hits := eng.CacheStats().Hits
			warm := run(eng, fs)
			if eng.CacheStats().Hits <= hits {
				t.Fatalf("warm run missed the cache: %+v", eng.CacheStats())
			}
			off := run(newEngine(-1))

			for i := 0; i < parallel; i++ {
				name := fmt.Sprintf("out/part-r-%05d", i)
				data, ok := cold[name]
				if !ok {
					t.Fatalf("no %s in %v", name, cold)
				}
				rows, err := readAll([]byte(data))
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 {
					t.Fatalf("%s is empty: the input should reach every reducer", name)
				}
				for _, row := range rows {
					k := tc.key(row)
					if p := tuple.Hash(k) % parallel; p != uint64(i) {
						t.Fatalf("%s holds key %v, which hashes to partition %d", name, k, p)
					}
				}
			}
			for label, got := range map[string]map[string]string{"warm": warm, "cache-off": off} {
				if len(got) != len(cold) {
					t.Fatalf("%s run wrote %d part files, cold run %d", label, len(got), len(cold))
				}
				for name, want := range cold {
					if got[name] != want {
						t.Fatalf("%s run's %s differs from the cold run's", label, name)
					}
				}
			}
		})
	}
}

package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// writeDataset stores rows as one part file under path.
func writeDataset(t *testing.T, fs *dfs.FS, path string, rows ...tuple.Tuple) {
	t.Helper()
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(tuple.EncodeText(r))
		b.WriteByte('\n')
	}
	if err := fs.WriteFile(path+"/part-00000", []byte(b.String())); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

// runJob executes one job with no cancellation and no progress observer.
func runJob(eng *Engine, job *physical.Job) (*JobStats, error) {
	return eng.Run(context.Background(), job, nil)
}

// readAll decodes a part file's rows as a flat slice.
func readAll(data []byte) ([]tuple.Tuple, error) {
	b, err := tuple.DecodeTextBatch(data)
	if err != nil {
		return nil, err
	}
	out := make([]tuple.Tuple, b.Len())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out, nil
}

// readDataset loads all tuples under path, sorted for comparison.
func readDataset(t *testing.T, fs *dfs.FS, path string) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for _, f := range fs.List(path) {
		data, err := fs.ReadFile(f)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", f, err)
		}
		rows, err := readAll(data)
		if err != nil {
			t.Fatalf("readAll: %v", err)
		}
		out = append(out, rows...)
	}
	sort.Slice(out, func(i, j int) bool { return tuple.CompareTuples(out[i], out[j]) < 0 })
	return out
}

// runScript compiles and runs a script, returning the engine for output
// inspection.
func runScript(t *testing.T, fs *dfs.FS, src string) map[string]*JobStats {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/t", DefaultReducers: 3})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatalf("TopoJobs: %v", err)
	}
	stats := map[string]*JobStats{}
	for _, j := range jobs {
		st, err := runJob(eng, j)
		if err != nil {
			t.Fatalf("Run(%s): %v", j.ID, err)
		}
		stats[j.ID] = st
	}
	return stats
}

func wantRows(t *testing.T, fs *dfs.FS, path string, want ...tuple.Tuple) {
	t.Helper()
	got := readDataset(t, fs, path)
	sort.Slice(want, func(i, j int) bool { return tuple.CompareTuples(want[i], want[j]) < 0 })
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows %v, want %d rows %v", path, len(got), got, len(want), want)
	}
	for i := range want {
		if !tuple.Equal(got[i], want[i]) {
			t.Errorf("%s row %d: got %v, want %v", path, i, got[i], want[i])
		}
	}
}

func TestMapOnlyProjectionFilter(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "data",
		tuple.Tuple{"u1", int64(5)},
		tuple.Tuple{"u2", int64(1)},
		tuple.Tuple{"u3", int64(9)},
	)
	runScript(t, fs, `
A = load 'data' as (user, score);
B = filter A by score > 2;
C = foreach B generate user;
store C into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{"u1"}, tuple.Tuple{"u3"})
}

func TestGroupAndAggregate(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "pv",
		tuple.Tuple{"alice", int64(10)},
		tuple.Tuple{"bob", int64(5)},
		tuple.Tuple{"alice", int64(7)},
		tuple.Tuple{"carol", int64(2)},
		tuple.Tuple{"bob", int64(3)},
	)
	runScript(t, fs, `
A = load 'pv' as (user, rev);
B = group A by user;
C = foreach B generate group, SUM(A.rev), COUNT(A);
store C into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"alice", int64(17), int64(2)},
		tuple.Tuple{"bob", int64(8), int64(2)},
		tuple.Tuple{"carol", int64(2), int64(1)},
	)
}

func TestJoin(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "names",
		tuple.Tuple{"alice"},
		tuple.Tuple{"bob"},
		tuple.Tuple{"dave"},
	)
	writeDataset(t, fs, "views",
		tuple.Tuple{"alice", int64(1)},
		tuple.Tuple{"alice", int64(2)},
		tuple.Tuple{"bob", int64(3)},
		tuple.Tuple{"eve", int64(4)},
	)
	runScript(t, fs, `
N = load 'names' as (name);
V = load 'views' as (user, rev);
J = join N by name, V by user;
store J into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"alice", "alice", int64(1)},
		tuple.Tuple{"alice", "alice", int64(2)},
		tuple.Tuple{"bob", "bob", int64(3)},
	)
}

func TestJoinDropsNullKeys(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "l", tuple.Tuple{nil, int64(1)}, tuple.Tuple{"k", int64(2)})
	writeDataset(t, fs, "r", tuple.Tuple{nil, int64(3)}, tuple.Tuple{"k", int64(4)})
	runScript(t, fs, `
L = load 'l' as (k, v);
R = load 'r' as (k2, w);
J = join L by k, R by k2;
store J into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{"k", int64(2), "k", int64(4)})
}

func TestCoGroupAntiJoin(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "all_users", tuple.Tuple{"a"}, tuple.Tuple{"b"}, tuple.Tuple{"c"})
	writeDataset(t, fs, "active", tuple.Tuple{"b", int64(1)})
	runScript(t, fs, `
U = load 'all_users' as (name);
A = load 'active' as (user, n);
C = cogroup U by name, A by user;
D = filter C by ISEMPTY(A);
E = foreach D generate group;
store E into 'inactive';
`)
	wantRows(t, fs, "inactive", tuple.Tuple{"a"}, tuple.Tuple{"c"})
}

func TestDistinct(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "d",
		tuple.Tuple{"x", int64(1)},
		tuple.Tuple{"x", int64(1)},
		tuple.Tuple{"y", int64(2)},
		tuple.Tuple{"x", int64(3)},
	)
	runScript(t, fs, `
A = load 'd' as (k, v);
B = distinct A;
store B into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"x", int64(1)},
		tuple.Tuple{"x", int64(3)},
		tuple.Tuple{"y", int64(2)},
	)
}

func TestUnionThenDistinct(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "u1", tuple.Tuple{"a"}, tuple.Tuple{"b"})
	writeDataset(t, fs, "u2", tuple.Tuple{"b"}, tuple.Tuple{"c"})
	runScript(t, fs, `
A = load 'u1' as (x);
B = load 'u2' as (x);
C = union A, B;
D = distinct C;
store D into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{"a"}, tuple.Tuple{"b"}, tuple.Tuple{"c"})
}

func TestGroupAll(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "g",
		tuple.Tuple{"a", int64(1)},
		tuple.Tuple{"b", int64(2)},
		tuple.Tuple{"c", int64(3)},
	)
	runScript(t, fs, `
A = load 'g' as (k, v);
B = group A all;
C = foreach B generate COUNT(A), SUM(A.v);
store C into 'out';
`)
	wantRows(t, fs, "out", tuple.Tuple{int64(3), int64(6)})
}

func TestOrderBy(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "o",
		tuple.Tuple{"b", int64(2)},
		tuple.Tuple{"a", int64(3)},
		tuple.Tuple{"c", int64(1)},
	)
	runScript(t, fs, `
A = load 'o' as (k, v);
B = order A by v desc;
store B into 'out';
`)
	// Read without sorting: output order must be v descending.
	var got []tuple.Tuple
	for _, f := range fs.List("out") {
		data, _ := fs.ReadFile(f)
		rows, _ := readAll(data)
		got = append(got, rows...)
	}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	if got[0][1] != int64(3) || got[1][1] != int64(2) || got[2][1] != int64(1) {
		t.Errorf("order wrong: %v", got)
	}
}

func TestTwoJobPipeline(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "pv",
		tuple.Tuple{"alice", int64(10)},
		tuple.Tuple{"bob", int64(5)},
		tuple.Tuple{"alice", int64(7)},
	)
	writeDataset(t, fs, "users",
		tuple.Tuple{"alice"},
		tuple.Tuple{"bob"},
		tuple.Tuple{"carol"},
	)
	runScript(t, fs, `
A = load 'pv' as (user, rev);
U = load 'users' as (name);
J = join U by name, A by user;
G = group J by $0;
S = foreach G generate group, SUM(J.rev);
store S into 'out';
`)
	wantRows(t, fs, "out",
		tuple.Tuple{"alice", int64(17)},
		tuple.Tuple{"bob", int64(5)},
	)
}

func TestStatsAccounting(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "s",
		tuple.Tuple{"a", int64(1)},
		tuple.Tuple{"b", int64(2)},
	)
	stats := runScript(t, fs, `
A = load 's' as (k, v);
B = group A by k;
C = foreach B generate group, COUNT(A);
store C into 'out';
`)
	if len(stats) != 1 {
		t.Fatalf("stats = %v", stats)
	}
	for _, st := range stats {
		if st.InputRecords != 2 {
			t.Errorf("InputRecords = %d, want 2", st.InputRecords)
		}
		if st.InputSimBytes <= 0 {
			t.Errorf("InputSimBytes = %d", st.InputSimBytes)
		}
		if st.OutputRecords != 2 {
			t.Errorf("OutputRecords = %d, want 2", st.OutputRecords)
		}
		if st.ShuffleSimBytes <= 0 {
			t.Errorf("ShuffleSimBytes = %d", st.ShuffleSimBytes)
		}
		if st.SimTime <= 0 {
			t.Errorf("SimTime = %v", st.SimTime)
		}
		if st.MapTasks < 1 || st.RedTasks < 1 {
			t.Errorf("tasks = %d/%d", st.MapTasks, st.RedTasks)
		}
		if _, ok := st.Outputs["out"]; !ok {
			t.Errorf("Outputs missing 'out': %v", st.Outputs)
		}
	}
}

func TestSimScaleMultipliesBytes(t *testing.T) {
	mk := func(scale float64) *JobStats {
		fs := dfs.New()
		writeDataset(t, fs, "s", tuple.Tuple{"a", int64(1)}, tuple.Tuple{"b", int64(2)})
		script, _ := piglatin.Parse(`A = load 's' as (k, v); store A into 'o';`)
		lp, _ := logical.Build(script)
		wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/x", DefaultReducers: 1})
		cfg := Config{Cost: cluster.DefaultCostModel()}
		cfg.SimScale = scale
		eng := New(fs, cfg)
		st, err := runJob(eng, wf.Jobs[0])
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return st
	}
	s1 := mk(1)
	s100 := mk(100)
	if s100.InputSimBytes != 100*s1.InputSimBytes {
		t.Errorf("sim bytes: scale1=%d scale100=%d", s1.InputSimBytes, s100.InputSimBytes)
	}
	if s100.SimTime <= s1.SimTime {
		t.Errorf("sim time should grow with scale: %v vs %v", s1.SimTime, s100.SimTime)
	}
}

func TestMissingInputFails(t *testing.T) {
	fs := dfs.New()
	script, _ := piglatin.Parse(`A = load 'nope' as (k); store A into 'o';`)
	lp, _ := logical.Build(script)
	wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/x", DefaultReducers: 1})
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	if _, err := runJob(eng, wf.Jobs[0]); err == nil {
		t.Errorf("missing input should fail")
	}
}

func TestEmptyInputProducesEmptyOutput(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("empty/part-00000", nil)
	runScript(t, fs, `
A = load 'empty' as (k, v);
B = group A by k;
C = foreach B generate group, COUNT(A);
store C into 'out';
`)
	if !fs.Exists("out") {
		t.Fatalf("output dataset not created")
	}
	if rows := readDataset(t, fs, "out"); len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
}

func TestManySplitsStillCorrect(t *testing.T) {
	fs := dfs.New()
	var rows []tuple.Tuple
	wantSum := map[string]int64{}
	for i := 0; i < 500; i++ {
		u := string(rune('a' + i%7))
		rows = append(rows, tuple.Tuple{u, int64(i)})
		wantSum[u] += int64(i)
	}
	writeDataset(t, fs, "big", rows...)

	script, _ := piglatin.Parse(`
A = load 'big' as (u, v);
B = group A by u;
C = foreach B generate group, SUM(A.v);
store C into 'out';
`)
	lp, _ := logical.Build(script)
	wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/x", DefaultReducers: 5})
	cfg := Config{Cost: cluster.DefaultCostModel()}
	cfg.SimScale = 1e6 // forces many splits
	eng := New(fs, cfg)
	st, err := runJob(eng, wf.Jobs[0])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.MapTasks < 10 {
		t.Errorf("MapTasks = %d, want many under high SimScale", st.MapTasks)
	}
	got := readDataset(t, fs, "out")
	if len(got) != 7 {
		t.Fatalf("groups = %d, want 7", len(got))
	}
	for _, r := range got {
		u := r[0].(string)
		if r[1] != wantSum[u] {
			t.Errorf("sum[%s] = %v, want %d", u, r[1], wantSum[u])
		}
	}
}

func TestSideStoreWritesBothOutputs(t *testing.T) {
	// Manually inject a Split + side Store after the ForEach, as ReStore
	// does when materializing sub-jobs.
	fs := dfs.New()
	writeDataset(t, fs, "d", tuple.Tuple{"x", int64(1)}, tuple.Tuple{"y", int64(2)})
	script, _ := piglatin.Parse(`
A = load 'd' as (k, v);
B = foreach A generate k;
store B into 'main';
`)
	lp, _ := logical.Build(script)
	wf, _ := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/x", DefaultReducers: 1})
	job := wf.Jobs[0]

	var fe *physical.Op
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.KForEach {
			fe = op
		}
	}
	succ := job.Plan.Successors()
	split := job.Plan.Add(&physical.Op{Kind: physical.KSplit, InputIDs: []int{fe.ID}})
	for _, sid := range succ[fe.ID] {
		op := job.Plan.Op(sid)
		for i, in := range op.InputIDs {
			if in == fe.ID {
				op.InputIDs[i] = split.ID
			}
		}
	}
	job.Plan.Add(&physical.Op{Kind: physical.KStore, Path: "side", InputIDs: []int{split.ID}})

	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})
	st, err := runJob(eng, job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantRows(t, fs, "main", tuple.Tuple{"x"}, tuple.Tuple{"y"})
	wantRows(t, fs, "side", tuple.Tuple{"x"}, tuple.Tuple{"y"})
	if _, ok := st.Outputs["side"]; !ok {
		t.Errorf("side output not in stats: %v", st.Outputs)
	}
}

func TestLimitPerTask(t *testing.T) {
	fs := dfs.New()
	writeDataset(t, fs, "d",
		tuple.Tuple{"a"}, tuple.Tuple{"b"}, tuple.Tuple{"c"}, tuple.Tuple{"d"},
	)
	runScript(t, fs, `
A = load 'd' as (k);
B = limit A 2;
store B into 'out';
`)
	got := readDataset(t, fs, "out")
	if len(got) != 2 {
		t.Errorf("limit rows = %d, want 2 (single split)", len(got))
	}
}

// TestRunCancelled proves engine-level cancellation: a cancelled
// context aborts the job with its error before (or while) tasks acquire
// slots, no task goroutine outlives Run, and the engine stays usable
// afterwards.
func TestRunCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fs := dfs.New()
	writeDataset(t, fs, "in",
		tuple.Tuple{"a", int64(1)}, tuple.Tuple{"b", int64(2)})
	script, err := piglatin.Parse(`
A = load 'in' as (k, v);
G = group A by k;
S = foreach G generate group, SUM(A.v);
store S into 'out';
`)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/t", DefaultReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(fs, Config{Cost: cluster.DefaultCostModel()})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, wf.Jobs[0], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	// A worker that has returned may take a moment to leave the count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a cancelled Run, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	// All task slots were released: the same job runs fine with a live
	// context.
	if _, err := runJob(eng, wf.Jobs[0]); err != nil {
		t.Fatalf("Run after cancellation: %v", err)
	}
}

// TestTaskGoroutinesBounded runs a job of 2 000 map tasks and holds the
// goroutines alive during it, sampled at every task completion, to the
// engine's Parallelism plus a little slack: tasks run on a fixed pool
// of workers, not one goroutine each.
func TestTaskGoroutinesBounded(t *testing.T) {
	const splits, parallelism = 2000, 4
	fs := dfs.New()
	var b strings.Builder
	for i := 0; i < splits; i++ {
		fmt.Fprintf(&b, "k%d\t%d\n", i%13, i)
	}
	if err := fs.WriteFile("in/part-00000", []byte(b.String())); err != nil {
		t.Fatal(err)
	}
	jobs := compileScript(t, `
A = load 'in' as (k, v);
G = group A by k;
S = foreach G generate group, SUM(A.v);
store S into 'out';
`)
	cfg := Config{Cost: cluster.DefaultCostModel()}
	cfg.SplitSize = 1 // one task per row
	cfg.Parallelism = parallelism
	eng := New(fs, cfg)

	baseline := runtime.NumGoroutine()
	peak, ticks := 0, 0
	st, err := eng.Run(context.Background(), jobs[0], func(done, total int, _ time.Duration) {
		ticks++
		peak = max(peak, runtime.NumGoroutine())
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MapTasks != splits || ticks != splits+st.RedTasks {
		t.Fatalf("%d map tasks and %d progress ticks, want %d and %d", st.MapTasks, ticks, splits, splits+st.RedTasks)
	}
	if limit := baseline + parallelism + 2; peak > limit {
		t.Errorf("%d goroutines alive during the job, want at most %d (baseline %d + Parallelism %d + 2)",
			peak, limit, baseline, parallelism)
	}
}

package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

// scratchScripts are jobs that use every part of the task scratch: a
// combined GROUP (the key index, the partial states, drainCombined), a
// DISTINCT, a join (staged records, bags, the join's rows) and an
// ORDER BY (groupByKey with a direction), plus a map-only Limit. Each
// writes under the prefix %[1]s.
var scratchScripts = []string{`
A = load 'pv' as (user, rev, n);
B = group A by user;
C = foreach B generate group, COUNT(A), SUM(A.rev), SUM(A.n), MIN(A.rev), MAX(A.n);
store C into '%[1]s/combined';
`, `
A = load 'pv' as (user, rev, n);
B = foreach A generate user, n;
C = distinct B;
store C into '%[1]s/distinct';
`, `
U = load 'users' as (name, city);
A = load 'pv' as (user, rev, n);
J = join U by name, A by user;
store J into '%[1]s/join';
`, `
A = load 'pv' as (user, rev, n);
B = order A by n desc, user;
store B into '%[1]s/order';
`, `
A = load 'pv' as (user, rev, n);
B = limit A 7;
store B into '%[1]s/limit';
`}

// seedScratchInputs writes the inputs of scratchScripts to fs.
func seedScratchInputs(t *testing.T, fs *dfs.FS) {
	t.Helper()
	r := rand.New(rand.NewSource(50))
	var pv, users strings.Builder
	for i := 0; i < 3000; i++ {
		// Quarters: float sums are exact in any order, with or without
		// the combiner's partials.
		fmt.Fprintf(&pv, "u%d\t%d.%02d\t%d\n", r.Intn(300), r.Intn(100), 25*r.Intn(4), r.Intn(40))
	}
	for i := 0; i < 300; i += 2 {
		fmt.Fprintf(&users, "u%d\tcity%d\n", i, i%13)
	}
	for path, data := range map[string]string{"pv": pv.String(), "users": users.String()} {
		if err := fs.WriteFile(path+"/part-00000", []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
}

// compileUnder compiles src with its temporaries under prefix.
func compileUnder(t *testing.T, src, prefix string) []*physical.Job {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: prefix + "/tmp", DefaultReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// filesUnder returns the bytes of every file under prefix, named
// relative to it.
func filesUnder(t *testing.T, fs *dfs.FS, prefix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range fs.List(prefix) {
		data, err := fs.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimPrefix(f, prefix)] = string(data)
	}
	return out
}

// TestScratchConcurrentJobsMatchSerial runs several copies of every
// scratchScripts job at once on one engine, so each slot's task scratch
// passes between the tasks of different jobs, and requires each copy to
// write the bytes the same job writes alone, one task at a time, on a
// fresh engine with the combiners off (whose output bytes equal the
// combiners', TestCombinerEdgeKeys). A task output that aliased its
// scratch, or a scratch reset that missed a buffer, shows as a
// differing byte (or, under -race, a data race).
func TestScratchConcurrentJobsMatchSerial(t *testing.T) {
	cfg := Config{Cost: cluster.DefaultCostModel()}
	cfg.SplitSize = 4 << 10 // many map tasks per job
	cfg.Parallelism = 4

	want := map[int]map[string]string{}
	for i, src := range scratchScripts {
		fs := dfs.New()
		seedScratchInputs(t, fs)
		serial := cfg
		serial.Parallelism = 1
		eng := New(fs, serial)
		prefix := "out/serial"
		for _, job := range compileUnder(t, fmt.Sprintf(src, prefix), prefix) {
			seg, err := segments(job.Plan)
			if err != nil {
				t.Fatal(err)
			}
			seg.combine, seg.distinct = nil, false
			if _, err := eng.run(context.Background(), job, seg, nil); err != nil {
				t.Fatalf("script %d serial: %v", i, err)
			}
		}
		want[i] = filesUnder(t, fs, prefix+"/")
		if len(want[i]) == 0 {
			t.Fatalf("script %d wrote nothing", i)
		}
	}

	fs := dfs.New()
	seedScratchInputs(t, fs)
	eng := New(fs, cfg)
	const copies = 3
	type run struct {
		script int
		prefix string
		jobs   []*physical.Job
	}
	var runs []run
	for c := 0; c < copies; c++ {
		for i, src := range scratchScripts {
			prefix := fmt.Sprintf("out/c%d-s%d", c, i)
			runs = append(runs, run{i, prefix, compileUnder(t, fmt.Sprintf(src, prefix), prefix)})
		}
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for k, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, job := range r.jobs {
				if _, err := runJob(eng, job); err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for k, r := range runs {
		if errs[k] != nil {
			t.Fatalf("%s: %v", r.prefix, errs[k])
		}
		got := filesUnder(t, fs, r.prefix+"/")
		if len(got) != len(want[r.script]) {
			t.Fatalf("%s: %d files, serial run %d", r.prefix, len(got), len(want[r.script]))
		}
		for name, w := range want[r.script] {
			if g := got[name]; g != w {
				t.Fatalf("%s: %s differs from the serial run\ngot:\n%.300s\nwant:\n%.300s", r.prefix, name, g, w)
			}
		}
	}
	// The inputs decode to the types the scripts aggregate.
	if rows := readDataset(t, fs, "pv"); len(rows) != 3000 {
		t.Fatalf("pv has %d rows", len(rows))
	} else if _, ok := rows[0][1].(float64); !ok {
		t.Fatalf("rev decoded as %T", rows[0][1])
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

func benchSig(b *testing.B, src string) PlanSig {
	b.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		b.Fatal(err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/b", DefaultReducers: 2})
	if err != nil {
		b.Fatal(err)
	}
	return SigOf(wf.Jobs[0].Plan)
}

// BenchmarkMatchContainment measures one Algorithm 1 containment test:
// the paper's Q1 join plan against Q2's first job.
func BenchmarkMatchContainment(b *testing.B) {
	repo := benchSig(b, q1)
	in := benchSig(b, q2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Match(repo, in); !ok {
			b.Fatal("expected containment")
		}
	}
}

// BenchmarkMatchReject measures the (common) negative case: a
// non-matching plan is rejected.
func BenchmarkMatchReject(b *testing.B) {
	repo := benchSig(b, `
A = load 'other' as (a, b);
B = foreach A generate a;
store B into 'o';
`)
	in := benchSig(b, q2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Match(repo, in); ok {
			b.Fatal("unexpected match")
		}
	}
}

// BenchmarkFingerprint measures repository dedup hashing.
func BenchmarkFingerprint(b *testing.B) {
	sig := benchSig(b, q2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sig.Fingerprint()
	}
}

// rewriteBenchEnv is one prebuilt large-repository matching workload,
// cached across sub-benchmarks (building a 10k-entry repository is far
// more expensive than probing it).
type rewriteBenchEnv struct {
	fs    *dfs.FS
	repo  *Repository
	hit   *physical.Job // its filter prefix matches one mid-repository entry
	miss  *physical.Job // matches nothing: the matcher's common case
	bench func(b *testing.B, job *physical.Job, linear bool)
}

var rewriteEnvs = map[int]*rewriteBenchEnv{}

func rewriteEnv(b *testing.B, n int) *rewriteBenchEnv {
	b.Helper()
	if env := rewriteEnvs[n]; env != nil {
		return env
	}
	fs := dfs.New()
	repo := NewRepository()
	compileJob := func(src, prefix string) *physical.Job {
		script, err := piglatin.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		lp, err := logical.Build(script)
		if err != nil {
			b.Fatal(err)
		}
		wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: prefix, DefaultReducers: 2})
		if err != nil {
			b.Fatal(err)
		}
		return wf.Jobs[0]
	}
	for i := 0; i < n; i++ {
		job := compileJob(fmt.Sprintf(`
A = load 'data/src%d' as (a, b, c);
B = filter A by a > %d;
store B into 'stored/e%d';
`, i, i, i), fmt.Sprintf("tmp/be%d", i))
		out := fmt.Sprintf("stored/e%d", i)
		if err := fs.WriteFile(out+"/part-00000", []byte("1\t2\t3\n")); err != nil {
			b.Fatal(err)
		}
		in := fmt.Sprintf("data/src%d", i)
		repo.Insert(&Entry{
			Plan:          SigOf(job.Plan),
			OutputPath:    out,
			InputVersions: map[string]int64{in: fs.Version(in)},
			// Rising I/O ratio keeps setup linear: each insert lands at
			// the front after one scan-order comparison.
			Stats: EntryStats{InputSimBytes: int64(1000 + i), OutputSimBytes: 100},
		})
	}
	env := &rewriteBenchEnv{
		fs:   fs,
		repo: repo,
		hit: compileJob(fmt.Sprintf(`
A = load 'data/src%d' as (a, b, c);
B = filter A by a > %d;
G = group B by b;
R = foreach G generate group, COUNT(B);
store R into 'out/hit';
`, n/2, n/2), "tmp/bhit"),
		miss: compileJob(`
A = load 'data/none' as (a, b, c);
B = filter A by a > 1;
G = group B by b;
R = foreach G generate group, COUNT(B);
store R into 'out/miss';
`, "tmp/bmiss"),
	}
	env.bench = func(b *testing.B, job *physical.Job, linear bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rw := &Rewriter{Repo: repo, FS: fs, LinearScan: linear}
			rw.findBestMatch(job, false, obs.NoSpan)
		}
	}
	rewriteEnvs[n] = env
	return env
}

// BenchmarkRewrite measures one matching pass against large
// repositories (1k and 10k entries), sequential scan vs signature
// index, for both a job that reuses one stored prefix (hit) and a job
// the repository cannot serve (miss — the common case under diverse
// traffic). The CI bench artifact tracks these numbers across PRs: the
// scan's cost must grow ~linearly from 1k to 10k entries while the
// indexed matcher's stays ~flat.
func BenchmarkRewrite(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		env := rewriteEnv(b, n)
		for _, cse := range []struct {
			name string
			job  *physical.Job
		}{{"hit", env.hit}, {"miss", env.miss}} {
			b.Run(fmt.Sprintf("scan/%s/%d", cse.name, n), func(b *testing.B) {
				env.bench(b, cse.job, true)
			})
			b.Run(fmt.Sprintf("indexed/%s/%d", cse.name, n), func(b *testing.B) {
				env.bench(b, cse.job, false)
			})
		}
	}
}

// BenchmarkParseCompile measures the full front end: Pig Latin text to
// a workflow of MapReduce jobs.
func BenchmarkParseCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		script, err := piglatin.Parse(q2)
		if err != nil {
			b.Fatal(err)
		}
		lp, err := logical.Build(script)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: "tmp/b", DefaultReducers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

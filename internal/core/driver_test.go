package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mapreduce"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
	"repro/internal/tuple"
)

// harness bundles a DFS, engine, repository and driver for tests, plus
// the options and worker bound every run executes under.
type harness struct {
	fs      *dfs.FS
	eng     *mapreduce.Engine
	repo    *Repository
	driver  *Driver
	opts    Options
	workers int
	nquery  int
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	fs := dfs.New()
	eng := mapreduce.New(fs, mapreduce.DefaultConfig())
	repo := NewRepository()
	driver := NewDriver(eng, NewStorageManager(repo, eng, StorageConfig{}), 0)
	return &harness{fs: fs, eng: eng, repo: repo, driver: driver, opts: opts}
}

func (h *harness) write(t *testing.T, path string, rows ...tuple.Tuple) {
	t.Helper()
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(tuple.EncodeText(r))
		b.WriteByte('\n')
	}
	if err := h.fs.WriteFile(path+"/part-00000", []byte(b.String())); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func (h *harness) run(t *testing.T, src string) *Result {
	t.Helper()
	wf := h.compile(t, src)
	res, err := h.driver.Execute(context.Background(), wf, fmt.Sprintf("q%d", h.nquery), ExecConfig{Opts: h.opts, Workers: h.workers})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

// compile parses and compiles src as the harness's next query, whose
// ID is fmt.Sprintf("q%d", h.nquery) afterwards.
func (h *harness) compile(t *testing.T, src string) *physical.Workflow {
	t.Helper()
	h.nquery++
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{
		TempPrefix:      fmt.Sprintf("tmp/hq%d", h.nquery),
		DefaultReducers: 2,
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return wf
}

func (h *harness) read(t *testing.T, res *Result, userPath string) []tuple.Tuple {
	t.Helper()
	path := userPath
	if p, ok := res.FinalOutputs[userPath]; ok && p != "" {
		path = p
	}
	var out []tuple.Tuple
	for _, f := range h.fs.List(path) {
		data, err := h.fs.ReadFile(f)
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			out = append(out, tuple.DecodeText(line))
		}
	}
	sort.Slice(out, func(i, j int) bool { return tuple.CompareTuples(out[i], out[j]) < 0 })
	return out
}

func (h *harness) seedPigMixSmall(t *testing.T) {
	t.Helper()
	h.write(t, "page_views",
		tuple.Tuple{"alice", int64(1), int64(10), "info", "links"},
		tuple.Tuple{"bob", int64(2), int64(5), "info", "links"},
		tuple.Tuple{"alice", int64(3), int64(7), "info", "links"},
		tuple.Tuple{"carol", int64(4), int64(2), "info", "links"},
	)
	h.write(t, "users",
		tuple.Tuple{"alice", "p", "a", "c"},
		tuple.Tuple{"bob", "p", "a", "c"},
		tuple.Tuple{"dave", "p", "a", "c"},
	)
}

const hq1 = `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'q1_out';
`

const hq2 = `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'q2_out';
`

func TestWholeJobReuseAcrossQueries(t *testing.T) {
	// Cold run of Q2 to learn the expected answer.
	cold := newHarness(t, Options{})
	cold.seedPigMixSmall(t)
	coldRes := cold.run(t, hq2)
	want := cold.read(t, coldRes, "q2_out")
	if len(want) != 2 { // alice, bob
		t.Fatalf("cold q2 rows = %v", want)
	}

	// ReStore run: Q1 populates the repository; Q2 reuses Q1's join job.
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	r1 := h.run(t, hq1)
	if r1.JobsReused != 0 || len(r1.Rewrites) != 0 {
		t.Fatalf("q1 should find nothing to reuse: %+v", r1)
	}
	if len(r1.Stored) == 0 {
		t.Fatalf("q1 stored nothing")
	}

	r2 := h.run(t, hq2)
	if len(r2.Rewrites) == 0 {
		t.Fatalf("q2 found no rewrites")
	}
	// Q2's join job matches Q1's stored join output. Q2's join job is
	// a whole-plan match (same join), so the job is either removed (its
	// output is a temp) and the group job reads the stored output.
	if r2.JobsReused != 1 {
		t.Errorf("JobsReused = %d, want 1 (join job)", r2.JobsReused)
	}
	if r2.JobsRun != 1 {
		t.Errorf("JobsRun = %d, want 1 (group job)", r2.JobsRun)
	}
	got := h.read(t, r2, "q2_out")
	if len(got) != len(want) {
		t.Fatalf("reuse changed results: got %v, want %v", got, want)
	}
	for i := range want {
		if !tuple.Equal(got[i], want[i]) {
			t.Errorf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIdenticalQueryRerun(t *testing.T) {
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	r1 := h.run(t, hq2)
	want := h.read(t, r1, "q2_out")

	// The intermediate join job is reused whole; the final job always
	// re-materializes the user's output from the stored intermediate.
	r2 := h.run(t, hq2)
	if r2.JobsReused != 1 {
		t.Errorf("JobsReused = %d, want 1 (the join job)", r2.JobsReused)
	}
	if r2.JobsRun != 1 {
		t.Errorf("JobsRun = %d, want 1 (the final group job)", r2.JobsRun)
	}
	got := h.read(t, r2, "q2_out")
	if len(got) != len(want) {
		t.Fatalf("rerun changed results: got %v want %v", got, want)
	}
	for i := range want {
		if !tuple.Equal(got[i], want[i]) {
			t.Errorf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSubJobReuseSameQuery(t *testing.T) {
	// First run with the Aggressive heuristic materializes sub-jobs;
	// the second run reuses them and must produce identical output.
	h := newHarness(t, Options{Reuse: true, Heuristic: Aggressive})
	h.seedPigMixSmall(t)
	r1 := h.run(t, hq1)
	if len(r1.Stored) == 0 {
		t.Fatalf("aggressive run stored no sub-jobs")
	}
	if r1.ExtraStoredSimBytes <= 0 {
		t.Errorf("ExtraStoredSimBytes = %d", r1.ExtraStoredSimBytes)
	}
	want := h.read(t, r1, "q1_out")

	r2 := h.run(t, hq1)
	if len(r2.Rewrites) == 0 {
		t.Fatalf("second run applied no rewrites")
	}
	got := h.read(t, r2, "q1_out")
	if len(got) != len(want) {
		t.Fatalf("sub-job reuse changed results: got %v want %v", got, want)
	}
	for i := range want {
		if !tuple.Equal(got[i], want[i]) {
			t.Errorf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
	// Reuse must make the simulated time no worse.
	if r2.SimTime > r1.SimTime {
		t.Errorf("reuse run slower: %v > %v", r2.SimTime, r1.SimTime)
	}
}

func TestProjectionSubJobSpeedsUpDifferentQuery(t *testing.T) {
	// Q1 stores the projection of page_views; a different query needing
	// the same projection prefix reuses it.
	h := newHarness(t, Options{Reuse: true, Heuristic: Conservative})
	h.seedPigMixSmall(t)
	h.run(t, hq1)

	other := `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
G = group B by user;
S = foreach G generate group, SUM(B.est_revenue);
store S into 'other_out';
`
	r := h.run(t, other)
	if len(r.Rewrites) == 0 {
		t.Fatalf("expected the projection sub-job to be reused")
	}
	got := h.read(t, r, "other_out")
	// alice 17, bob 5, carol 2.
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	wantSums := map[string]int64{"alice": 17, "bob": 5, "carol": 2}
	for _, row := range got {
		if row[1] != wantSums[row[0].(string)] {
			t.Errorf("row %v, want sum %d", row, wantSums[row[0].(string)])
		}
	}
}

func TestHeuristicCandidateCounts(t *testing.T) {
	countStored := func(h Heuristic) int {
		hn := newHarness(t, Options{Heuristic: h})
		hn.seedPigMixSmall(t)
		r := hn.run(t, hq2)
		n := 0
		for _, e := range r.Stored {
			if !e.WholeJob {
				n++
			}
		}
		return n
	}
	off := countStored(HeuristicOff)
	hc := countStored(Conservative)
	ha := countStored(Aggressive)
	nh := countStored(NoHeuristic)
	if off != 0 {
		t.Errorf("off stored %d", off)
	}
	if !(hc > 0 && hc < ha && ha <= nh) {
		t.Errorf("candidate counts: hc=%d ha=%d nh=%d, want 0 < hc < ha <= nh", hc, ha, nh)
	}

	// NoHeuristic additionally stores outputs the Aggressive heuristic
	// skips, e.g. DISTINCT.
	countDistinct := func(heur Heuristic) int {
		hn := newHarness(t, Options{Heuristic: heur})
		hn.seedPigMixSmall(t)
		r := hn.run(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user;
D = distinct B;
F = filter D by user != 'nobody';
store F into 'dq_out';
`)
		n := 0
		for _, e := range r.Stored {
			if !e.WholeJob {
				n++
			}
		}
		return n
	}
	if nhd, had := countDistinct(NoHeuristic), countDistinct(Aggressive); nhd <= had {
		t.Errorf("no-heuristic should store the distinct output too: nh=%d ha=%d", nhd, had)
	}
}

func TestRewriteInvalidatedByInputChange(t *testing.T) {
	// Eviction Rule 4: modifying an input must prevent reuse.
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	h.run(t, hq1)

	// Modify page_views: append a row.
	h.write(t, "page_views",
		tuple.Tuple{"alice", int64(1), int64(10), "info", "links"},
		tuple.Tuple{"dave", int64(9), int64(100), "info", "links"},
	)
	r := h.run(t, hq1)
	if r.JobsReused != 0 {
		t.Errorf("stale entry was reused")
	}
	got := h.read(t, r, "q1_out")
	// New data joins alice (10) and dave (100).
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
}

func TestVacuumWindowEviction(t *testing.T) {
	h := newHarness(t, Options{KeepWholeJobs: true, Heuristic: Conservative})
	h.seedPigMixSmall(t)
	h.run(t, hq1)
	if h.repo.Len() == 0 {
		t.Fatal("nothing stored")
	}
	// Nothing is reused; advancing the clock beyond the window must
	// evict everything.
	removed, _ := h.repo.Vacuum(h.fs, h.driver.Now()+100*time.Hour, time.Hour, nil, nil)
	if len(removed) == 0 || h.repo.Len() != 0 {
		t.Errorf("window eviction removed %d, left %d", len(removed), h.repo.Len())
	}
}

func TestAdmitOnlyReducing(t *testing.T) {
	h := newHarness(t, Options{Heuristic: NoHeuristic, AdmitOnlyReducing: true})
	h.seedPigMixSmall(t)
	r := h.run(t, hq1)
	for _, e := range r.Stored {
		if e.Stats.OutputSimBytes >= e.Stats.InputSimBytes {
			t.Errorf("entry %s violates Rule 1: out=%d in=%d", e.ID, e.Stats.OutputSimBytes, e.Stats.InputSimBytes)
		}
	}
}

func TestRepositoryOrderingWholeJobFirst(t *testing.T) {
	// With both the whole join job and its projection sub-jobs stored by
	// a run of Q1, Q2's intermediate join job must match the subsuming
	// whole-job entry first (repository ordering Rule 1), not the
	// projections it contains.
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: Conservative})
	h.seedPigMixSmall(t)
	h.run(t, hq1)

	r := h.run(t, hq2)
	if len(r.Rewrites) == 0 {
		t.Fatal("no rewrites")
	}
	if !r.Rewrites[0].WholeJob {
		t.Errorf("first rewrite used %s (whole=%v), want the subsuming whole-job entry",
			r.Rewrites[0].EntryID, r.Rewrites[0].WholeJob)
	}
	if r.JobsReused != 1 {
		t.Errorf("JobsReused = %d, want 1", r.JobsReused)
	}
}

func TestBaselineDeletesTemps(t *testing.T) {
	h := newHarness(t, Options{DeleteTemps: true})
	h.seedPigMixSmall(t)
	h.run(t, hq2)
	for _, f := range h.fs.List("tmp") {
		t.Errorf("temp survived baseline run: %s", f)
	}
}

func TestReStoreKeepsTemps(t *testing.T) {
	h := newHarness(t, Options{DeleteTemps: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	h.run(t, hq2)
	if len(h.fs.List("tmp")) == 0 {
		t.Errorf("ReStore must keep intermediates its repository references")
	}
}

func TestNoReuseWithoutRepo(t *testing.T) {
	h := newHarness(t, Options{Reuse: true})
	h.seedPigMixSmall(t)
	r := h.run(t, hq2)
	if len(r.Rewrites) != 0 || r.JobsReused != 0 {
		t.Errorf("empty repository produced rewrites: %+v", r)
	}
	if r.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2", r.JobsRun)
	}
}

func TestReuseEquivalenceAcrossManyQueries(t *testing.T) {
	// Golden-versus-reuse equivalence over a battery of queries sharing
	// prefixes: every query must produce identical results with a warm
	// repository as with a cold baseline.
	queries := []string{
		hq1,
		hq2,
		`
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
F = filter B by est_revenue > 4;
store F into 'q3_out';
`,
		`
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
G = group B by user;
S = foreach G generate group, COUNT(B), SUM(B.est_revenue);
store S into 'q4_out';
`,
		`
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user;
D = distinct B;
store D into 'q5_out';
`,
	}
	outs := []string{"q1_out", "q2_out", "q3_out", "q4_out", "q5_out"}

	base := newHarness(t, Options{})
	base.seedPigMixSmall(t)
	var want [][]tuple.Tuple
	for i, q := range queries {
		r := base.run(t, q)
		want = append(want, base.read(t, r, outs[i]))
	}

	warm := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive})
	warm.seedPigMixSmall(t)
	totalRewrites := 0
	for i, q := range queries {
		r := warm.run(t, q)
		totalRewrites += len(r.Rewrites)
		got := warm.read(t, r, outs[i])
		if len(got) != len(want[i]) {
			t.Fatalf("query %d: got %d rows, want %d\ngot %v\nwant %v", i, len(got), len(want[i]), got, want[i])
		}
		for k := range got {
			if !tuple.Equal(got[k], want[i][k]) {
				t.Errorf("query %d row %d: got %v, want %v", i, k, got[k], want[i][k])
			}
		}
	}
	if totalRewrites == 0 {
		t.Errorf("warm battery applied no rewrites at all")
	}
}

func TestAdmitOnlyBeneficial(t *testing.T) {
	// With Rule 2 on, candidates whose stored output takes longer to
	// load than their producing job took to run are rejected. On the
	// tiny test data every job is dominated by fixed startup costs, so
	// outputs load faster than jobs rerun and everything is admitted;
	// the rule's rejection path is exercised by doctoring the stats.
	h := newHarness(t, Options{Heuristic: Conservative, AdmitOnlyBeneficial: true})
	h.seedPigMixSmall(t)
	r := h.run(t, hq1)
	if len(r.Stored) == 0 {
		t.Fatalf("beneficial candidates were rejected")
	}
	cheap := &Entry{Stats: EntryStats{OutputSimBytes: 1 << 40, JobSimTime: time.Millisecond}}
	if beneficial(h.eng, cheap) {
		t.Errorf("a huge output from a cheap job must not be beneficial")
	}
	good := &Entry{Stats: EntryStats{OutputSimBytes: 1 << 20, JobSimTime: time.Hour}}
	if !beneficial(h.eng, good) {
		t.Errorf("a small output from an expensive job must be beneficial")
	}
}

func TestCriticalPathDropsReusedJobs(t *testing.T) {
	// Equation 1 end-to-end: a three-job workflow (L11 shape) whose two
	// leading jobs are whole-job reused must report a simulated time
	// close to the final job's alone.
	l11 := `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user;
C = distinct B;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
gamma = distinct beta;
D = union C, gamma;
E = distinct D;
store E into 'l11_out';
`
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	r1 := h.run(t, l11)
	if r1.JobsRun != 3 {
		t.Fatalf("cold L11 ran %d jobs, want 3", r1.JobsRun)
	}
	r2 := h.run(t, l11)
	if r2.JobsReused != 2 {
		t.Fatalf("warm L11 reused %d jobs, want 2", r2.JobsReused)
	}
	if r2.JobsRun != 1 {
		t.Fatalf("warm L11 ran %d jobs, want 1", r2.JobsRun)
	}
	if r2.SimTime >= r1.SimTime {
		t.Errorf("warm %v should beat cold %v", r2.SimTime, r1.SimTime)
	}
	// The union-distinct results must be identical.
	want := h.read(t, r1, "l11_out")
	got := h.read(t, r2, "l11_out")
	if len(want) != len(got) {
		t.Fatalf("results differ: %d vs %d rows", len(want), len(got))
	}
}

func TestPartialPrefixReuseAcrossDifferentQueries(t *testing.T) {
	// A query whose prefix overlaps a stored sub-job only partially:
	// the shared projection is reused; the diverging filter is not.
	h := newHarness(t, Options{Reuse: true, Heuristic: Conservative})
	h.seedPigMixSmall(t)
	h.run(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
F = filter B by est_revenue > 100;
store F into 'rich';
`)
	r := h.run(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
F = filter B by est_revenue > 1;
store F into 'modest';
`)
	if len(r.Rewrites) == 0 {
		t.Fatalf("shared projection not reused")
	}
	got := h.read(t, r, "modest")
	if len(got) != 4 { // all four rows have est_revenue > 1
		t.Errorf("rows = %v", got)
	}
}

func TestRewriteReportFields(t *testing.T) {
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true})
	h.seedPigMixSmall(t)
	h.run(t, hq1)
	r := h.run(t, hq2)
	if len(r.Rewrites) == 0 {
		t.Fatal("no rewrites")
	}
	ev := r.Rewrites[0]
	if ev.JobID == "" || ev.EntryID == "" || ev.Path == "" {
		t.Errorf("incomplete event: %+v", ev)
	}
	if ev.OpsBefore <= ev.OpsAfter-1 {
		t.Errorf("rewrite should not grow the plan: %d -> %d", ev.OpsBefore, ev.OpsAfter)
	}
	// Reuse bookkeeping updated.
	found := false
	for _, e := range h.repo.Entries() {
		if e.ID == ev.EntryID && e.TimesReused > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("entry %s usage not recorded", ev.EntryID)
	}
}

// TestConcurrentWholeJobReuseWithSiblingExecution guards the targeted
// dependant mutation of the DAG driver: when one root job is reused
// whole while an independent sibling job is still executing (and having
// sub-job Stores injected into its plan), the reuse path must not sweep
// the sibling's plan. A workflow-wide remove/rewrite sweep here races
// with the sibling's plan mutation and trips -race (or crashes on
// concurrent map iteration); run in CI under the race detector.
func TestConcurrentWholeJobReuseWithSiblingExecution(t *testing.T) {
	const workflow = `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user;
C = distinct B;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
gamma = distinct beta;
D = union C, gamma;
E = distinct D;
store E into 'sib_out';
`
	h := newHarness(t, Options{Reuse: true, KeepWholeJobs: true, Heuristic: NoHeuristic})
	h.workers = 4
	h.seedPigMixSmall(t)

	// Warm only the users-side distinct, so on the next run the gamma
	// job is whole-job reused while the page_views-side distinct (not in
	// the repository) executes concurrently.
	h.run(t, `
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
gamma = distinct beta;
store gamma into 'warm_gamma';
`)

	want := h.read(t, h.run(t, workflow), "sib_out")
	if len(want) == 0 {
		t.Fatal("workflow produced no rows")
	}
	for i := 0; i < 5; i++ {
		// Invalidate the page_views side each round so its distinct job
		// always re-executes (fresh plan mutation) while gamma's entry
		// stays valid and is reused whole.
		h.write(t, "page_views",
			tuple.Tuple{"alice", int64(1), int64(10), "info", "links"},
			tuple.Tuple{"bob", int64(2), int64(5), "info", "links"},
			tuple.Tuple{"alice", int64(3), int64(7), "info", "links"},
			tuple.Tuple{"carol", int64(4), int64(2), "info", "links"},
		)
		r := h.run(t, workflow)
		if r.JobsReused == 0 {
			t.Fatalf("round %d: gamma job was not whole-job reused", i)
		}
		got := h.read(t, r, "sib_out")
		if len(got) != len(want) {
			t.Fatalf("round %d: rows = %v, want %v", i, got, want)
		}
		for k := range want {
			if !tuple.Equal(got[k], want[k]) {
				t.Errorf("round %d row %d: %v, want %v", i, k, got[k], want[k])
			}
		}
	}
}

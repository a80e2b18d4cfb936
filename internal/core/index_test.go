package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/physical"
)

// indexCorpus is a diverse entry corpus for differential tests: shared
// and disjoint load paths, subsuming pairs (Rule 1 ordering), joins,
// groups, and filter variants.
var indexCorpus = []string{
	`
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
store B into 'o';
`,
	`
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
C = distinct B;
store C into 'o';
`,
	q1,
	`
A = load 'users' as (name, phone, address, city);
B = foreach A generate name;
store B into 'o';
`,
	`
A = load 'x' as (a, b, c);
B = filter A by b > 10;
store B into 'o';
`,
	`
A = load 'x' as (a, b, c);
B = filter A by b > 20;
store B into 'o';
`,
	`
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`,
	`
A = load 'y' as (k, v);
G = group A by k;
S = foreach G generate group, COUNT(A);
store S into 'o';
`,
}

// indexProbes are jobs probing the corpus: prefix hits, whole-plan
// hits, multi-entry hits (both join branches), and misses.
var indexProbes = []string{
	q2,
	q1,
	`
A = load 'x' as (a, b, c);
B = filter A by b > 10;
G = group B by a;
S = foreach G generate group, COUNT(B);
store S into 'o2';
`,
	`
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 5;
store C into 'o3';
`,
	`
A = load 'elsewhere' as (a, b);
B = filter A by b > 10;
store B into 'o4';
`,
	`
A = load 'y' as (k, v);
G = group A by k;
S = foreach G generate group, COUNT(A);
T = filter S by $1 > 2;
store T into 'o5';
`,
}

// buildIndexCorpusRepo registers the corpus with valid outputs/inputs.
func buildIndexCorpusRepo(t *testing.T, fs *dfs.FS) *Repository {
	t.Helper()
	repo := NewRepository()
	for i, src := range indexCorpus {
		sig := firstJobSig(t, src)
		out := fmt.Sprintf("stored/c%d", i)
		if err := fs.WriteFile(out+"/part-00000", []byte("x\t1\t2\n")); err != nil {
			t.Fatal(err)
		}
		e := &Entry{
			Plan:       sig,
			OutputPath: out,
			Stats:      EntryStats{InputSimBytes: int64(100 + 10*i), OutputSimBytes: int64(10 + i)},
		}
		repo.Insert(e)
	}
	// Inputs may not exist; record whatever version the FS reports so
	// every entry is Valid.
	for _, e := range allEntries(repo) {
		vs := map[string]int64{}
		for _, p := range e.Plan.loadPaths() {
			vs[p] = fs.Version(p)
		}
		e.InputVersions = vs
	}
	return repo
}

func cloneJob(j *physical.Job) *physical.Job {
	c := j.Clone()
	return c
}

// eventKey flattens a rewrite event for comparison (the unexported
// entry pointer differs by design; identity is the entry ID + path).
func eventKey(ev RewriteEvent) string {
	return fmt.Sprintf("%s:%s:%s:%v:%d:%d", ev.JobID, ev.EntryID, ev.Path, ev.WholeJob, ev.OpsBefore, ev.OpsAfter)
}

// TestIndexedMatchesScan is the differential suite's core: over the
// corpus repository, every probe job must produce byte-identical
// rewrites — same entries, in the same order, yielding the same final
// plan — whether matched by the sequential scan or the signature index,
// for both allowWhole settings.
func TestIndexedMatchesScan(t *testing.T) {
	fs := dfs.New()
	repo := buildIndexCorpusRepo(t, fs)
	for pi, src := range indexProbes {
		for _, allowWhole := range []bool{false, true} {
			wf := compileJobs(t, src, fmt.Sprintf("tmp/ix%d", pi))
			for ji := range wf.Jobs {
				jobScan := cloneJob(wf.Jobs[ji])
				jobIdx := cloneJob(wf.Jobs[ji])

				scanRW := &Rewriter{Repo: repo, FS: fs, LinearScan: true}
				idxRW := &Rewriter{Repo: repo, FS: fs}
				evScan := scanRW.RewriteJob(jobScan, allowWhole, obs.NoSpan)
				evIdx := idxRW.RewriteJob(jobIdx, allowWhole, obs.NoSpan)

				if len(evScan) != len(evIdx) {
					t.Fatalf("probe %d job %d allowWhole=%v: scan %d rewrites, indexed %d",
						pi, ji, allowWhole, len(evScan), len(evIdx))
				}
				for k := range evScan {
					if eventKey(evScan[k]) != eventKey(evIdx[k]) {
						t.Fatalf("probe %d job %d allowWhole=%v rewrite %d differs:\nscan  %s\nindex %s",
							pi, ji, allowWhole, k, eventKey(evScan[k]), eventKey(evIdx[k]))
					}
				}
				sigScan, sigIdx := SigOf(jobScan.Plan), SigOf(jobIdx.Plan)
				if sigScan.Fingerprint() != sigIdx.Fingerprint() {
					t.Fatalf("probe %d job %d allowWhole=%v: rewritten plans differ:\nscan:\n%s\nindexed:\n%s",
						pi, ji, allowWhole, jobScan.Plan, jobIdx.Plan)
				}
			}
		}
	}
	st := repo.MatcherStats()
	if st.Probes == 0 || st.Scans == 0 {
		t.Fatalf("both modes must have run: %+v", st)
	}
	if st.Candidates > st.ScanVisited {
		t.Errorf("index nominated more candidates (%d) than the scan visited (%d)", st.Candidates, st.ScanVisited)
	}
}

// TestProbeNominatesEveryMatch checks the index filter is lossless: any
// entry whose full containment test succeeds against a probe job must
// appear among the probe's candidates.
func TestProbeNominatesEveryMatch(t *testing.T) {
	fs := dfs.New()
	repo := buildIndexCorpusRepo(t, fs)
	for pi, src := range indexProbes {
		wf := compileJobs(t, src, fmt.Sprintf("tmp/nom%d", pi))
		for _, job := range wf.Jobs {
			jobSig := SigOf(job.Plan)
			nominated := map[string]bool{}
			repo.Probe(jobSig, func(e *Entry) bool {
				nominated[e.ID] = true
				return true
			}, nil)
			repo.Scan(func(e *Entry) bool {
				if _, ok := matchEntry(e, job.Plan, jobSig, -1); ok && !nominated[e.ID] {
					t.Errorf("probe %d: entry %s matches but was not nominated", pi, e.ID)
				}
				return true
			})
		}
	}
}

// TestInsertReplacementReindexes checks a fingerprint replacement swaps
// the index to the fresh entry value: probes must serve the replacement
// (new stats, new output), never the stale pointer.
func TestInsertReplacementReindexes(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()
	src := `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`
	sig := firstJobSig(t, src)
	mk := func(out string) *Entry {
		if err := fs.WriteFile(out+"/part-00000", []byte("1\t2\n")); err != nil {
			t.Fatal(err)
		}
		return &Entry{Plan: sig, OutputPath: out,
			InputVersions: map[string]int64{"x": fs.Version("x")},
			Stats:         EntryStats{InputSimBytes: 100, OutputSimBytes: 10}}
	}
	old := repo.Insert(mk("stored/v1"))
	repl := repo.Insert(mk("stored/v2"))
	if repl == old {
		t.Fatal("replacement returned the old pointer")
	}

	probe := compileJobs(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 1;
store C into 'f';
`, "tmp/repl").Jobs[0]
	var got *Entry
	repo.Probe(SigOf(probe.Plan), func(e *Entry) bool {
		got = e
		return false
	}, nil)
	if got != repl {
		t.Fatalf("probe served %+v, want the replacement %+v", got, repl)
	}
	if st := repo.MatcherStats(); st.IndexEntries != 1 {
		t.Errorf("index entries = %d after replacement, want 1", st.IndexEntries)
	}
}

// TestRejectedCandidateDoesNotHideLaterMatch: a candidate rejected by
// one probe does not keep a matching entry inserted later from being
// found for the same, unchanged plan.
func TestRejectedCandidateDoesNotHideLaterMatch(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()
	rw := &Rewriter{Repo: repo, FS: fs}

	// Seed a non-matching entry that still passes the footprint filter
	// (same load and filter signatures as the probe, but the filter
	// applies before the projection, so full containment fails): the
	// index must nominate it and traverse it.
	other := firstJobSig(t, `
A = load 'x' as (a, b, c);
B = filter A by b > 1;
store B into 'o';
`)
	if err := fs.WriteFile("stored/miss/part-00000", []byte("1\n")); err != nil {
		t.Fatal(err)
	}
	repo.Insert(&Entry{Plan: other, OutputPath: "stored/miss",
		InputVersions: map[string]int64{"x": fs.Version("x")}})

	probeSrc := `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 1;
store C into 'f';
`
	job := compileJobs(t, probeSrc, "tmp/neg1").Jobs[0]
	if ev := rw.RewriteJob(cloneJob(job), false, obs.NoSpan); len(ev) != 0 {
		t.Fatalf("unexpected rewrite: %v", ev)
	}

	// A matching entry inserted later must be found by the same
	// rewriter on the same (unchanged) plan.
	match := firstJobSig(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`)
	if err := fs.WriteFile("stored/hit/part-00000", []byte("1\t2\n")); err != nil {
		t.Fatal(err)
	}
	repo.Insert(&Entry{Plan: match, OutputPath: "stored/hit",
		InputVersions: map[string]int64{"x": fs.Version("x")}})
	ev := rw.RewriteJob(cloneJob(job), false, obs.NoSpan)
	if len(ev) != 1 || ev[0].Path != "stored/hit" {
		t.Fatalf("a rejected candidate hid a fresh entry: %v", ev)
	}
}

// checkIndexCoherent verifies (on a quiescent repository) that the
// signature index exactly mirrors the entries: footprints for each,
// one posting under each entry's frontier, correct scan positions, and
// nothing stale left behind.
func checkIndexCoherent(t *testing.T, repo *Repository) {
	t.Helper()
	entries := allEntries(repo)
	if len(repo.index.meta) != len(entries) {
		t.Fatalf("index meta holds %d entries, repository %d", len(repo.index.meta), len(entries))
	}
	posted := 0
	for sig, list := range repo.index.postings {
		if len(list) == 0 {
			t.Fatalf("empty posting list for %q", sig)
		}
		posted += len(list)
	}
	if len(repo.index.pos) != len(entries) {
		t.Fatalf("index holds %d scan positions, repository %d entries", len(repo.index.pos), len(entries))
	}
	for i, e := range entries {
		f := repo.index.meta[e]
		if f == nil {
			t.Fatalf("entry %s missing from index meta", e.ID)
		}
		if repo.index.pos[e.ID] != i {
			t.Fatalf("entry %s at scan position %d, index says %d", e.ID, i, repo.index.pos[e.ID])
		}
		if f.frontier == "" {
			posted++ // not posted by design; balance the count below
			continue
		}
		found := 0
		for _, x := range repo.index.postings[f.frontier] {
			if x == e {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("entry %s posted %d times under its frontier", e.ID, found)
		}
	}
	if posted != len(entries) {
		t.Fatalf("postings hold %d entries, repository %d", posted, len(entries))
	}
}

// TestIndexCoherenceUnderConcurrency hammers one repository from many
// goroutines — inserts (fresh and fingerprint-replacing), evictions,
// vacuums, removes, probes and full rewrites — and then verifies the
// index still exactly mirrors the entries and agrees with the scan.
// Run under -race in CI.
func TestIndexCoherenceUnderConcurrency(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()

	nFamilies := 6
	sigs := make([]PlanSig, nFamilies)
	for i := range sigs {
		sigs[i] = firstJobSig(t, fmt.Sprintf(`
A = load 'in%d' as (a, b, c);
B = filter A by a > %d;
store B into 'o%d';
`, i, i, i))
	}
	probes := make([]*physical.Job, nFamilies)
	for i := range probes {
		probes[i] = compileJobs(t, fmt.Sprintf(`
A = load 'in%d' as (a, b, c);
B = filter A by a > %d;
G = group B by b;
S = foreach G generate group, COUNT(B);
store S into 'p%d';
`, i, i, i), fmt.Sprintf("tmp/coh%d", i)).Jobs[0]
	}
	for i := 0; i < nFamilies; i++ {
		if err := fs.WriteFile(fmt.Sprintf("stored/f%d/part-00000", i), []byte("1\t2\t3\n")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			rw := &Rewriter{Repo: repo, FS: fs, LinearScan: g%2 == 0}
			for i := 0; i < 300; i++ {
				k := r.Intn(nFamilies)
				switch r.Intn(5) {
				case 0, 1: // insert (fingerprint collisions replace)
					repo.Insert(&Entry{
						Plan:          sigs[k],
						OutputPath:    fmt.Sprintf("stored/f%d", k),
						InputVersions: map[string]int64{fmt.Sprintf("in%d", k): fs.Version(fmt.Sprintf("in%d", k))},
						Stats:         EntryStats{InputSimBytes: int64(100 + i), OutputSimBytes: 10},
					})
				case 2: // rewrite through the matcher
					job := cloneJob(probes[k])
					rw.RewriteJob(job, false, obs.NoSpan)
				case 3: // evict whatever is present
					var ids []string
					repo.Scan(func(e *Entry) bool {
						ids = append(ids, e.ID)
						return len(ids) < 2
					})
					repo.EvictUnpinned(ids, nil)
				case 4:
					repo.Vacuum(fs, 0, 0, nil, nil)
					if e := repo.Lookup(sigs[k]); e != nil {
						repo.EvictUnpinned([]string{e.ID}, nil)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	checkIndexCoherent(t, repo)

	// Quiescent differential: probes and scans agree entry-for-entry.
	for k, job := range probes {
		jobSig := SigOf(job.Plan)
		var fromProbe, fromScan []*Entry
		repo.Probe(jobSig, func(e *Entry) bool {
			fromProbe = append(fromProbe, e)
			return true
		}, nil)
		repo.Scan(func(e *Entry) bool {
			if _, ok := matchEntry(e, job.Plan, jobSig, -1); ok {
				fromScan = append(fromScan, e)
			}
			return true
		})
		nominated := map[*Entry]bool{}
		for _, e := range fromProbe {
			nominated[e] = true
		}
		for _, e := range fromScan {
			if !nominated[e] {
				t.Fatalf("family %d: matching entry %s not nominated after churn", k, e.ID)
			}
		}
	}
}

// TestScanPositionsFollowChurn: the index renumbers only from the first
// position a splice moved, so after every random insert, replacement,
// replayed put and removal the scan positions must still equal the scan
// order, with none left for a removed entry.
func TestScanPositionsFollowChurn(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()
	const families = 10
	sigs := make([]PlanSig, families)
	for i := range sigs {
		// Nested filters over three inputs: some plans subsume others
		// (Rule 1), and random stats order the rest (Rule 2).
		sigs[i] = firstJobSig(t, fmt.Sprintf(`
A = load 'in%d' as (a, b, c);
B = filter A by a > %d;
C = filter B by b < %d;
store C into 'o%d';
`, i%3, i/3, i, i))
		if err := fs.WriteFile(fmt.Sprintf("stored/f%d/part-00000", i), []byte("1\t2\t3\n")); err != nil {
			t.Fatal(err)
		}
	}
	entry := func(k int, r *rand.Rand) *Entry {
		return &Entry{
			Plan:          sigs[k],
			OutputPath:    fmt.Sprintf("stored/f%d", k),
			InputVersions: map[string]int64{fmt.Sprintf("in%d", k%3): fs.Version(fmt.Sprintf("in%d", k%3))},
			Stats:         EntryStats{InputSimBytes: int64(1 + r.Intn(1000)), OutputSimBytes: int64(1 + r.Intn(100))},
		}
	}
	r := rand.New(rand.NewSource(67))
	seq := uint64(0)
	for i := 0; i < 2000; i++ {
		k := r.Intn(families)
		switch r.Intn(6) {
		case 0, 1, 2: // insert; a present fingerprint is replaced
			repo.Insert(entry(k, r))
		case 3: // a replayed put at a recorded position
			e := entry(k, r)
			e.ID = fmt.Sprintf("peer%d", k)
			e.fp = e.fingerprint()
			seq++
			repo.applyPut(e, footprintOf(e.planSig()), r.Intn(repo.Len()+2)-1, seq)
		case 4: // remove up to three entries anywhere in the scan order
			var ids []string
			for _, e := range allEntries(repo) {
				if r.Intn(3) == 0 && len(ids) < 3 {
					ids = append(ids, e.ID)
				}
			}
			repo.EvictUnpinned(ids, nil)
		case 5: // a replayed remove
			if e := repo.Lookup(sigs[k]); e != nil {
				seq++
				repo.applyRemove(e.ID, seq, 0)
			}
		}
		checkIndexCoherent(t, repo)
	}
}

// TestVacuumAndEvictKeepIndexCoherent exercises every removal path
// serially and verifies the index after each.
func TestVacuumAndEvictKeepIndexCoherent(t *testing.T) {
	fs := dfs.New()
	repo := buildIndexCorpusRepo(t, fs)
	checkIndexCoherent(t, repo)

	// Remove one by ID.
	first := allEntries(repo)[0]
	if removed, _ := repo.EvictUnpinned([]string{first.ID}, nil); len(removed) == 0 {
		t.Fatal("removal by ID failed")
	}
	checkIndexCoherent(t, repo)

	// Evict two by ID.
	es := allEntries(repo)
	repo.EvictUnpinned([]string{es[0].ID, es[1].ID}, nil)
	checkIndexCoherent(t, repo)

	// Invalidate the rest and vacuum.
	for _, e := range allEntries(repo) {
		if err := fs.Delete(e.OutputPath); err != nil {
			t.Fatal(err)
		}
	}
	repo.Vacuum(fs, 0, 0, nil, nil)
	if repo.Len() != 0 {
		t.Fatalf("repository holds %d entries after full vacuum", repo.Len())
	}
	checkIndexCoherent(t, repo)
	if st := repo.MatcherStats(); st.IndexEntries != 0 || st.IndexSignatures != 0 {
		t.Errorf("index not empty after full vacuum: %+v", st)
	}
}

func collectProbe(repo *Repository, job *physical.Job) []string {
	var ids []string
	repo.Probe(SigOf(job.Plan), func(e *Entry) bool {
		ids = append(ids, e.ID)
		return true
	}, nil)
	return ids
}

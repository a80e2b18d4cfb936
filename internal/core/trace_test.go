package core

import (
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// traceFootprintSrc has the same filter shape as negProbeSrc but reads
// a different dataset: the signature index nominates it off the shared
// filter signature and the footprint prefilter rejects it (its load set
// is not contained in the probe's) — the one rejection a full
// containment traversal never sees.
const traceFootprintSrc = `
A = load 'y' as (a, b, c);
B = filter A by b > 10;
store B into 'fp_out';
`

// candidateReasons runs one traced RewriteJob and returns every
// probe.candidate event as entryID → reasons, plus the probe-span count.
func candidateReasons(t *testing.T, rw *Rewriter, src string, allowWhole bool) (map[string][]string, int) {
	t.Helper()
	tr := obs.NewTrace("q")
	root := tr.Start(obs.NoSpan, obs.KindSubmit, "q")
	rw.Trace = tr
	wf := compileJobs(t, src, "tmp/tr")
	job := cloneJob(wf.Jobs[0])
	rw.RewriteJob(job, allowWhole, root)
	tr.End(root)

	reasons := map[string][]string{}
	probes := 0
	var walk func(spans []*obs.SpanJSON)
	walk = func(spans []*obs.SpanJSON) {
		for _, sp := range spans {
			switch sp.Kind {
			case obs.KindProbe:
				probes++
			case obs.KindCandidate:
				reasons[sp.Ref] = append(reasons[sp.Ref], sp.Note)
			}
			walk(sp.Children)
		}
	}
	walk(tr.Snapshot().Spans)
	return reasons, probes
}

// TestRejectionReasons drives every matcher verdict through a crafted
// repository and asserts each one is emitted exactly where the decision
// actually happens.
func TestRejectionReasons(t *testing.T) {
	type scenario struct {
		name string
		// prepare seeds the repository (and optionally mutates the FS)
		// and returns the expected entryID → final reason.
		prepare    func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string
		probe      string
		allowWhole bool
	}
	scenarios := []scenario{
		{
			name:  "footprint-miss",
			probe: negProbeSrc,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, traceFootprintSrc, 0)
				repo.Insert(e)
				return map[string]string{e.ID: obs.ReasonFootprintMiss}
			},
		},
		{
			name:  "containment-fail",
			probe: negProbeSrc,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, negEntrySrc, 1)
				repo.Insert(e)
				return map[string]string{e.ID: obs.ReasonContainmentFail}
			},
		},
		{
			name:  "neg-cache",
			probe: negProbeSrc,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, negEntrySrc, 2)
				repo.Insert(e)
				// Another submission's rewriter pays the containment
				// traversal once; this probe must answer from the
				// repository's negative cache.
				other := &Rewriter{Repo: repo, FS: fs}
				if rs, _ := candidateReasons(t, other, negProbeSrc, true); rs[e.ID][0] != obs.ReasonContainmentFail {
					t.Fatalf("warmup verdict = %v", rs[e.ID])
				}
				return map[string]string{e.ID: obs.ReasonNegCache}
			},
		},
		{
			name:  "invalid",
			probe: negProbeSrc,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, negEntrySrc, 4)
				repo.Insert(e)
				// Overwriting the input bumps its version: the entry is
				// stale before any containment test runs.
				if err := fs.WriteFile("x/part-00000", []byte("1\t2\t3\n")); err != nil {
					t.Fatal(err)
				}
				return map[string]string{e.ID: obs.ReasonInvalid}
			},
		},
		{
			name:       "whole-plan-skipped",
			probe:      negProbeSrc,
			allowWhole: false,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, negProbeSrc, 5)
				repo.Insert(e)
				return map[string]string{e.ID: obs.ReasonWholePlanSkipped}
			},
		},
		{
			name:       "win",
			probe:      negProbeSrc,
			allowWhole: true,
			prepare: func(t *testing.T, fs dfs.Backend, repo *Repository, rw *Rewriter) map[string]string {
				e := durableEntry(t, fs, negProbeSrc, 6)
				repo.Insert(e)
				return map[string]string{e.ID: obs.ReasonWin}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			fs := dfs.New()
			repo := NewRepository()
			rw := &Rewriter{Repo: repo, FS: fs}
			want := sc.prepare(t, fs, repo, rw)
			got, probes := candidateReasons(t, rw, sc.probe, sc.allowWhole)
			if probes == 0 {
				t.Fatal("no probe span recorded")
			}
			for id, reason := range want {
				rs := got[id]
				if len(rs) == 0 {
					t.Fatalf("entry %s emitted no candidate event (got %v)", id, got)
				}
				if rs[0] != reason {
					t.Errorf("entry %s verdict = %v, want %s first", id, rs, reason)
				}
			}
		})
	}
}

// TestLinearScanNoFootprintMiss: the sequential scan has no signature
// index and so must never claim a footprint rejection — the same
// repository that footprint-misses under the index reports a
// containment failure when scanned linearly.
func TestLinearScanNoFootprintMiss(t *testing.T) {
	fs := dfs.New()
	repo := NewRepository()
	e := durableEntry(t, fs, traceFootprintSrc, 7)
	repo.Insert(e)
	rw := &Rewriter{Repo: repo, FS: fs, LinearScan: true}
	got, _ := candidateReasons(t, rw, negProbeSrc, true)
	rs := got[e.ID]
	if len(rs) == 0 {
		t.Fatalf("linear scan skipped the entry entirely: %v", got)
	}
	for _, r := range rs {
		if r == obs.ReasonFootprintMiss {
			t.Fatalf("linear scan reported a footprint miss: %v", rs)
		}
	}
}

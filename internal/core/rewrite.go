package core

import (
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/physical"
)

// Rewriter is ReStore's plan matcher and rewriter: for each MapReduce
// job of an input workflow it finds repository entries contained in the
// job's plan and rewrites the job to read their stored outputs instead
// of recomputing them.
//
// The matcher is indexed: each round probes the repository's signature
// index for the candidate entries whose footprint could be contained in
// the job (see planIndex), visits them in the Rules 1/2 preference
// order, and runs the full Algorithm 1 traversal only on those — so a
// match costs O(plan) probing plus a handful of traversals instead of a
// traversal per repository entry. LinearScan restores the paper's
// sequential scan; both modes choose identical entries. The index is
// the only filter: each candidate gets a validity check and then one
// traversal, and no rejection is remembered between probes.
//
// Repository probes are internally synchronized, but RewriteJob mutates
// the job's plan in place: the caller must ensure no other goroutine
// touches the same job (the driver's DAG scheduler does this by
// rewriting each job under the workflow lock, after all of the job's
// producers have completed).
type Rewriter struct {
	Repo *Repository
	FS   dfs.Backend

	// LinearScan matches via the pre-index sequential repository scan
	// instead of the signature index. The probe filters only by
	// conditions necessary for containment and preserves scan order, so
	// the two modes are differential-tested to pick identical entries;
	// linear mode is the reference implementation those suites, the
	// matcher-scaling experiment and the benchmarks compare against.
	LinearScan bool

	// Refresher, when non-nil, is invoked when the matcher's only
	// usable candidate is a stale entry whose inputs merely grew and
	// whose output is mergeable: it must run the delta sub-plan over
	// the appended input slice, merge it with the stored output, and
	// re-register the entry, returning the refreshed replacement (nil
	// when the refresh failed, which sends the job down the cold
	// path). It is called after the repository probe returns — never
	// under the repository lock — because it executes jobs and inserts
	// entries. The driver installs it.
	Refresher func(cand RefreshCandidate) *Entry

	// Leases, when non-nil, pins every entry a match takes: the pin
	// count spares the entry from this process's vacuum and eviction,
	// the pin record from those of every peer sharing the DFS. The
	// driver installs its store's lease manager and unpins when the
	// execution finishes. A nil Leases pins nothing.
	Leases *LeaseManager

	// Trace, when non-nil, receives the matcher's decision provenance:
	// a probe span per matching round with one probe.candidate child
	// per entry considered, carrying its verdict (footprint-miss,
	// invalid, containment-fail, … win), and a reuse span per rewrite
	// applied. A nil Trace records nothing.
	Trace *obs.Trace
	// Metrics, when non-nil, receives each probe's wall latency. The
	// driver installs its Metrics; histograms record even when the
	// individual query is untraced.
	Metrics *obs.Metrics

	// noRefresh marks entry versions whose refresh already failed this
	// submission, so one bad delta does not retry on every probe round.
	refreshMu sync.Mutex
	noRefresh map[*Entry]bool
}

// RefreshCandidate hands the Refresher everything a delta refresh
// needs: the probing job (whose plan contains the entry's sub-plan —
// the entry itself stores only a signature DAG, so the executable
// delta plan is carved from the job via Match.Frontier), the
// containment result, and the per-input growth classifications listing
// exactly the appended files the delta must read. Span is the probing
// job's span, which the refresh is recorded under.
type RefreshCandidate struct {
	Job    *physical.Job
	Match  *MatchResult
	Growth map[string]dfs.Growth
	Span   obs.SpanID
}

// refreshBlocked reports whether this entry version's refresh already
// failed in this submission.
func (rw *Rewriter) refreshBlocked(e *Entry) bool {
	rw.refreshMu.Lock()
	defer rw.refreshMu.Unlock()
	return rw.noRefresh[e]
}

// blockRefresh marks this entry version as not worth re-attempting.
func (rw *Rewriter) blockRefresh(e *Entry) {
	rw.refreshMu.Lock()
	defer rw.refreshMu.Unlock()
	if rw.noRefresh == nil {
		rw.noRefresh = map[*Entry]bool{}
	}
	rw.noRefresh[e] = true
}

// RewriteEvent records one applied rewrite for reporting.
type RewriteEvent struct {
	JobID     string
	EntryID   string
	Path      string
	WholeJob  bool
	OpsBefore int
	OpsAfter  int

	// entry is the matched repository entry, kept so the driver can
	// note reuse and unpin without re-scanning the repository by ID.
	entry *Entry
}

// RewriteJob rewrites one job in place to reuse repository outputs. It
// probes again after every successful rewrite (the paper's "a new
// sequential scan through the repository is started to look for more
// matches"), so several entries can contribute to one job — a rewrite
// changes the plan, and the fresh Load over a stored output can expose
// matches the previous round could not see. Each round costs one index
// probe, not a repository scan: every candidate the index nominates gets
// a validity check and then one containment traversal. It returns the
// rewrite events applied, with WholeJob set when an entry covered the
// entire job (the caller then drops the job and rewires its dependants).
//
// allowWhole permits whole-plan matches. The driver passes false for
// jobs writing a user STORE destination: a requested output is always
// freshly materialized, so final jobs reuse sub-plans only — which is
// why the paper evaluates whole-job reuse on multi-job workflows.
//
// Probes and rewrites are recorded as spans under parent on the
// Rewriter's Trace; with a nil Trace (and obs.NoSpan) nothing is
// recorded.
func (rw *Rewriter) RewriteJob(job *physical.Job, allowWhole bool, parent obs.SpanID) []RewriteEvent {
	var events []RewriteEvent
	for {
		res := rw.findBestMatch(job, allowWhole, parent)
		if res == nil {
			return events
		}
		before := job.Plan.Len()
		rw.noteReuseSpan(parent, res)
		if res.WholePlan {
			// Whole-job reuse: the caller removes the job; the plan is
			// also rewritten into Load(stored) -> Store as a fallback.
			applyRewrite(job.Plan, res)
			events = append(events, RewriteEvent{
				JobID: job.ID, EntryID: res.Entry.ID, Path: res.Entry.OutputPath,
				WholeJob: true, OpsBefore: before, OpsAfter: job.Plan.Len(),
				entry: res.Entry,
			})
			return events
		}
		applyRewrite(job.Plan, res)
		events = append(events, RewriteEvent{
			JobID: job.ID, EntryID: res.Entry.ID, Path: res.Entry.OutputPath,
			OpsBefore: before, OpsAfter: job.Plan.Len(),
			entry: res.Entry,
		})
	}
}

// noteReuseSpan records one applied rewrite: which entry won and the
// stored input bytes reading its output avoids re-scanning.
func (rw *Rewriter) noteReuseSpan(parent obs.SpanID, res *MatchResult) {
	if rw.Trace == nil {
		return
	}
	span := rw.Trace.Start(parent, obs.KindReuse, res.Entry.ID)
	what := "sub-plan"
	if res.WholePlan {
		what = "whole job"
	}
	rw.Trace.Note(span, what)
	rw.Trace.Bytes(span, res.Entry.Stats.InputSimBytes, res.Entry.Stats.OutputSimBytes)
	rw.Trace.End(span)
}

// findBestMatch returns the first valid entry contained in the job's
// plan, in repository preference order. Because candidates arrive
// ordered by Rules 1 and 2 (Section 3), the first match is the best
// match. The matched entry is pinned through the lease manager before
// the probe's read lock is released, so neither a concurrent Vacuum nor
// a peer's can delete its stored output before the rewritten job runs.
// The driver unpins when the execution finishes.
func (rw *Rewriter) findBestMatch(job *physical.Job, allowWhole bool, parent obs.SpanID) *MatchResult {
	probeStart := time.Now()
	probeSpan := rw.Trace.Start(parent, obs.KindProbe, job.ID)
	jobSig := SigOf(job.Plan)
	mainStoreInput := -1
	if st := job.MainStore(); st != nil && len(st.InputIDs) > 0 {
		mainStoreInput = st.InputIDs[0]
	}
	var found *MatchResult
	var refresh *RefreshCandidate
	var visited, traversals int64
	visit := func(e *Entry) bool {
		visited++
		// A stale entry a refresh can revive still gets a containment
		// test: the first in preference order is delta-refreshed if
		// nothing valid matches, instead of recomputing the job cold.
		growth, alive := fate(rw.FS, e, nil)
		refreshable := len(growth) > 0
		if !alive || refreshable && (rw.Refresher == nil || refresh != nil || rw.refreshBlocked(e)) {
			rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonInvalid)
			return true
		}
		traversals++
		res, ok := matchEntry(e, job.Plan, jobSig, mainStoreInput)
		if !ok {
			rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonContainmentFail)
			return true
		}
		if res.WholePlan && !allowWhole {
			rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonWholePlanSkipped)
			return true
		}
		rw.Leases.Pin(e.ID)
		if refreshable {
			refresh = &RefreshCandidate{Job: job, Match: res, Growth: growth, Span: parent}
			rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonRefreshCandidate)
			return true // keep scanning: a valid match beats a refresh
		}
		found = res
		rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonWin)
		return false
	}
	if rw.LinearScan {
		rw.Repo.Scan(visit)
		rw.Repo.noteScan(visited)
	} else {
		// Traced probes additionally observe the entries the signature
		// index nominated but rejected on the footprint prefilter —
		// the provenance a linear scan has no notion of.
		var missed func(e *Entry)
		if rw.Trace != nil {
			missed = func(e *Entry) {
				rw.Trace.Event(probeSpan, obs.KindCandidate, e.ID, obs.ReasonFootprintMiss)
			}
		}
		rw.Repo.Probe(jobSig, visit, missed)
	}
	rw.Metrics.ObserveProbe(time.Since(probeStart))
	rw.Trace.End(probeSpan)
	rw.Repo.noteMatchWork(traversals, found != nil)
	if found != nil {
		if refresh != nil {
			rw.Leases.Unpin(refresh.Match.Entry.ID)
		}
		return found
	}
	if refresh != nil {
		// Refresh outside the probe (the hook runs jobs and inserts
		// into the repository). The refreshed entry keeps its identity
		// — replacement preserves the ID — so the pin taken at match
		// time keeps protecting it; the containment mapping stays valid
		// because the job plan was not touched in between.
		if ne := rw.Refresher(*refresh); ne != nil {
			res := *refresh.Match
			res.Entry = ne
			return &res
		}
		rw.Leases.Unpin(refresh.Match.Entry.ID)
		rw.blockRefresh(refresh.Match.Entry)
	}
	return nil
}

// applyRewrite replaces the matched region of the plan with a Load of
// the entry's stored output: every consumer of the frontier op is
// redirected to a new Load, and operators that no longer reach a Store
// are removed.
func applyRewrite(plan *physical.Plan, res *MatchResult) {
	newLoad := plan.Add(&physical.Op{Kind: physical.KLoad, Path: res.Entry.OutputPath})
	for _, op := range plan.Ops() {
		if op.ID == newLoad.ID {
			continue
		}
		for i, in := range op.InputIDs {
			if in == res.Frontier {
				op.InputIDs[i] = newLoad.ID
			}
		}
	}
	plan.RemoveDead()
}

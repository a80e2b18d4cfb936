package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/physical"
)

// EntryStats carries the execution statistics the repository keeps per
// stored output, per the paper: input/output sizes and the average
// mapper/reducer execution times of the producing job.
type EntryStats struct {
	InputSimBytes  int64
	OutputSimBytes int64
	AvgMapTime     time.Duration
	AvgRedTime     time.Duration
	JobSimTime     time.Duration
}

// ioRatio is the ordering metric of Rule 2: input size over output size,
// higher is better.
func (s EntryStats) ioRatio() float64 {
	if s.OutputSimBytes <= 0 {
		return float64(s.InputSimBytes)
	}
	return float64(s.InputSimBytes) / float64(s.OutputSimBytes)
}

// Entry is one stored MapReduce job output: the physical plan that
// produced it, the output's location in the DFS, execution statistics,
// and usage bookkeeping. Sub-jobs are stored as full, independent
// MapReduce jobs indistinguishable from whole jobs, as in the paper.
//
// Concurrency: Plan, OutputPath, Stats, InputVersions, WholeJob and
// StoredAt are immutable once the entry is inserted — re-registering the
// same plan swaps in a fresh Entry value rather than mutating the old
// one, so concurrent readers holding a stale pointer still see a
// consistent snapshot. LastReused and TimesReused are mutated only by
// Repository methods under the repository lock.
type Entry struct {
	ID         string
	Plan       PlanSig
	OutputPath string
	Stats      EntryStats

	// InputVersions records the DFS version of every input dataset at
	// store time; eviction Rule 4 invalidates the entry when an input is
	// later deleted or modified.
	InputVersions map[string]int64

	// OutputVersion records the DFS version of the output dataset when
	// the entry was registered (post-commit for staged user outputs).
	// Valid invalidates the entry if the dataset is later overwritten —
	// e.g. another query renaming its own result over the same user
	// STORE path — so reuse can never serve data the entry's plan did
	// not produce. Zero skips the check: the driver always sets it, so
	// only entries built by hand carry it.
	OutputVersion int64

	// InputBases records, per input dataset, the file-inventory
	// snapshot taken when the output was materialized — the base
	// observation append detection (dfs.Classify) compares against.
	// Nil or missing a path on legacy entries, which then never
	// delta-refresh.
	InputBases map[string]dfs.Snapshot

	// Merge is the entry's mergeability classification, derived from
	// its physical sub-plan at insert time: non-nil means the stored
	// output can be combined with a delta run over appended input
	// (see physical.AnalyzeMerge). Nil entries fall back to cold
	// recompute-and-replace when their inputs change.
	Merge *physical.MergeSpec

	// WholeJob marks entries that materialize a complete job rather
	// than an enumerated sub-job.
	WholeJob bool

	// Usage statistics (simulated clock).
	StoredAt    time.Duration
	LastReused  time.Duration
	TimesReused int

	// size holds the stored output's byte total, measured once (see
	// storedBytes). publish installs a fresh one for every published
	// version.
	size *measuredSize

	// fp caches the plan's canonical fingerprint. Stamped before the
	// entry is published (Insert, recovery), so recovered entries answer
	// identity questions without decoding their plan.
	fp string

	// lazy, on entries recovered from the durable log, holds the
	// still-encoded plan: the footprint and fingerprint persisted
	// alongside it serve the index and identity, and the plan itself is
	// decoded only when a containment traversal first needs it.
	lazy *lazyPlan

	// logSeq is the durable-log sequence number of the record that last
	// wrote this entry (zero outside durable repositories). Replaying a
	// log record older than the entry's current state is a no-op.
	logSeq uint64

	// gen is the repository's publication count when this version was
	// published (see Repository.registeredSince).
	gen int64
}

// lazyPlan defers decoding a recovered entry's plan until a matcher
// traversal needs it. Entries are shared across goroutines, so the
// decode is a Once.
type lazyPlan struct {
	once sync.Once
	enc  []byte
	plan PlanSig
}

// planDecodes counts lazy plan decodes process-wide; the recovery suite
// asserts a cold recovery performs none.
var planDecodes atomic.Int64

// PlanDecodes reports how many recovered entry plans have been decoded
// so far in this process (cold recovery must not decode any: footprints
// and fingerprints are persisted; plans are needed only by containment
// traversals).
func PlanDecodes() int64 { return planDecodes.Load() }

// planSig returns the entry's plan signature DAG, decoding a recovered
// entry's persisted encoding on first use.
func (e *Entry) planSig() PlanSig {
	if e.lazy == nil {
		return e.Plan
	}
	e.lazy.once.Do(func() {
		planDecodes.Add(1)
		var p PlanSig
		if err := gob.NewDecoder(bytes.NewReader(e.lazy.enc)).Decode(&p); err == nil {
			e.lazy.plan = p
		}
	})
	return e.lazy.plan
}

// fingerprint returns the plan's canonical fingerprint from the cache
// stamped at insert/recovery time, computing it only for entries that
// never passed through a repository.
func (e *Entry) fingerprint() string {
	if e.fp != "" {
		return e.fp
	}
	p := e.planSig()
	return p.Fingerprint()
}

// measuredSize is an entry's stored byte total, measured on first use.
// Concurrent sweeps share entries, so the measurement is a Once.
type measuredSize struct {
	once  sync.Once
	bytes int64
}

// storedBytes returns the byte total of the entry's stored output,
// measured once per published entry: the output of a valid entry cannot
// change — a write, delete or rename of it moves its version past
// OutputVersion, and Sweep vacuums invalid entries before it enforces
// the budget — and a replaced entry is a new version measured anew.
func (e *Entry) storedBytes(fs dfs.Backend) int64 {
	e.size.once.Do(func() { e.size.bytes, _, _ = fs.Stat(e.OutputPath) })
	return e.size.bytes
}

// Repository manages the stored job outputs. Plans are kept ordered so
// that a sequential scan finds the best match first: Rule 1 places
// subsuming plans ahead of the plans they subsume; Rule 2 orders
// incomparable plans by input/output ratio and then job execution time.
//
// Alongside the ordered entries the repository maintains a signature
// index (planIndex): entries are posted under their frontier signature
// with a footprint summary, so Probe can hand the matcher only the
// candidates whose containment test could possibly succeed, in the same
// preference order the scan would visit them. Every mutation — Insert
// (including fingerprint-replacement re-sorts), Remove, EvictUnpinned,
// Vacuum, journal replay — keeps the index coherent under the
// repository lock. Every removal goes through one function, remove,
// which also counts references to output paths: it reports which
// outputs no surviving entry points at any more, so the storage
// manager never rescans the repository to find them.
//
// All methods are safe for concurrent use: ReStore sits between many
// clients and the cluster, and concurrent Execute calls insert, match
// and evict against one shared repository.
//
// The Repository is deliberately passive — an ordered, synchronized
// map. The policies that make it a managed shared resource (the
// cross-query claim protocol, the byte budget and its eviction
// policies, orphan reclamation) live in StorageManager, which wraps a
// Repository and drives Vacuum/EvictUnpinned, passing them the lease
// manager whose pin counts say which entries in-flight rewrites read.
type Repository struct {
	mu      sync.RWMutex
	entries []*Entry
	nextID  int
	byFP    map[string]*Entry
	index   *planIndex
	// refs counts the entries pointing at each output path: publish
	// increments it, remove decrements it and reports the entry that
	// drops a path to zero as released.
	refs map[string]int
	// gen counts published entry versions: inserts, replacements and
	// replayed puts.
	gen int64

	// idPrefix prefixes generated entry IDs ("e3" → "<prefix>e3") so
	// repositories journaling into one shared durable log — each process
	// allocates IDs independently — can never collide. Set once before
	// the first Insert.
	idPrefix string

	// jn, when non-nil, receives every entry mutation under the write
	// lock: the durable event log appends a put per Insert (including
	// replacement) and a remove per entry that Remove, EvictUnpinned
	// and Vacuum drop. Replayed records from other processes are
	// applied through applyPut, applyRemove and applyFold, which
	// bypass it.
	jn journal

	// Matcher counters (MatcherStats), all monotonic. The traversal
	// counters are fed by Rewriters and span submissions.
	probes          atomic.Int64
	probeCandidates atomic.Int64
	scans           atomic.Int64
	scanVisited     atomic.Int64
	traversals      atomic.Int64
	matches         atomic.Int64
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		byFP:  map[string]*Entry{},
		index: newPlanIndex(),
		refs:  map[string]int{},
	}
}

// journal receives repository mutations under the write lock; the
// durable event log implements it. pos is the entry's scan position
// after the mutation, persisted so recovery can rebuild the Rules 1/2
// order without re-running the ordering comparisons.
type journal interface {
	appendPut(e *Entry, f *footprint, pos int)
	appendRemove(e *Entry)
}

// Len returns the number of entries.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Entries returns a copy of the entries slice in scan order. Callers get
// their own slice — mutating it cannot corrupt the repository's
// eviction and matching order.
func (r *Repository) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Entry(nil), r.entries...)
}

// Scan calls fn for each entry in scan order under the read lock,
// stopping early when fn returns false. It avoids the per-call copy of
// Entries for hot paths like the storage manager's accounting sweeps;
// fn must not call back into the repository.
func (r *Repository) Scan(fn func(e *Entry) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if !fn(e) {
			return
		}
	}
}

// Probe calls fn, in scan order and under the read lock, for each entry
// the signature index nominates as a containment candidate for the
// probing job plan: the entries whose signature footprint is a subset
// of the job's. Every entry the full traversal could match is
// nominated (the filters are necessary conditions of containment), so
// the first fn match equals the first Scan match; fn must not call back
// into the repository. missed, when non-nil, is called for each entry
// the index looked at but rejected on the footprint-subset prefilter —
// the "footprint miss" verdict a query trace records.
func (r *Repository) Probe(job PlanSig, fn func(e *Entry) bool, missed func(e *Entry)) {
	sigSet, loadSet := probeSets(job)
	r.mu.RLock()
	defer r.mu.RUnlock()
	cands := r.index.candidates(sigSet, loadSet, missed)
	r.probes.Add(1)
	r.probeCandidates.Add(int64(len(cands)))
	for _, e := range cands {
		if !fn(e) {
			return
		}
	}
}

// noteScan records one linear matching scan over n entries (rewriters
// in LinearScan mode).
func (r *Repository) noteScan(n int64) {
	r.scans.Add(1)
	r.scanVisited.Add(n)
}

// noteMatchWork records the traversal work of one matching pass.
func (r *Repository) noteMatchWork(traversals int64, matched bool) {
	r.traversals.Add(traversals)
	if matched {
		r.matches.Add(1)
	}
}

// MatcherStats snapshots the matcher counters and index gauges.
func (r *Repository) MatcherStats() MatcherStats {
	r.mu.RLock()
	entries, sigs := len(r.index.meta), len(r.index.postings)
	r.mu.RUnlock()
	return MatcherStats{
		Probes:          r.probes.Load(),
		Candidates:      r.probeCandidates.Load(),
		Scans:           r.scans.Load(),
		ScanVisited:     r.scanVisited.Load(),
		FullTraversals:  r.traversals.Load(),
		Matches:         r.matches.Load(),
		IndexEntries:    entries,
		IndexSignatures: sigs,
	}
}

// Lookup returns the entry whose plan fingerprint equals that of sig,
// or nil.
func (r *Repository) Lookup(sig PlanSig) *Entry {
	fp := sig.Fingerprint()
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byFP[fp]
}

// Insert adds an entry in its ordered position. Inserting a plan whose
// fingerprint already exists replaces the old entry's statistics,
// output location and WholeJob mark (who owns that location) instead of
// duplicating it — the replacement is a fresh Entry value carrying over
// the old identity and usage counters, so readers holding the old
// pointer are unaffected — and returns the replacement. Replacements are re-sorted and re-indexed: refreshed
// statistics can change the entry's Rule 2 rank, and the matcher relies
// on candidate order being the preference order.
func (r *Repository) Insert(e *Entry) *Entry {
	fp := e.fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.byFP[fp]; old != nil {
		ne := *old
		ne.OutputPath = e.OutputPath
		ne.WholeJob = e.WholeJob
		ne.Stats = e.Stats
		ne.InputVersions = e.InputVersions
		ne.OutputVersion = e.OutputVersion
		ne.InputBases = e.InputBases
		ne.Merge = e.Merge
		ne.StoredAt = e.StoredAt
		r.remove(func(x *Entry) bool { return x == old }, false)
		r.index.add(&ne)
		r.insertOrdered(&ne)
		r.publish(&ne)
		r.journalPut(&ne)
		return &ne
	}
	r.nextID++
	if e.ID == "" {
		e.ID = fmt.Sprintf("%se%d", r.idPrefix, r.nextID)
	}
	e.fp = fp
	r.index.add(e)
	r.insertOrdered(e)
	r.publish(e)
	r.journalPut(e)
	return e
}

// remove is the one way out of the repository (mu held). In one pass
// over the scan order it drops every entry drop selects from the scan
// order, the fingerprint map and the signature index, journals each
// removal when journal is set (a replacement journals a put instead,
// and replayed records are already in the log), and renumbers the scan
// positions once. It returns the entries removed, in scan order, and
// the released ones among them: those that held the last reference to
// their output path, each path reported once.
func (r *Repository) remove(drop func(*Entry) bool, journal bool) (removed, released []*Entry) {
	kept := r.entries[:0]
	for _, e := range r.entries {
		if !drop(e) {
			kept = append(kept, e)
			continue
		}
		delete(r.byFP, e.fingerprint())
		r.index.remove(e)
		if journal && r.jn != nil {
			r.jn.appendRemove(e)
		}
		removed = append(removed, e)
		if r.refs[e.OutputPath]--; r.refs[e.OutputPath] <= 0 {
			delete(r.refs, e.OutputPath)
			released = append(released, e)
		}
	}
	if len(removed) > 0 {
		r.entries = kept
		r.index.renumber(r.entries)
	}
	return removed, released
}

// publish makes e the entry of its fingerprint, stamps its publication
// count, gives it a size of its own to measure — a replacement may
// point at a different output — and counts its reference to that
// output (mu held).
func (r *Repository) publish(e *Entry) {
	r.gen++
	e.gen = r.gen
	e.size = &measuredSize{}
	r.byFP[e.fp] = e
	r.refs[e.OutputPath]++
}

// generation returns the number of entry versions published so far.
func (r *Repository) generation() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// registeredSince reports whether the entry of fingerprint fp was
// published after generation g, which a job rewritten at g did not see.
func (r *Repository) registeredSince(fp string, g int64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.byFP[fp]
	return e != nil && e.gen > g
}

// journalPut reports an inserted or replaced entry to the journal with
// its post-insert scan position (mu held).
func (r *Repository) journalPut(e *Entry) {
	if r.jn != nil {
		r.jn.appendPut(e, r.index.footprintFor(e), r.index.pos[e.ID])
	}
}

// insertOrdered splices e into its Rules 1/2 scan position and
// renumbers the index's scan positions (mu held; e must already be
// indexed so before can prefilter with its footprint).
func (r *Repository) insertOrdered(e *Entry) {
	pos := len(r.entries)
	for i, x := range r.entries {
		if r.before(e, x) {
			pos = i
			break
		}
	}
	r.entries = append(r.entries, nil)
	copy(r.entries[pos+1:], r.entries[pos:])
	r.entries[pos] = e
	r.index.renumber(r.entries)
}

// before implements the scan-order comparison: Rule 1 (subsumption)
// then Rule 2 (input/output ratio, then execution time). The footprint
// prefilter skips the pairwise traversals entirely for the common case
// of entries over unrelated inputs — a subsuming plan necessarily
// carries a superset footprint — keeping large-repository inserts
// cheap.
func (r *Repository) before(a, b *Entry) bool {
	af, bf := r.index.footprintFor(a), r.index.footprintFor(b)
	aSubsumesB := bf.coveredBy(af) && Contains(a.planSig(), b.planSig())
	bSubsumesA := af.coveredBy(bf) && Contains(b.planSig(), a.planSig())
	if aSubsumesB != bSubsumesA {
		return aSubsumesB
	}
	ra, rb := a.Stats.ioRatio(), b.Stats.ioRatio()
	if ra != rb {
		return ra > rb
	}
	return a.Stats.JobSimTime > b.Stats.JobSimTime
}

// EvictUnpinned removes the entries with the given IDs under the
// repository lock, sparing the ones pins reports pinned — an in-flight
// rewrite reading a stored output keeps it alive regardless of what the
// eviction policy chose — and returns the entries actually removed and
// the released ones among them (see remove), in scan order. A nil pins
// spares nothing.
func (r *Repository) EvictUnpinned(ids []string, pins *LeaseManager) (removed, released []*Entry) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remove(func(e *Entry) bool { return want[e.ID] && !pins.Pinned(e.ID) }, true)
}

// Remove deletes an entry by ID and returns it, or nil.
func (r *Repository) Remove(id string) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if removed, _ := r.remove(func(e *Entry) bool { return e.ID == id }, true); len(removed) > 0 {
		return removed[0]
	}
	return nil
}

// Valid reports whether an entry is usable: its output still exists and
// none of its inputs were deleted or modified since it was stored
// (eviction Rule 4's condition, checked at match time). It reads only
// the entry's immutable fields and the FS, so it takes no repository
// lock and is safe to call from Scan callbacks.
func (r *Repository) Valid(e *Entry, fs dfs.Backend) bool {
	if !fs.Exists(e.OutputPath) {
		return false
	}
	if e.OutputVersion != 0 && fs.Version(e.OutputPath) != e.OutputVersion {
		return false
	}
	for p, v := range e.InputVersions {
		if fs.Version(p) != v {
			return false
		}
	}
	return true
}

// Vacuum removes invalid entries (Rule 4) and, when window > 0, entries
// not reused within the window of simulated time (Rule 3), sparing the
// ones pins reports pinned (a nil pins spares nothing). A nil changed
// checks every entry's validity; otherwise only the entries whose
// output or an input is a changed path are checked against the DFS.
// Rule 3 is an in-memory check over every entry either way. It returns
// the removed entries and the released ones among them (see remove);
// the caller decides whether to also delete their stored outputs from
// the DFS.
func (r *Repository) Vacuum(fs dfs.Backend, now time.Duration, window time.Duration, pins *LeaseManager, changed map[string]bool) (removed, released []*Entry) {
	if changed != nil && len(changed) == 0 && window <= 0 {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remove(func(e *Entry) bool {
		if pins.Pinned(e.ID) {
			return false
		}
		if window > 0 && now-max(e.StoredAt, e.LastReused) > window {
			return true
		}
		return (changed == nil || e.touches(changed)) && !r.Valid(e, fs)
	}, true)
}

// touches reports whether the entry's output or one of its inputs is a
// path in changed (whose paths are cleaned).
func (e *Entry) touches(changed map[string]bool) bool {
	if changed[cleanPath(e.OutputPath)] {
		return true
	}
	for p := range e.InputVersions {
		if changed[cleanPath(p)] {
			return true
		}
	}
	return false
}

// NoteReuse records that an entry's output answered (part of) a query at
// simulated time now.
func (r *Repository) NoteReuse(e *Entry, now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.TimesReused++
	e.LastReused = now
}

// lookupFP returns the entry with the given plan fingerprint, or nil.
func (r *Repository) lookupFP(fp string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byFP[fp]
}

// applyPut applies a replayed durable-log put: insert e (replacing any
// entry with the same fingerprint) at scan position pos, using the
// record's persisted footprint, without journaling. A local entry
// written by a log record at or after seq wins over the replay.
func (r *Repository) applyPut(e *Entry, f *footprint, pos int, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.byFP[e.fp]; old != nil {
		if old.logSeq >= seq {
			return
		}
		r.remove(func(x *Entry) bool { return x == old }, false)
	}
	e.logSeq = seq
	if pos < 0 || pos > len(r.entries) {
		pos = len(r.entries)
	}
	r.entries = append(r.entries, nil)
	copy(r.entries[pos+1:], r.entries[pos:])
	r.entries[pos] = e
	r.index.addWithFootprint(e, f)
	r.index.renumber(r.entries)
	r.publish(e)
}

// applyRemove applies a replayed durable-log remove without journaling;
// an entry rewritten locally after seq survives.
func (r *Repository) applyRemove(id string, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remove(func(e *Entry) bool { return e.ID == id && e.logSeq <= seq }, false)
}

// applyFold applies a manifest that folded the log through sequence
// folded, without journaling: it drops the local entries written by a
// folded record whose fingerprint the manifest no longer keeps.
func (r *Repository) applyFold(folded uint64, kept map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remove(func(e *Entry) bool {
		return e.logSeq != 0 && e.logSeq <= folded && !kept[e.fingerprint()]
	}, false)
}

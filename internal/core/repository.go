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
	// not produce. Zero (legacy saved repositories) skips the check.
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

	// size memoizes the stored output's byte total, stamped with the
	// output dataset's version, so budget sweeps stop re-sizing every
	// entry on every pass. Installed by Insert and by journal replay;
	// entries outside a repository carry nil and fall back to uncached
	// sizing.
	size *outputSize

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

// outputSize is the version-stamped size cache of one entry's stored
// output. Concurrent sweeps share entries, so the pair is swapped
// atomically as one value.
type outputSize struct {
	v atomic.Pointer[sizedVersion]
}

type sizedVersion struct {
	version int64
	bytes   int64
}

// storedBytes returns the byte total of the entry's stored output,
// memoized until the output dataset's version changes — any write,
// delete or rename touching the dataset bumps its version and so
// invalidates the cache. Only leaf outputs (the path is itself one
// dataset or file, the way the engine materializes them) are cached;
// the rare prefix-of-several-datasets path is re-sized every call,
// since its nested datasets version independently.
func (e *Entry) storedBytes(fs dfs.Backend) int64 {
	c := e.size
	if c != nil {
		if s := c.v.Load(); s != nil && s.version == fs.Version(e.OutputPath) {
			return s.bytes
		}
	}
	n, ver, leaf := fs.Stat(e.OutputPath)
	if c != nil && leaf {
		c.v.Store(&sizedVersion{version: ver, bytes: n})
	}
	return n
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
// repository lock.
//
// All methods are safe for concurrent use: ReStore sits between many
// clients and the cluster, and concurrent Execute calls insert, match
// and evict against one shared repository.
//
// The Repository is deliberately passive — an ordered, synchronized
// map. The policies that make it a managed shared resource (the
// cross-query claim protocol, the byte budget and its eviction
// policies, orphan reclamation) live in StorageManager, which wraps a
// Repository and drives Vacuum/EvictUnpinned under the pin machinery.
type Repository struct {
	mu      sync.RWMutex
	entries []*Entry
	nextID  int
	byFP    map[string]*Entry
	index   *planIndex
	// gen counts published entry versions: inserts, replacements and
	// replayed puts.
	gen int64

	// idPrefix prefixes generated entry IDs ("e3" → "<prefix>e3") so
	// repositories journaling into one shared durable log — each process
	// allocates IDs independently — can never collide. Set once before
	// the first Insert.
	idPrefix string

	// jn, when non-nil, receives every entry mutation under the write
	// lock: the durable event log appends a record per Insert
	// (including replacement), Remove, EvictUnpinned and Vacuum.
	// Replayed records from other processes are applied through
	// applyPut/applyRemove, which bypass it.
	jn journal

	// negs is the negative-containment cache. It is read and fed on the
	// match path while the repository read lock is already held, so it
	// has a lock of its own. Keys hold entry pointers, so it is
	// invalidated whenever an entry is replaced or removed.
	negs *negCache

	// pinMu guards pins. Lock order: mu before pinMu (Pin is called
	// from Scan callbacks holding mu's read side; Vacuum checks pins
	// while holding mu's write side; nothing takes pinMu then mu).
	pinMu sync.Mutex
	// pins counts in-flight executions whose rewritten jobs read an
	// entry's stored output; Vacuum spares pinned entries so another
	// client's eviction pass cannot delete an output between this
	// client's rewrite and its engine run.
	pins map[string]int
	// pinHook, when non-nil, mirrors pin transitions to shared storage
	// (PinSet): 0→1 broadcasts the pin to peer processes, 1→0 withdraws
	// it. Called under pinMu, so the broadcast is placed before the
	// match that pinned returns to its caller.
	pinHook pinBroadcast

	// Matcher counters (MatcherStats), all monotonic. The traversal
	// counters are fed by Rewriters and span submissions.
	probes          atomic.Int64
	probeCandidates atomic.Int64
	scans           atomic.Int64
	scanVisited     atomic.Int64
	traversals      atomic.Int64
	matches         atomic.Int64
	negHits         atomic.Int64
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		byFP:  map[string]*Entry{},
		pins:  map[string]int{},
		index: newPlanIndex(),
		negs:  newNegCache(negCacheSize),
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
func (r *Repository) noteMatchWork(traversals, negHits int64, matched bool) {
	r.traversals.Add(traversals)
	r.negHits.Add(negHits)
	if matched {
		r.matches.Add(1)
	}
}

// MatcherStats snapshots the matcher counters and index gauges.
func (r *Repository) MatcherStats() MatcherStats {
	r.mu.RLock()
	entries, sigs := len(r.index.meta), len(r.index.postings)
	r.mu.RUnlock()
	st := MatcherStats{
		Probes:          r.probes.Load(),
		Candidates:      r.probeCandidates.Load(),
		Scans:           r.scans.Load(),
		ScanVisited:     r.scanVisited.Load(),
		FullTraversals:  r.traversals.Load(),
		Matches:         r.matches.Load(),
		NegativeHits:    r.negHits.Load(),
		IndexEntries:    entries,
		IndexSignatures: sigs,
	}
	st.NegCacheEvictions, st.NegCacheSize = r.negs.stats()
	return st
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
		// The replacement may point at a different output; never inherit
		// the old entry's memoized size.
		ne.size = &outputSize{}
		for i, x := range r.entries {
			if x == old {
				r.entries = append(r.entries[:i], r.entries[i+1:]...)
				break
			}
		}
		r.index.remove(old)
		r.negs.invalidate(old)
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
	if e.size == nil {
		e.size = &outputSize{}
	}
	r.index.add(e)
	r.insertOrdered(e)
	r.publish(e)
	r.journalPut(e)
	return e
}

// publish makes e the entry of its fingerprint and stamps its
// publication count (mu held).
func (r *Repository) publish(e *Entry) {
	r.gen++
	e.gen = r.gen
	r.byFP[e.fp] = e
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

// journalRemove reports a removed entry to the journal (mu held).
func (r *Repository) journalRemove(e *Entry) {
	if r.jn != nil {
		r.jn.appendRemove(e)
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
// repository lock, sparing pinned ones — an in-flight rewrite reading a
// stored output keeps it alive regardless of what the eviction policy
// chose — and returns the entries actually removed, in the given order.
func (r *Repository) EvictUnpinned(ids []string) []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var removed []*Entry
	for _, id := range ids {
		if r.pinned(id) {
			continue
		}
		for i, e := range r.entries {
			if e.ID == id {
				r.entries = append(r.entries[:i], r.entries[i+1:]...)
				delete(r.byFP, e.fingerprint())
				r.index.remove(e)
				r.negs.invalidate(e)
				r.journalRemove(e)
				removed = append(removed, e)
				break
			}
		}
	}
	if len(removed) > 0 {
		r.index.renumber(r.entries)
	}
	return removed
}

// Remove deletes an entry by ID and returns it, or nil.
func (r *Repository) Remove(id string) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.entries {
		if e.ID == id {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			delete(r.byFP, e.fingerprint())
			r.index.remove(e)
			r.negs.invalidate(e)
			r.journalRemove(e)
			r.index.renumber(r.entries)
			return e
		}
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
// not reused within the window of simulated time (Rule 3). It returns
// the removed entries; the caller decides whether to also delete their
// stored outputs from the DFS.
func (r *Repository) Vacuum(fs dfs.Backend, now time.Duration, window time.Duration) []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var removed []*Entry
	kept := r.entries[:0]
	for _, e := range r.entries {
		if r.pinned(e.ID) {
			kept = append(kept, e)
			continue
		}
		bad := !r.Valid(e, fs)
		if !bad && window > 0 {
			last := e.StoredAt
			if e.LastReused > last {
				last = e.LastReused
			}
			if now-last > window {
				bad = true
			}
		}
		if bad {
			delete(r.byFP, e.fingerprint())
			r.index.remove(e)
			r.negs.invalidate(e)
			r.journalRemove(e)
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	if len(removed) > 0 {
		r.index.renumber(r.entries)
	}
	return removed
}

// NoteReuse records that an entry's output answered (part of) a query at
// simulated time now.
func (r *Repository) NoteReuse(e *Entry, now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.TimesReused++
	e.LastReused = now
}

// Pin marks the entry as referenced by an in-flight execution: Vacuum
// will not remove it (nor let its output be deleted) until a matching
// Unpin. Pins nest. Safe to call from a Scan or Probe callback — the
// rewriter pins at match time, while still under the read lock, so no
// vacuum can slip between matching an entry and protecting it.
func (r *Repository) Pin(id string) {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	r.pins[id]++
	if r.pins[id] == 1 && r.pinHook != nil {
		r.pinHook.notePin(id)
	}
}

// Unpin releases one Pin.
func (r *Repository) Unpin(id string) {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	if r.pins[id] <= 1 {
		delete(r.pins, id)
		if r.pinHook != nil {
			r.pinHook.noteUnpin(id)
		}
	} else {
		r.pins[id]--
	}
}

// pinBroadcast mirrors local pin transitions to shared storage so
// peer processes see them; see PinSet.
type pinBroadcast interface {
	notePin(id string)
	noteUnpin(id string)
}

// pinned reports whether the entry has in-flight references.
func (r *Repository) pinned(id string) bool {
	r.pinMu.Lock()
	defer r.pinMu.Unlock()
	return r.pins[id] > 0
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
		for i, x := range r.entries {
			if x == old {
				r.entries = append(r.entries[:i], r.entries[i+1:]...)
				break
			}
		}
		r.index.remove(old)
		r.negs.invalidate(old)
	}
	e.logSeq = seq
	if e.size == nil {
		e.size = &outputSize{}
	}
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
	for i, e := range r.entries {
		if e.ID != id {
			continue
		}
		if e.logSeq > seq {
			return
		}
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
		delete(r.byFP, e.fingerprint())
		r.index.remove(e)
		r.negs.invalidate(e)
		r.index.renumber(r.entries)
		return
	}
}

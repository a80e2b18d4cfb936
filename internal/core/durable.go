package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/physical"
)

// This file is the repository's durability subsystem: a crash-safe
// manifest + append-only event log on the DFS, replacing "the
// repository is process memory, Save is a full rewrite" with storage
// the paper assumes — a persistent store that survives restarts and is
// shared by every serving process on the same DFS.
//
//   - Every repository mutation (Insert, replacement, Remove, Evict,
//     Vacuum) appends one record to "<root>/log/" via the journal hook,
//     under the repository lock, before the mutation is acknowledged.
//     Records carry the entry's metadata, its canonical fingerprint,
//     its signature footprint and scan position, and the plan as an
//     opaque encoded blob — so recovery rebuilds the signature index
//     and scan order from persisted summaries without decoding a single
//     stored plan (plans decode lazily, on the first containment
//     traversal that needs them).
//
//   - Periodic compaction folds the log into a fresh "<root>/MANIFEST"
//     via write-temp-then-rename: the manifest is only ever replaced by
//     a complete snapshot, and records newer than its FoldedThrough
//     sequence survive trimming, so a crash at any boundary — between
//     appends, before the rename, after the rename but before the trim,
//     mid-trim — recovers to exactly the acknowledged state.
//
//   - Log records are allocated dense sequence numbers through the
//     DFS's version compare-and-swap, so several processes append to
//     one log without a coordinator; Refresh tails the log, applying
//     other writers' records, which is how a lease-waiting process
//     learns of the entry the lease holder materialized.
//
// The recovery suite checks the crash claim from outside: it crashes
// the log's DFS (dfstest.Faulty) after every mutation and recovers.

// DefaultCompactEvery is the number of appended records between
// automatic log compactions.
const DefaultCompactEvery = 64

// manifestFormat versions the manifest encoding.
const manifestFormat = 1

// compactFingerprint is the reserved lease name serializing compaction
// across processes.
const compactFingerprint = "\x00compact"

// DurableConfig configures OpenDurableLog.
type DurableConfig struct {
	// Root is the DFS directory the manifest and log live under.
	Root string
	// Writer is this process's writer ID, from AllocWriter.
	Writer string
	// CompactEvery is the append count between automatic compactions
	// (0 = DefaultCompactEvery, negative = never auto-compact).
	CompactEvery int
	// Leases, when non-nil, makes compaction mutually exclusive across
	// processes through a lease; without it, only one process may
	// compact.
	Leases *LeaseManager
}

// logOp is the record type tag.
type logOp byte

const (
	opPut    logOp = 'P'
	opRemove logOp = 'R'
)

// entryRecord is the persisted form of one repository entry: everything
// the Entry carries, plus the derived summaries — fingerprint,
// footprint, scan position — that let recovery rebuild identity, index
// and order without touching Plan, which stays an opaque blob until a
// containment traversal decodes it.
type entryRecord struct {
	ID            string
	Fingerprint   string
	Plan          []byte // gob-encoded PlanSig, decoded lazily
	OutputPath    string
	Stats         EntryStats
	InputVersions map[string]int64
	OutputVersion int64
	InputBases    map[string]dfs.Snapshot
	Merge         *physical.MergeSpec
	WholeJob      bool
	StoredAt      time.Duration
	LastReused    time.Duration
	TimesReused   int

	// Footprint summary (see footprint in index.go).
	Frontier string
	Sigs     []string
	Loads    []string

	// Pos is the entry's scan position when the record was written; Seq
	// the log sequence that wrote it (entries folded into a manifest
	// keep the sequence of their last record).
	Pos int
	Seq uint64
}

// logRecord is one event-log file.
type logRecord struct {
	Seq    uint64
	Writer string
	Op     logOp
	// Entry is set for puts, RemoveID for removes.
	Entry    *entryRecord
	RemoveID string
}

// manifestFile is the compacted snapshot: the full entry set in scan
// order, folding every log record up to FoldedThrough.
type manifestFile struct {
	Format        int
	FoldedThrough uint64
	Entries       []*entryRecord
}

// recordOf snapshots an entry for persistence. Recovered entries hand
// back their still-encoded plan verbatim — compacting a repository that
// was itself recovered re-encodes nothing and decodes nothing.
func recordOf(e *Entry, f *footprint, pos int) (*entryRecord, error) {
	rec := &entryRecord{
		ID:            e.ID,
		Fingerprint:   e.fingerprint(),
		OutputPath:    e.OutputPath,
		Stats:         e.Stats,
		InputVersions: e.InputVersions,
		OutputVersion: e.OutputVersion,
		InputBases:    e.InputBases,
		Merge:         e.Merge,
		WholeJob:      e.WholeJob,
		StoredAt:      e.StoredAt,
		LastReused:    e.LastReused,
		TimesReused:   e.TimesReused,
		Frontier:      f.frontier,
		Sigs:          f.sigs,
		Loads:         f.loads,
		Pos:           pos,
		Seq:           e.logSeq,
	}
	if e.lazy != nil {
		rec.Plan = e.lazy.enc
		return rec, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e.Plan); err != nil {
		return nil, fmt.Errorf("core: encoding entry plan: %w", err)
	}
	rec.Plan = buf.Bytes()
	return rec, nil
}

// entryOf rebuilds an entry (plan still encoded) and its footprint from
// a persisted record.
func entryOf(rec *entryRecord) (*Entry, *footprint) {
	e := &Entry{
		ID:            rec.ID,
		OutputPath:    rec.OutputPath,
		Stats:         rec.Stats,
		InputVersions: rec.InputVersions,
		OutputVersion: rec.OutputVersion,
		InputBases:    rec.InputBases,
		Merge:         rec.Merge,
		WholeJob:      rec.WholeJob,
		StoredAt:      rec.StoredAt,
		LastReused:    rec.LastReused,
		TimesReused:   rec.TimesReused,
		fp:            rec.Fingerprint,
		lazy:          &lazyPlan{enc: rec.Plan},
	}
	f := &footprint{frontier: rec.Frontier, sigs: rec.Sigs, loads: rec.Loads}
	return e, f
}

// DurableLog is the write-ahead event log of one repository. It
// implements the repository's journal interface (appends under the
// repository lock) and owns recovery, refresh (tailing other writers'
// records) and compaction. All methods are safe for concurrent use.
type DurableLog struct {
	fs     dfs.Backend
	root   string
	repo   *Repository
	writer string

	compactEvery int
	compactLock  *LeaseManager

	// seqMu guards the sequence state. Lock order: repository lock (the
	// append path holds it) before seqMu; nothing under seqMu takes the
	// repository lock.
	seqMu        sync.Mutex
	nextSeq      uint64
	applied      uint64
	sinceCompact int
	manifestVer  int64
	// self marks sequence numbers this process wrote that are above
	// applied: they are already reflected locally, so refresh skips them
	// and compaction may fold through them.
	self map[uint64]bool

	// refreshMu serializes refresh and compaction passes.
	refreshMu sync.Mutex

	appends     atomic.Int64
	dropped     atomic.Int64
	replayed    atomic.Int64
	compactions atomic.Int64
	resyncs     atomic.Int64
	torn        atomic.Int64
	recovered   int
	// maxSim is the largest simulated timestamp seen across recovered
	// and replayed entries (atomic: live refresh updates it too).
	maxSim atomic.Int64
}

// OpenDurableLog opens (or initializes) the durable repository at
// cfg.Root on fs as writer cfg.Writer: it rebuilds a Repository from
// the manifest and event log — using the persisted footprints,
// fingerprints and positions; no stored plan is decoded — and attaches
// itself as the repository's journal, so every subsequent mutation is
// logged before it is acknowledged.
func OpenDurableLog(fs dfs.Backend, cfg DurableConfig) (*DurableLog, *Repository, error) {
	root := cleanPath(cfg.Root)
	if root == "" || cfg.Writer == "" {
		return nil, nil, fmt.Errorf("core: durable log needs a root path and a writer ID")
	}
	every := cfg.CompactEvery
	if every == 0 {
		every = DefaultCompactEvery
	}
	dl := &DurableLog{
		fs:           fs,
		root:         root,
		writer:       cfg.Writer,
		compactEvery: every,
		compactLock:  cfg.Leases,
		nextSeq:      1, // sequence numbers start at 1; replay reads applied+1
		self:         map[uint64]bool{},
	}
	repo := NewRepository()
	repo.idPrefix = dl.writer
	dl.repo = repo

	if m, ver, ok, err := dl.readManifest(); err != nil {
		return nil, nil, err
	} else if ok {
		for i, rec := range m.Entries {
			e, f := entryOf(rec)
			repo.applyPut(e, f, i, rec.Seq)
			dl.noteSim(rec.StoredAt, rec.LastReused)
		}
		dl.applied = m.FoldedThrough
		dl.nextSeq = m.FoldedThrough + 1
		dl.manifestVer = ver
	}
	// Replay the log tail. This is the same loop live refresh runs —
	// the fresh writer ID owns no records yet, so every one applies.
	dl.refreshMu.Lock()
	_, err := dl.refreshLocked()
	dl.refreshMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	dl.recovered = repo.Len()
	repo.jn = dl // attached only now: replayed entries are not re-journaled
	return dl, repo, nil
}

// Writer returns this process's unique writer ID ("w1", "w2", ...).
func (dl *DurableLog) Writer() string { return dl.writer }

// Root returns the log's DFS directory.
func (dl *DurableLog) Root() string { return dl.root }

// MaxSimTime returns the largest simulated timestamp seen across
// recovered entries, so a recovered driver can resume its clock past
// every persisted event.
func (dl *DurableLog) MaxSimTime() time.Duration { return time.Duration(dl.maxSim.Load()) }

func (dl *DurableLog) noteSim(stored, reused time.Duration) {
	for _, t := range [...]int64{int64(stored), int64(reused)} {
		for {
			cur := dl.maxSim.Load()
			if t <= cur || dl.maxSim.CompareAndSwap(cur, t) {
				break
			}
		}
	}
}

// recPath is the log file of one sequence number; zero-padding keeps
// lexical and numeric order aligned.
func (dl *DurableLog) recPath(seq uint64) string {
	return fmt.Sprintf("%s/log/r%019d", dl.root, seq)
}

func (dl *DurableLog) manifestPath() string { return dl.root + "/MANIFEST" }

// appendPut implements journal: one put record per Insert/replacement,
// called under the repository write lock.
func (dl *DurableLog) appendPut(e *Entry, f *footprint, pos int) {
	rec, err := recordOf(e, f, pos)
	if err != nil {
		dl.dropped.Add(1)
		return
	}
	if seq, ok := dl.append(&logRecord{Writer: dl.writer, Op: opPut, Entry: rec}); ok {
		e.logSeq = seq
	}
}

// appendRemove implements journal: one remove record per
// Remove/Evict/Vacuum victim, called under the repository write lock.
func (dl *DurableLog) appendRemove(e *Entry) {
	dl.append(&logRecord{Writer: dl.writer, Op: opRemove, RemoveID: e.ID})
}

// append writes one record at the next free sequence number, reserving
// it through the DFS version CAS so concurrent writers on other
// processes interleave into one dense, totally ordered log. A record
// slot is free only if it was NEVER written (version zero): a slot that
// is absent but version-bumped was trimmed by a peer's compaction, and
// writing there would strand the record below the fold horizon where no
// replay ever looks — the writer must jump past the manifest's
// FoldedThrough instead.
//
// A record that cannot be written — unencodable, or storage that drops
// the write — is not retried; it is counted in DroppedAppends, the only
// trace that an acknowledged mutation is not durable.
func (dl *DurableLog) append(rec *logRecord) (_ uint64, ok bool) {
	defer func() {
		if !ok {
			dl.dropped.Add(1)
		}
	}()
	dl.seqMu.Lock()
	defer dl.seqMu.Unlock()
	seq := dl.nextSeq
	for {
		rec.Seq = seq
		if rec.Entry != nil {
			rec.Entry.Seq = seq
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			return 0, false
		}
		p := dl.recPath(seq)
		if _, ok := dl.fs.WriteFileIf(p, buf.Bytes(), 0); ok {
			break
		}
		if dl.fs.Exists(p) {
			// Another writer took this sequence — or our own CAS tore
			// mid-write, leaving unacknowledged garbage in the slot.
			// Either way the slot is consumed; ours moves up one.
			seq++
			continue
		}
		if dl.fs.Version(p) == 0 {
			// The CAS expected version zero, the slot is still at
			// version zero and holds nothing: the write itself was
			// dropped (a dead process, failing storage). Drop the
			// record as a crashed writer would — retrying or probing
			// upward would spin against storage that accepts nothing.
			return 0, false
		}
		// Trimmed slot: a peer compacted past us. Restart above its
		// fold horizon; the skipped span is folded into the manifest,
		// which the next refresh resyncs from.
		if m, _, ok, _ := dl.readManifest(); ok && m.FoldedThrough >= seq {
			seq = m.FoldedThrough + 1
		} else {
			seq++ // no readable manifest: probe upward
		}
	}
	dl.nextSeq = seq + 1
	dl.self[seq] = true
	dl.sinceCompact++
	dl.appends.Add(1)
	return seq, true
}

// Refresh tails the event log, applying records other processes
// appended since the last pass, and returns how many were applied. A
// process that fell behind a compaction (its next record was folded and
// trimmed) resynchronizes from the manifest first.
func (dl *DurableLog) Refresh() int {
	dl.refreshMu.Lock()
	defer dl.refreshMu.Unlock()
	n, _ := dl.refreshLocked()
	return n
}

// refreshLocked replays the log from applied+1 (refreshMu held). A slot
// this process wrote is already reflected in its repository, so it is
// passed over unread.
func (dl *DurableLog) refreshLocked() (int, error) {
	n := 0
	for {
		dl.seqMu.Lock()
		next := dl.applied + 1
		own := dl.self[next]
		dl.seqMu.Unlock()
		if !own {
			data, err := dl.fs.ReadFile(dl.recPath(next))
			if err != nil {
				resynced, rerr := dl.maybeResync(next)
				if rerr != nil {
					return n, rerr
				}
				if !resynced {
					return n, nil
				}
				continue
			}
			var rec logRecord
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
				// An undecodable record is a torn CAS write: the writer
				// crashed mid-append, so the record was never
				// acknowledged and losing it is correct — skip the slot
				// and keep replaying. (The writer itself saw the failed
				// CAS and moved its record up one sequence.)
				dl.torn.Add(1)
			} else if rec.Writer != dl.writer {
				dl.applyRecord(&rec)
				n++
			}
		}
		dl.seqMu.Lock()
		dl.applied = next
		delete(dl.self, next)
		if dl.nextSeq <= dl.applied {
			dl.nextSeq = dl.applied + 1
		}
		dl.seqMu.Unlock()
	}
}

// applyRecord folds one foreign record into the local repository.
func (dl *DurableLog) applyRecord(rec *logRecord) {
	switch rec.Op {
	case opPut:
		if rec.Entry != nil {
			e, f := entryOf(rec.Entry)
			dl.repo.applyPut(e, f, rec.Entry.Pos, rec.Seq)
			dl.noteSim(rec.Entry.StoredAt, rec.Entry.LastReused)
		}
	case opRemove:
		dl.repo.applyRemove(rec.RemoveID, rec.Seq)
	}
	dl.replayed.Add(1)
}

// maybeResync handles a missing next record: if another process's
// compaction folded past it, reload from the (newer) manifest; returns
// whether the refresh loop should continue.
func (dl *DurableLog) maybeResync(next uint64) (bool, error) {
	mp := dl.manifestPath()
	dl.seqMu.Lock()
	seen := dl.manifestVer
	dl.seqMu.Unlock()
	if dl.fs.Version(mp) == seen {
		return false, nil
	}
	m, ver, ok, err := dl.readManifest()
	if err != nil || !ok {
		return false, err
	}
	dl.seqMu.Lock()
	dl.manifestVer = ver
	dl.seqMu.Unlock()
	if m.FoldedThrough < next {
		return false, nil // newer manifest, but our tail is still in the log
	}
	// The records we were about to read are folded into this manifest:
	// drop local entries the fold removed, apply what it kept.
	dl.resyncs.Add(1)
	inManifest := map[string]bool{}
	for _, rec := range m.Entries {
		inManifest[rec.Fingerprint] = true
	}
	dl.repo.applyFold(m.FoldedThrough, inManifest)
	for _, rec := range m.Entries {
		e, f := entryOf(rec)
		dl.repo.applyPut(e, f, rec.Pos, rec.Seq)
	}
	dl.seqMu.Lock()
	if m.FoldedThrough > dl.applied {
		dl.applied = m.FoldedThrough
		for s := range dl.self {
			if s <= m.FoldedThrough {
				delete(dl.self, s)
			}
		}
	}
	if dl.nextSeq <= dl.applied {
		dl.nextSeq = dl.applied + 1
	}
	dl.seqMu.Unlock()
	return true, nil
}

// readManifest loads and decodes the manifest, returning its dataset
// version and whether one exists.
func (dl *DurableLog) readManifest() (*manifestFile, int64, bool, error) {
	mp := dl.manifestPath()
	ver := dl.fs.Version(mp)
	data, err := dl.fs.ReadFile(mp)
	if err != nil {
		return nil, 0, false, nil
	}
	var m manifestFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, 0, false, fmt.Errorf("core: decoding manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, 0, false, fmt.Errorf("core: unsupported manifest format %d", m.Format)
	}
	return &m, ver, true, nil
}

// MaybeCompact folds the log into a fresh manifest when enough records
// accumulated since the last fold. The driver calls it after
// executions; the janitor calls it every sweep.
func (dl *DurableLog) MaybeCompact() error {
	if dl.compactEvery < 0 {
		return nil
	}
	dl.seqMu.Lock()
	due := dl.sinceCompact >= dl.compactEvery
	dl.seqMu.Unlock()
	if !due {
		return nil
	}
	return dl.Compact()
}

// Compact folds manifest + log into a new manifest: refresh to the log
// head, snapshot the repository in scan order, write the snapshot to a
// temporary file, rename it over the manifest (the only publication
// step, and an atomic one), then trim the folded records. A crash at
// any point leaves a recoverable combination: the old manifest with the
// full log, or the new manifest with a harmlessly stale tail.
func (dl *DurableLog) Compact() error {
	dl.refreshMu.Lock()
	defer dl.refreshMu.Unlock()
	if _, err := dl.refreshLocked(); err != nil {
		return err
	}
	if dl.compactLock != nil {
		lease, ok := dl.compactLock.TryAcquire(compactFingerprint)
		if !ok {
			return nil // another process is compacting; its fold serves us too
		}
		defer dl.compactLock.Release(lease)
	}

	recs, folded, err := dl.snapshot()
	if err != nil {
		return err
	}
	m := manifestFile{Format: manifestFormat, FoldedThrough: folded, Entries: recs}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("core: encoding manifest: %w", err)
	}
	tmp := dl.manifestPath() + "." + dl.writer + ".tmp"
	if err := dl.fs.WriteFile(tmp, buf.Bytes()); err != nil {
		return err
	}
	ver, err := dl.fs.Rename(tmp, dl.manifestPath())
	if err != nil {
		return err
	}
	dl.seqMu.Lock()
	dl.manifestVer = ver
	dl.sinceCompact = 0
	dl.seqMu.Unlock()
	dl.trim(folded)
	dl.compactions.Add(1)
	return nil
}

// snapshot captures the repository in scan order together with the
// highest sequence number whose effects the snapshot is guaranteed to
// contain: everything applied, extended through this process's own
// not-yet-"applied" appends (reflected locally by construction). A
// foreign record beyond that stays in the log and replays over the
// manifest.
//
// Every self-authored record the fold horizon passes is marked applied
// here, under the same lock that extends the horizon. The horizon may
// legitimately run ahead of the last refresh — an own append can land
// between Compact's refresh and this snapshot — and trim is about to
// delete those records; if applied lagged behind, the next refresh
// would wait forever on a trimmed slot the unchanged manifest can
// never resync it past (the compact/refresh stall).
func (dl *DurableLog) snapshot() ([]*entryRecord, uint64, error) {
	r := dl.repo
	r.mu.RLock()
	defer r.mu.RUnlock()
	recs := make([]*entryRecord, 0, len(r.entries))
	for i, e := range r.entries {
		rec, err := recordOf(e, r.index.footprintFor(e), i)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
	}
	// The repository read lock is held: appends (which run under the
	// repository write lock) cannot land while the horizon is computed,
	// so every sequence in self is already reflected in recs above.
	dl.seqMu.Lock()
	folded := dl.applied
	for dl.self[folded+1] {
		folded++
		delete(dl.self, folded)
	}
	if folded > dl.applied {
		dl.applied = folded
	}
	if dl.nextSeq <= dl.applied {
		dl.nextSeq = dl.applied + 1
	}
	dl.seqMu.Unlock()
	return recs, folded, nil
}

// trim deletes log records folded into the manifest.
func (dl *DurableLog) trim(folded uint64) {
	prefix := dl.root + "/log"
	for _, ds := range dl.fs.Datasets(prefix) {
		name := strings.TrimPrefix(ds, prefix+"/")
		if name == ds || !strings.HasPrefix(name, "r") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, "r"), 10, 64)
		if err != nil || seq > folded {
			continue
		}
		_ = dl.fs.Delete(ds)
	}
	dl.seqMu.Lock()
	for s := range dl.self {
		if s <= folded {
			delete(dl.self, s)
		}
	}
	dl.seqMu.Unlock()
}

// AllocWriter allocates a process-unique writer ID ("w1", "w2", ...)
// through a CAS counter file under the durable log's root.
func AllocWriter(fs dfs.Backend, root string) string {
	p := cleanPath(root) + "/writers"
	for {
		ver := fs.Version(p)
		n := 0
		if data, err := fs.ReadFile(p); err == nil {
			n, _ = strconv.Atoi(strings.TrimSpace(string(data)))
		}
		if _, ok := fs.WriteFileIf(p, []byte(strconv.Itoa(n+1)), ver); ok {
			return fmt.Sprintf("w%d", n+1)
		}
	}
}

// DurabilityStats is a point-in-time snapshot of the durable log.
type DurabilityStats struct {
	// Writer is this process's writer ID; Root the log's DFS directory.
	Writer string
	Root   string
	// RecoveredEntries counts entries rebuilt at open (manifest + log),
	// and PlanDecodes how many recovered plans have been decoded
	// process-wide since then (cold recovery leaves this at zero; each
	// decode is a matcher traversal touching that entry for the first
	// time).
	RecoveredEntries int
	PlanDecodes      int64
	// Appends, Replayed, Compactions and Resyncs count log traffic:
	// records this process wrote, foreign records it applied, folds it
	// performed, and manifest resyncs after falling behind a fold.
	// TornRecords counts undecodable (torn-write) log records replay
	// skipped — each one is a record some writer's crash left
	// unacknowledged. DroppedAppends counts records this process failed
	// to write (encode failure, storage dropping the write): each is a
	// repository mutation acknowledged in memory that a restart will not
	// see.
	Appends        int64
	DroppedAppends int64
	Replayed       int64
	Compactions    int64
	Resyncs        int64
	TornRecords    int64
	// LogRecords and AppliedSeq describe the shared log: live record
	// files right now, and the highest sequence this process has
	// applied.
	LogRecords int
	AppliedSeq uint64
}

// Stats snapshots the log's counters.
func (dl *DurableLog) Stats() DurabilityStats {
	dl.seqMu.Lock()
	applied := dl.applied
	dl.seqMu.Unlock()
	return DurabilityStats{
		Writer:           dl.writer,
		Root:             dl.root,
		RecoveredEntries: dl.recovered,
		PlanDecodes:      PlanDecodes(),
		Appends:          dl.appends.Load(),
		DroppedAppends:   dl.dropped.Load(),
		Replayed:         dl.replayed.Load(),
		Compactions:      dl.compactions.Load(),
		Resyncs:          dl.resyncs.Load(),
		TornRecords:      dl.torn.Load(),
		LogRecords:       len(dl.fs.Datasets(dl.root + "/log")),
		AppliedSeq:       applied,
	}
}

package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// StorageManager is the active half of the repository: where Repository
// is a passive ordered map of stored outputs, the manager owns the
// policies that make those outputs a shared, bounded resource across
// concurrent queries. It provides three services:
//
//   - The claim protocol. Before materializing a sub-job output, an
//     execution claims the output's plan fingerprint by taking its DFS
//     lease (LeaseManager); a concurrent execution — in this process or
//     another sharing the DFS — that finds the lease held blocks
//     (context-aware) until the holder releases it, then reuses the
//     freshly committed entry instead of materializing its own copy.
//     Duplicate cross-query work becomes in-flight sharing.
//
//   - Maintenance after every execution (Maintain). The engine reports
//     every dataset path it deletes or renames to the manager, which
//     keeps the set of changed paths. After each query, Maintain swaps
//     that set out and checks the validity of only the entries whose
//     output or an input is in it (Rule 4), removes entries idle beyond
//     the reuse window (Rule 3), enforces the byte budget and compacts
//     the journal when due. Changes that do not go through the engine —
//     appends by another writer, raw DFS writes, a peer process's
//     deletes — are not reported: the rewriter's probe still checks
//     Valid before any reuse, so such an entry is never reused, and the
//     janitor's full pass (Sweep) removes it.
//
//   - Byte-budgeted eviction. MaxBytes bounds the bytes the repository
//     retains; when maintenance or the janitor finds it over budget,
//     the configured EvictionPolicy picks victims. Evictions
//     and the vacuum spare every pinned entry — this process's pins,
//     counted by its lease manager, and its peers' pin records — so
//     entries referenced by in-flight rewrites are never deleted. Each
//     entry's output is sized once (Entry.storedBytes). The repository
//     counts the entries pointing at each output path, so eviction and
//     the vacuum return the outputs they released, and the manager
//     deletes and counts those without rescanning the repository.
//
//   - Orphan reclamation. VacuumOrphans deletes per-query DFS
//     namespaces (restore/<qid>, tmp/<qid>) whose query is no longer
//     in flight and whose data no repository entry references — the
//     debris of cancelled and failed queries, and the unreferenced
//     temporaries of completed ones.
//
// All methods are safe for concurrent use.
type StorageManager struct {
	repo *Repository
	eng  *mapreduce.Engine // every dataset delete goes through it
	cfg  StorageConfig

	// changed holds the cleaned dataset paths the engine deleted or
	// renamed since the last Maintain, which swaps it out.
	changedMu sync.Mutex
	changed   map[string]bool

	// Counters for StorageStats, all monotonic.
	claimsGranted   atomic.Int64
	claimsCommitted atomic.Int64
	claimsAborted   atomic.Int64
	claimWaits      atomic.Int64
	claimReuses     atomic.Int64
	evictions       atomic.Int64
	evictedBytes    atomic.Int64
	sweeps          atomic.Int64
	orphanDatasets  atomic.Int64
	orphanBytes     atomic.Int64
}

// StorageConfig is what a StorageManager is built from, fixed for its
// lifetime; the zero value is an unbudgeted, non-durable store on the
// legacy top-level namespaces.
type StorageConfig struct {
	// MaxBytes is the byte budget (<= 0 disables enforcement) and
	// Policy what picks victims under it (nil = CostBenefitPolicy).
	MaxBytes int64
	Policy   EvictionPolicy

	// NamespaceRoot is the root the managed per-query namespaces live
	// under: "" (the legacy layout) reserves the top-level "restore/"
	// and "tmp/" prefixes for the janitor's orphan sweep; a non-empty
	// root confines them to "<root>/restore" and "<root>/tmp", so user
	// datasets that happen to be named under "tmp/" or "restore/" are
	// never reclaimed.
	NamespaceRoot string

	// QueryPrefix, when non-empty, restricts the orphan sweep to this
	// process's own per-query namespaces (query IDs carry the writer
	// prefix when several processes share one DFS); each process
	// janitors only its own debris, never a peer's live query — a
	// peer's registry is invisible here, so every foreign namespace
	// would look dead.
	QueryPrefix string

	// Leases backs every claim and pin: one lease per fingerprint
	// serializes materialization across every execution sharing the
	// DFS, and peers' pin records spare the outputs their rewrites read
	// from eviction and vacuum. Nil builds a manager over
	// "<NamespaceRoot>/locks".
	Leases *LeaseManager

	// Durable, the durable event log, propagates committed entries
	// between repositories sharing one DFS, so a claim waiter in another
	// process sees the holder's entry. Nil for a non-durable store.
	Durable *DurableLog
}

// NewStorageManager returns a manager over the repository and the
// engine's file system, and registers itself as the engine's dataset
// change hook (an engine reports to one manager). Datasets it reclaims
// are deleted through the engine, so their decoded copies leave the
// batch cache with them.
func NewStorageManager(repo *Repository, eng *mapreduce.Engine, cfg StorageConfig) *StorageManager {
	if cfg.Policy == nil {
		cfg.Policy = CostBenefitPolicy{}
	}
	cfg.NamespaceRoot = cleanPath(cfg.NamespaceRoot)
	if cfg.Leases == nil {
		cfg.Leases = NewLeaseManager(eng.FS(), NamespacePath(cfg.NamespaceRoot, "locks"), "", 0, 0)
	}
	m := &StorageManager{repo: repo, eng: eng, cfg: cfg, changed: map[string]bool{}}
	eng.OnDatasetChange(m.NoteChange)
	return m
}

// NoteChange records that the dataset at path was deleted, renamed away
// or replaced, so the next Maintain checks the entries that store or
// read it. The engine calls it for every DeleteDataset and
// RenameDataset; a writer that changes a dataset outside the engine
// calls it itself.
func (m *StorageManager) NoteChange(path string) {
	m.changedMu.Lock()
	m.changed[cleanPath(path)] = true
	m.changedMu.Unlock()
}

// takeChanged swaps out the changed-path set.
func (m *StorageManager) takeChanged() map[string]bool {
	m.changedMu.Lock()
	defer m.changedMu.Unlock()
	changed := m.changed
	m.changed = map[string]bool{}
	return changed
}

// namespaces returns the managed per-query namespace roots the orphan
// sweep may reclaim under.
func (m *StorageManager) namespaces() []string {
	return []string{NamespacePath(m.cfg.NamespaceRoot, "restore"), NamespacePath(m.cfg.NamespaceRoot, "tmp")}
}

// NamespacePath joins a managed-namespace path under the (possibly
// empty) namespace root, normalizing the root. It is the single
// definition of the "<root>/restore/…"+"<root>/tmp/…" layout the
// driver writes under and the janitor's orphan sweep reclaims —
// every producer and consumer of managed paths must build them here,
// or a stray slash in a configured root would silently divorce the
// writer's layout from the sweeper's.
func NamespacePath(root string, parts ...string) string {
	p := cleanPath(root)
	for _, part := range parts {
		if p == "" {
			p = part
		} else {
			p += "/" + part
		}
	}
	return p
}

// RefreshShared folds other processes' committed entries into the local
// repository (a no-op for non-durable stores); the driver calls it
// when an execution starts, so a cold process reuses what its peers
// stored without waiting for lease contention.
func (m *StorageManager) RefreshShared() {
	if m.cfg.Durable != nil {
		m.cfg.Durable.Refresh()
	}
}

// Maintain is the maintenance pass the driver runs after every
// execution. In order:
//
//  1. Vacuum: the entries whose output or an input changed since the
//     last pass (NoteChange) are checked against the DFS and removed
//     when invalid (Rule 4); when window > 0, entries idle beyond it
//     are removed too (Rule 3). Pinned entries are spared, and the
//     released sub-job outputs are deleted.
//  2. Budget: entries are evicted until the retained bytes fit
//     MaxBytes.
//  3. Compaction: a durable store's event log is compacted when due.
//
// Unlike Sweep, it neither reaps expired leases nor checks the entries
// nothing reported changed. A change is checked once: an entry spared
// for its pin is not checked again by later passes (the probe refuses
// it while it is invalid; Sweep or its replacement removes it).
func (m *StorageManager) Maintain(now, window time.Duration) {
	_, released := m.repo.Vacuum(m.eng.FS(), now, window, m.cfg.Leases, m.takeChanged())
	m.deleteOwnedOutputs(released, nil)
	m.enforceBudget(now, nil)
	m.compact()
}

// compact compacts a durable store's event log when enough records
// accumulated.
func (m *StorageManager) compact() {
	if m.cfg.Durable != nil {
		_ = m.cfg.Durable.MaybeCompact()
	}
}

// Claim is one attempt on a plan fingerprint's materialization lease.
// A won claim holds the lease: its holder is the only execution, in
// this process or any other sharing the DFS, allowed to materialize the
// fingerprint's output until it commits or aborts. A lost claim holds
// nothing; the loser waits on it with WaitShared.
type Claim struct {
	fp string
	// lease backs a won claim (nil on a lost one) and is released when
	// the claim resolves; until then the lease manager's heartbeat keeps
	// it alive while the materialization outlives the TTL.
	lease *Lease
}

// Fingerprint returns the claimed plan fingerprint.
func (c *Claim) Fingerprint() string { return c.fp }

// TryClaim takes the fingerprint's lease. It returns (claim, true) when
// the caller won and must later Commit or Abort it, or (claim, false)
// for the caller to WaitShared on: another execution holds the lease,
// or a valid entry for the fingerprint is already published — a peer
// materialized it and released its lease since the caller's rewrite —
// in which case the wait returns at once.
func (m *StorageManager) TryClaim(fp string) (*Claim, bool) {
	c := &Claim{fp: fp}
	lease, ok := m.cfg.Leases.TryAcquire(fp)
	if !ok {
		return c, false
	}
	if m.published(fp) != nil {
		m.cfg.Leases.Release(lease)
		return c, false
	}
	c.lease = lease
	m.claimsGranted.Add(1)
	return c, true
}

// published folds peers' committed entries into the repository and
// returns the valid entry of the fingerprint, or nil.
func (m *StorageManager) published(fp string) *Entry {
	m.RefreshShared()
	if e := m.repo.lookupFP(fp); e != nil && m.repo.Valid(e, m.eng.FS()) {
		return e
	}
	return nil
}

// Commit resolves a won claim after the winner registered its entry.
// The entry is already in the repository (the driver inserts at
// registration time) and — when durability is on — so is its log
// record: the journal appends inside Insert, so by the time the lease
// releases here, every waiter's refresh is guaranteed to see the entry.
func (m *StorageManager) Commit(c *Claim) {
	m.release(c)
	m.claimsCommitted.Add(1)
}

// Abort resolves a won claim without an entry: the winner failed, was
// cancelled, or its output was rejected by the sub-job selector.
// Waiters wake and contend for the claim again.
func (m *StorageManager) Abort(c *Claim) {
	m.release(c)
	m.claimsAborted.Add(1)
}

func (m *StorageManager) release(c *Claim) {
	m.cfg.Leases.Release(c.lease)
}

// WaitShared blocks until the lost claim's lease is released (or
// expires), recording the wait for StorageStats. It returns the entry
// the holder published, nil if it resolved without one, or ctx.Err().
func (m *StorageManager) WaitShared(ctx context.Context, c *Claim) (*Entry, error) {
	m.claimWaits.Add(1)
	if err := m.cfg.Leases.WaitFree(ctx, c.fp); err != nil {
		return nil, err
	}
	e := m.published(c.fp)
	if e != nil {
		m.claimReuses.Add(1)
	}
	return e, nil
}

// EntryUsage is the eviction-relevant snapshot of one entry: its stored
// byte footprint and usage recency, captured under the repository lock.
// Policies must read the mutable usage fields (LastUse, TimesReused)
// from this snapshot, not from Entry, whose counters may be updated
// concurrently.
type EntryUsage struct {
	Entry       *Entry
	Bytes       int64
	LastUse     time.Duration // max(StoredAt, LastReused) at snapshot time
	TimesReused int
}

// EvictionPolicy selects repository entries to evict when the store
// exceeds its byte budget. Victims returns entry IDs in eviction order;
// reclaim is how many bytes must go to return under budget. The manager
// applies the whole list (skipping pinned entries), so a policy that
// wants to evict no more than necessary should bound its list by
// reclaim itself.
type EvictionPolicy interface {
	Name() string
	Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string
}

// ReuseWindowPolicy is the paper's Rule 3 adapted to a budget: every
// entry idle longer than Window is evicted outright (most idle first),
// and if that alone does not reclaim enough, the least recently used of
// the remaining entries follow.
type ReuseWindowPolicy struct {
	Window time.Duration
}

// Name implements EvictionPolicy.
func (p ReuseWindowPolicy) Name() string { return "reuse-window" }

// Victims implements EvictionPolicy.
func (p ReuseWindowPolicy) Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string {
	byIdle := append([]EntryUsage(nil), usage...)
	sort.SliceStable(byIdle, func(i, j int) bool { return byIdle[i].LastUse < byIdle[j].LastUse })
	var out []string
	var freed int64
	for _, u := range byIdle {
		expired := p.Window > 0 && now-u.LastUse > p.Window
		if !expired && freed >= reclaim {
			break
		}
		out = append(out, u.Entry.ID)
		freed += u.Bytes
	}
	return out
}

// LRUPolicy evicts the least recently used entries first — an entry's
// last use is when it was stored or last answered a rewrite — taking
// only as many as the reclaim target needs.
type LRUPolicy struct{}

// Name implements EvictionPolicy.
func (LRUPolicy) Name() string { return "lru" }

// Victims implements EvictionPolicy.
func (LRUPolicy) Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string {
	byUse := append([]EntryUsage(nil), usage...)
	sort.SliceStable(byUse, func(i, j int) bool { return byUse[i].LastUse < byUse[j].LastUse })
	var out []string
	var freed int64
	for _, u := range byUse {
		if freed >= reclaim {
			break
		}
		out = append(out, u.Entry.ID)
		freed += u.Bytes
	}
	return out
}

// CostBenefitPolicy evicts the entries with the least reuse benefit per
// stored byte first: an entry's benefit is its Rule 2 input/output
// ratio (EntryStats.ioRatio) weighted by how often it has answered a
// rewrite, divided by the bytes it occupies.
type CostBenefitPolicy struct{}

// Name implements EvictionPolicy.
func (CostBenefitPolicy) Name() string { return "cost-benefit" }

// Victims implements EvictionPolicy.
func (CostBenefitPolicy) Victims(usage []EntryUsage, now time.Duration, reclaim int64) []string {
	density := func(u EntryUsage) float64 {
		b := u.Bytes
		if b <= 0 {
			b = 1
		}
		return u.Entry.Stats.ioRatio() * float64(1+u.TimesReused) / float64(b)
	}
	byBenefit := append([]EntryUsage(nil), usage...)
	sort.SliceStable(byBenefit, func(i, j int) bool { return density(byBenefit[i]) < density(byBenefit[j]) })
	var out []string
	var freed int64
	for _, u := range byBenefit {
		if freed >= reclaim {
			break
		}
		out = append(out, u.Entry.ID)
		freed += u.Bytes
	}
	return out
}

// ParseEvictionPolicy resolves a policy by name ("reuse-window", "lru",
// "cost-benefit"); the reuse-window policy takes its window separately.
func ParseEvictionPolicy(name string, window time.Duration) (EvictionPolicy, bool) {
	switch name {
	case "reuse-window", "window":
		return ReuseWindowPolicy{Window: window}, true
	case "lru":
		return LRUPolicy{}, true
	case "cost-benefit", "costbenefit", "cb":
		return CostBenefitPolicy{}, true
	}
	return nil, false
}

// UsageBytes returns the bytes the repository currently retains: the
// total size of every distinct stored output.
func (m *StorageManager) UsageBytes() int64 {
	_, total := m.usage()
	return total
}

// usage snapshots per-entry usage and the distinct-path byte total
// (two entries can share one output path; it is stored once). Each
// entry's size is measured once (Entry.storedBytes), so EnforceBudget's
// loop-to-convergence re-snapshots, and every Stats call, make no DFS
// call for an entry already measured.
func (m *StorageManager) usage() ([]EntryUsage, int64) {
	var out []EntryUsage
	seen := map[string]int64{}
	m.repo.Scan(func(e *Entry) bool {
		u := EntryUsage{Entry: e, Bytes: e.storedBytes(m.eng.FS())}
		u.LastUse, u.TimesReused = e.StoredAt, e.TimesReused
		if e.LastReused > u.LastUse {
			u.LastUse = e.LastReused
		}
		out = append(out, u)
		seen[e.OutputPath] = u.Bytes
		return true
	})
	var total int64
	for _, b := range seen {
		total += b
	}
	return out, total
}

// EnforceBudget evicts entries per the configured policy until the
// retained bytes fit MaxBytes, sparing pinned entries; it returns the
// entries removed. Stored outputs are deleted from the DFS when the
// repository owns them (sub-job outputs) and no surviving entry still
// references the path; whole-job outputs are user- or temp-visible data
// the repository only points at, and are left for the janitor or the
// user.
func (m *StorageManager) EnforceBudget(now time.Duration) []*Entry {
	return m.enforceBudget(now, nil)
}

// enforceBudget is EnforceBudget with the first round's live peer pins
// already listed; nil lists them.
func (m *StorageManager) enforceBudget(now time.Duration, peers map[string]bool) []*Entry {
	if m.cfg.MaxBytes <= 0 {
		return nil
	}
	var all []*Entry
	for {
		usage, total := m.usage()
		if total <= m.cfg.MaxBytes {
			break
		}
		// Pinned entries count against the budget but cannot be evicted;
		// offering them to the policy would let a pin stall convergence
		// (the policy would keep nominating victims the repository
		// refuses to drop). An entry a peer process has pinned is spared
		// the same way: its in-flight rewrite reads the stored output,
		// and this process's budget pass must not delete it out from
		// under them. One listing of the pin records per round serves
		// both the candidates and the deletes.
		if peers == nil {
			peers = m.cfg.Leases.PeerPins()
		}
		candidates := usage[:0]
		for _, u := range usage {
			if !m.cfg.Leases.Pinned(u.Entry.ID) && !peers[u.Entry.ID] {
				candidates = append(candidates, u)
			}
		}
		victims := m.cfg.Policy.Victims(candidates, now, total-m.cfg.MaxBytes)
		removed, released := m.repo.EvictUnpinned(victims, m.cfg.Leases)
		if len(removed) == 0 {
			break // everything left is pinned (or the policy yielded nothing)
		}
		for _, e := range released {
			m.evictedBytes.Add(e.storedBytes(m.eng.FS())) // measured before the delete
		}
		m.deleteOwnedOutputs(released, peers)
		peers = nil // the next round lists afresh
		m.evictions.Add(int64(len(removed)))
		all = append(all, removed...)
	}
	return all
}

// deleteOwnedOutputs removes the DFS outputs of released sub-job
// entries. Only paths inside the managed namespaces are ever deleted:
// whatever an entry's flags say, a path outside them is a user's
// dataset (or an input) the repository merely points at. An entry in
// peers, the caller's snapshot of live peer pins (from PeerPins or
// ReapExpired, listed right before), keeps its output: the entry itself
// may already be gone from this repository (vacuumed as invalid, or
// removed by a replayed record), but a peer's in-flight rewrite is
// reading the path, and its janitor will reclaim the bytes once the pin
// releases. A nil peers lists the pins when the first output is about
// to be deleted, and not at all when none is.
func (m *StorageManager) deleteOwnedOutputs(released []*Entry, peers map[string]bool) {
	for _, e := range released {
		if e.WholeJob || !m.managed(e.OutputPath) {
			continue
		}
		if peers == nil {
			peers = m.cfg.Leases.PeerPins()
		}
		if !peers[e.ID] {
			_ = m.eng.DeleteDataset(e.OutputPath)
		}
	}
}

// managed reports whether path lies inside a managed per-query
// namespace.
func (m *StorageManager) managed(path string) bool {
	ns := m.namespaces()
	return queryIDUnder(ns[0], cleanPath(path)) != "" || queryIDUnder(ns[1], cleanPath(path)) != ""
}

// SweepResult reports one storage sweep.
type SweepResult struct {
	// EntriesVacuumed counts entries removed by the validity and
	// reuse-window rules (Rules 3 and 4).
	EntriesVacuumed int
	// EntriesEvicted counts entries evicted by the budget policy.
	EntriesEvicted int
	// OrphanDatasets and OrphanBytes report dead per-query namespaces
	// reclaimed (janitor sweeps only).
	OrphanDatasets int
	OrphanBytes    int64
	// LeasesReaped counts expired records deleted — the claims and
	// pins of a crashed process.
	LeasesReaped int
}

// Sweep runs one full maintenance pass: it reaps expired claims and
// pins (a crashed peer's), then applies Rule 4 to every entry (invalid
// entries, however they became invalid), Rule 3 (entries idle beyond
// window, when window > 0) and budget enforcement, and, on a durable
// store, compacts the event log when due.
//
// The janitor (System.Sweep) calls it periodically with the orphan
// vacuum; after each execution the driver runs the cheaper Maintain.
func (m *StorageManager) Sweep(now, window time.Duration) SweepResult {
	m.sweeps.Add(1)
	var res SweepResult
	// Reap first: its one listing of the locks namespace also yields the
	// live peer pins that the vacuum's deletes and the first eviction
	// round spare.
	var peers map[string]bool
	res.LeasesReaped, peers = m.cfg.Leases.ReapExpired()
	vacuumed, released := m.repo.Vacuum(m.eng.FS(), now, window, m.cfg.Leases, nil)
	res.EntriesVacuumed = len(vacuumed)
	m.deleteOwnedOutputs(released, peers)
	res.EntriesEvicted = len(m.enforceBudget(now, peers))
	m.compact()
	return res
}

// VacuumOrphans deletes the per-query DFS namespaces (the
// restore/<qid>/… and tmp/<qid>/… trees under the configured namespace
// root) of queries that are neither live nor referenced by any
// repository entry: the sub-job outputs and staged temporaries of
// cancelled or failed queries, and the unreferenced inter-job
// temporaries of completed ones. Datasets outside the managed
// namespaces are never touched.
//
// live is consulted immediately before each delete and must answer
// from BOTH a snapshot taken before this call and the current
// registry: the early snapshot protects a query that registered
// entries and completed after it (its roots are collected here, which
// is newer), and the at-delete check protects a query submitted after
// the snapshot whose namespace is being written right now.
func (m *StorageManager) VacuumOrphans(live func(queryID string) bool) (int, int64) {
	var roots []string
	m.repo.Scan(func(e *Entry) bool {
		roots = append(roots, cleanPath(e.OutputPath))
		for p := range e.InputVersions {
			roots = append(roots, cleanPath(p))
		}
		return true
	})
	referenced := func(ds string) bool {
		for _, r := range roots {
			if ds == r || strings.HasPrefix(ds, r+"/") || strings.HasPrefix(r, ds+"/") {
				return true
			}
		}
		return false
	}
	var count int
	var bytes int64
	for _, ns := range m.namespaces() {
		for _, ds := range m.eng.FS().Datasets(ns) {
			qid := queryIDUnder(ns, ds)
			if qid == "" || live(qid) || referenced(ds) {
				continue
			}
			if m.cfg.QueryPrefix != "" && !strings.HasPrefix(qid, m.cfg.QueryPrefix) {
				continue // another process's query; its own janitor decides
			}
			n := m.eng.FS().Size(ds)
			if m.eng.DeleteDataset(ds) == nil {
				count++
				bytes += n
			}
		}
	}
	m.orphanDatasets.Add(int64(count))
	m.orphanBytes.Add(bytes)
	return count, bytes
}

// queryIDUnder extracts the query ID from a dataset path inside
// namespace ns ("<ns>/q3/j1/op2" → "q3"); "" when the dataset is the
// namespace itself or lies outside it.
func queryIDUnder(ns, ds string) string {
	rel := strings.TrimPrefix(ds, ns+"/")
	if rel == ds || rel == "" {
		return ""
	}
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return rel
}

// cleanPath normalizes a stored path the way the DFS does.
func cleanPath(p string) string {
	return strings.TrimSuffix(strings.TrimPrefix(p, "/"), "/")
}

// StorageStats is a point-in-time snapshot of the storage manager.
type StorageStats struct {
	// Entries and UsageBytes describe the repository: how many outputs
	// it retains and their distinct-path byte total. BudgetBytes is the
	// configured cap (0 = unbounded) and Policy the eviction policy.
	Entries     int
	UsageBytes  int64
	BudgetBytes int64
	Policy      string

	// Claim protocol counters. ActiveClaims is the current in-flight
	// count of claims won here; Granted/Committed/Aborted are
	// cumulative. Waits counts executions that blocked on another
	// execution's claim, in this process or another, and Shared how many
	// of those woke to a committed entry they then reused. Leases
	// carries the lease manager's own counters (grants, takeovers,
	// reaps, fencing).
	ActiveClaims    int
	ClaimsGranted   int64
	ClaimsCommitted int64
	ClaimsAborted   int64
	ClaimWaits      int64
	ClaimsShared    int64
	Leases          LeaseStats

	// Eviction and janitor counters.
	Evictions      int64
	EvictedBytes   int64
	Sweeps         int64
	OrphanDatasets int64
	OrphanBytes    int64
}

// Stats snapshots the manager's counters and current usage.
func (m *StorageManager) Stats() StorageStats {
	// Resolutions load before grants, so a claim resolving between the
	// loads never drives ActiveClaims negative.
	committed, aborted := m.claimsCommitted.Load(), m.claimsAborted.Load()
	granted := m.claimsGranted.Load()
	return StorageStats{
		Entries:         m.repo.Len(),
		UsageBytes:      m.UsageBytes(),
		BudgetBytes:     m.cfg.MaxBytes,
		Policy:          m.cfg.Policy.Name(),
		ActiveClaims:    int(granted - committed - aborted),
		ClaimsGranted:   granted,
		ClaimsCommitted: committed,
		ClaimsAborted:   aborted,
		ClaimWaits:      m.claimWaits.Load(),
		ClaimsShared:    m.claimReuses.Load(),
		Leases:          m.cfg.Leases.Stats(),
		Evictions:       m.evictions.Load(),
		EvictedBytes:    m.evictedBytes.Load(),
		Sweeps:          m.sweeps.Load(),
		OrphanDatasets:  m.orphanDatasets.Load(),
		OrphanBytes:     m.orphanBytes.Load(),
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

// LeaseManager keeps this process's TTL'd records in a DFS namespace
// ("<ns-root>/locks/"). Two kinds of record share one format, one
// reaper and one heartbeat:
//
//   - A claim lease, one file per plan fingerprint: every claim
//     StorageManager grants is one, so the claim protocol — one
//     materializer per plan fingerprint, everyone else waits and
//     reuses — holds alike between the queries of one System and
//     between processes sharing the DFS. The lease only serializes: a
//     waiter learns of the holder's entry from the repository, which a
//     peer process's entries reach through the shared durable event
//     log. A lease holds the owner, an expiry deadline, and a fencing
//     version that increments on every takeover of an expired lease.
//     All writes go through the DFS's version compare-and-swap, so two
//     processes racing for one fingerprint resolve to exactly one
//     holder, and a holder whose lease expired and was taken over can
//     never release (or believe it still holds) the successor's lease.
//
//   - A pin, one file per (entry, owner) pair: while a rewrite of this
//     process reads an entry's stored output, the pin record tells the
//     eviction and vacuum of every peer sharing the DFS to spare that
//     output. The manager's per-entry pin count is the only one: the
//     first pin writes the record, the last unpin deletes it, and this
//     process's own vacuum and eviction ask Pinned. Only its owner
//     writes a pin record (the owner is in the name), so a plain write
//     is enough.
//
// One heartbeat goroutine renews every record the process holds, every
// third of the TTL, and runs only while it holds at least one. A claim
// renews through the same CAS it was taken with — a takeover after
// expiry always wins over a late renewal — and a claim fenced out is
// dropped. So a materialization or a read longer than the TTL keeps its
// records while the process lives; once it dies, renewals stop, its
// claims are taken over or reaped and its pins stop shielding entries.
//
// All methods are safe for concurrent use.
type LeaseManager struct {
	fs    dfs.Backend
	root  string
	owner string
	ttl   time.Duration
	// now is the wall clock, injectable so expiry tests need not sleep.
	now func() time.Time

	// mu guards the held claims, the pin counts and the heartbeat. Pin
	// records are written and deleted under it, so a record exists
	// exactly while its entry's count is above zero. Lock order: the
	// repository lock before mu — the rewriter pins from a probe
	// callback, and Vacuum and EvictUnpinned ask Pinned under the
	// repository write lock; nothing holding mu takes the repository
	// lock.
	mu     sync.Mutex
	claims map[*Lease]bool // claim leases held here
	pins   map[string]int  // entry ID → local pin count
	// stopBeat stops the running heartbeat; nil when none runs.
	stopBeat chan struct{}
	closed   bool
	beats    sync.WaitGroup

	granted   atomic.Int64
	takeovers atomic.Int64
	reaped    atomic.Int64
	fenceLost atomic.Int64
	renewals  atomic.Int64
}

// DefaultLeaseTTL is the lease lifetime when none is configured: long
// enough for any materialization, short enough that a dead process's
// in-flight claims unblock waiters within a minute.
const DefaultLeaseTTL = time.Minute

// leasePoll is the interval at which a claim waiter polls the holder's
// lease.
const leasePoll = 2 * time.Millisecond

// NewLeaseManager returns a manager over the locks namespace at root.
// owner identifies this process in lease records; ttl defaults to
// DefaultLeaseTTL when zero.
func NewLeaseManager(fs dfs.Backend, root, owner string, ttl time.Duration) *LeaseManager {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &LeaseManager{
		fs: fs, root: cleanPath(root), owner: owner, ttl: ttl, now: time.Now,
		claims: map[*Lease]bool{}, pins: map[string]int{},
	}
}

// Lease is one held materialization lease. The version is the lease
// file's DFS version as of the last acquisition or renewal: release
// and renewal CAS against it, so a takeover after expiry is always
// detected. The mutex makes the heartbeat safe against a concurrent
// Release.
type Lease struct {
	mu      sync.Mutex
	path    string
	fp      string
	fence   uint64
	version int64
}

// leaseStream encodes lease records (see gobStream).
var leaseStream gobStream[leaseRecord]

// leaseRecord is the serialized record file, claim or pin.
type leaseRecord struct {
	// Fingerprint is the claimed plan fingerprint, or the pinned
	// entry's ID.
	Fingerprint string
	Owner       string
	Fence       uint64
	// ExpiresUnixNano is the wall-clock deadline; a record past it may
	// be taken over or reaped.
	ExpiresUnixNano int64
}

// leasePath maps a plan fingerprint (which contains path-hostile
// characters) to its lock file. Two independently seeded 64-bit fast
// hashes give a 128-bit name: leases are taken on every submit, and
// tuple.Hash64 is an order of magnitude cheaper than the sha256 this
// replaced while staying deterministic across processes — which the
// shared-DFS lock namespace requires.
//
// Compatibility: the switch from sha256 to tuple.Hash64 renames every
// lock file. Processes built before the switch hash the same
// fingerprint to a different path, so a pre-switch and a post-switch
// binary sharing one durable DFS lock namespace will not see each
// other's leases — mutual exclusion between them is silently lost. Do
// not mix binary versions across the rename on one DFS: drain the old
// binaries' in-flight submits (their leases expire within the TTL,
// DefaultLeaseTTL by default) before starting new ones, or point the
// new binaries at a fresh namespace root. Stale old-name lease files
// are inert afterwards — nothing ever hashes to them again — and are
// only a few bytes each.
func (lm *LeaseManager) leasePath(fp string) string {
	h1 := tuple.Hash64(fp, 0)
	h2 := tuple.Hash64(fp, 1)
	return fmt.Sprintf("%s/%016x%016x", lm.root, h1, h2)
}

// TryAcquire attempts to take the fingerprint's lease: it succeeds when
// no lease file exists or the existing one has expired (a takeover,
// bumping the fence). It returns (nil, false) when another holder's
// lease is live. A taken lease is held — the heartbeat renews it —
// until Release.
func (lm *LeaseManager) TryAcquire(fp string) (*Lease, bool) {
	path := lm.leasePath(fp)
	for {
		ver, old, err := lm.read(path)
		fence := uint64(1)
		if err == nil {
			if lm.live(old) {
				return nil, false // held and live
			}
			fence = old.Fence + 1
		}
		newVer, ok := lm.fs.WriteFileIf(path, lm.record(fp, fence), ver)
		if ok {
			lm.granted.Add(1)
			if fence > 1 {
				lm.takeovers.Add(1)
			}
			l := &Lease{path: path, fp: fp, fence: fence, version: newVer}
			lm.mu.Lock()
			lm.claims[l] = true
			lm.beatLocked()
			lm.mu.Unlock()
			return l, true
		}
		// Lost to no writer: storage dropped the write (a dead process, a
		// stale fence), and retrying would spin. Report the lease held.
		if newVer == ver {
			return nil, false
		}
		// Lost the CAS; re-read — the winner's lease is probably live.
	}
}

// read returns path's version, then the record at path; the error is
// a missing or unreadable file. An undecodable record reads as the zero
// record, whose deadline has passed and whose fence is 0. Version before
// content: a write sneaking in between makes a CAS or conditional
// delete at the version fail instead of acting on a record it did not
// read.
func (lm *LeaseManager) read(path string) (int64, leaseRecord, error) {
	ver := lm.fs.Version(path)
	data, err := lm.fs.ReadFile(path)
	if err != nil {
		return ver, leaseRecord{}, err
	}
	var rec leaseRecord
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&rec) != nil {
		rec = leaseRecord{}
	}
	return ver, rec, nil
}

// live reports whether a record's deadline is still ahead.
func (lm *LeaseManager) live(rec leaseRecord) bool {
	return lm.now().UnixNano() < rec.ExpiresUnixNano
}

// record encodes a record for key expiring a TTL from now.
func (lm *LeaseManager) record(key string, fence uint64) []byte {
	// Encoding a struct of strings and integers cannot fail.
	data, _ := leaseStream.encode(&leaseRecord{
		Fingerprint:     key,
		Owner:           lm.owner,
		Fence:           fence,
		ExpiresUnixNano: lm.now().Add(lm.ttl).UnixNano(),
	})
	return data
}

// Renew extends a held lease's expiry by a full TTL through the same
// version CAS as acquisition: if the lease file changed since this
// holder last wrote it — it expired and was taken over, or was reaped —
// the renewal loses and returns false, keeping takeover-on-death
// semantics intact. A true return means the lease is live for another
// TTL from now. The heartbeat calls it for every held claim.
func (lm *LeaseManager) Renew(l *Lease) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	newVer, ok := lm.fs.WriteFileIf(l.path, lm.record(l.fp, l.fence), l.version)
	if !ok {
		lm.fenceLost.Add(1)
		return false
	}
	l.version = newVer
	lm.renewals.Add(1)
	return true
}

// Release gives the lease up. The conditional delete means a lease that
// expired and was taken over is left to its new holder.
func (lm *LeaseManager) Release(l *Lease) {
	if l == nil {
		return
	}
	lm.mu.Lock()
	delete(lm.claims, l)
	lm.idleLocked()
	lm.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !lm.fs.RemoveFileIf(l.path, l.version) {
		lm.fenceLost.Add(1)
	}
}

// pinPath maps an (entry, owner) pair to its pin record. Entry and
// writer IDs ("w2e17", "w3") are path-safe and dot-free by construction.
func (lm *LeaseManager) pinPath(id string) string {
	return lm.root + "/pin." + id + "." + lm.owner
}

// Pin counts one pin of an entry by this process; the first writes the
// entry's pin record. The rewriter pins at match time, still under the
// probe's read lock, so no vacuum or eviction can slip between matching
// an entry and protecting it. Pins nest. A nil manager pins nothing.
func (lm *LeaseManager) Pin(id string) {
	if lm == nil {
		return
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.pins[id]++
	if lm.pins[id] == 1 {
		lm.writePin(id)
		lm.beatLocked()
	}
}

// Unpin releases one Pin; the last deletes the entry's pin record.
func (lm *LeaseManager) Unpin(id string) {
	if lm == nil {
		return
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.pins[id] > 1 {
		lm.pins[id]--
		return
	}
	delete(lm.pins, id)
	_ = lm.fs.Delete(lm.pinPath(id))
	lm.idleLocked()
}

// Pinned reports whether this process holds a pin on the entry. A nil
// manager holds none.
func (lm *LeaseManager) Pinned(id string) bool {
	if lm == nil {
		return false
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.pins[id] > 0
}

// writePin writes (or renews) this process's pin record of an entry.
func (lm *LeaseManager) writePin(id string) {
	_ = lm.fs.WriteFile(lm.pinPath(id), lm.record(id, 0))
}

// PeerPins returns the entries another process holds a live pin on,
// from one listing of the namespace. The eviction and vacuum delete
// paths take one snapshot before deleting: an entry in it keeps its
// stored output, which a peer's in-flight rewrite is reading.
func (lm *LeaseManager) PeerPins() map[string]bool {
	pinned := map[string]bool{}
	for _, ds := range lm.fs.Datasets(lm.root) {
		if !lm.peerPin(ds) {
			continue
		}
		if _, rec, err := lm.read(ds); err == nil && lm.live(rec) {
			pinned[rec.Fingerprint] = true
		}
	}
	return pinned
}

// peerPin reports whether the record at path is another process's pin.
// This process's own pins are not: Pinned already reports them.
func (lm *LeaseManager) peerPin(path string) bool {
	return strings.HasPrefix(path, lm.root+"/pin.") && !strings.HasSuffix(path, "."+lm.owner)
}

// beatLocked starts the heartbeat if none runs.
func (lm *LeaseManager) beatLocked() {
	if lm.stopBeat == nil && !lm.closed {
		lm.stopBeat = make(chan struct{})
		lm.beats.Add(1)
		go lm.heartbeat(lm.stopBeat)
	}
}

// idleLocked stops the heartbeat once nothing is held.
func (lm *LeaseManager) idleLocked() {
	if len(lm.claims) == 0 && len(lm.pins) == 0 && lm.stopBeat != nil {
		close(lm.stopBeat)
		lm.stopBeat = nil
	}
}

// heartbeat renews every held record each third of the TTL until stop
// closes.
func (lm *LeaseManager) heartbeat(stop chan struct{}) {
	defer lm.beats.Done()
	t := time.NewTicker(max(lm.ttl/3, time.Microsecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			lm.beat()
		}
	}
}

// beat is one heartbeat pass: it rewrites every pin record this
// process holds and renews every claim, dropping a claim whose renewal
// lost — it was fenced out by a successor.
func (lm *LeaseManager) beat() {
	lm.mu.Lock()
	for id := range lm.pins {
		lm.writePin(id)
	}
	claims := make([]*Lease, 0, len(lm.claims))
	for l := range lm.claims {
		claims = append(claims, l)
	}
	lm.mu.Unlock()
	for _, l := range claims {
		if !lm.Renew(l) {
			lm.mu.Lock()
			delete(lm.claims, l)
			lm.idleLocked()
			lm.mu.Unlock()
		}
	}
}

// Close stops the heartbeat for good; records still held expire within
// a TTL unless released first. System.Close calls it.
func (lm *LeaseManager) Close() {
	lm.mu.Lock()
	lm.closed = true
	if lm.stopBeat != nil {
		close(lm.stopBeat)
		lm.stopBeat = nil
	}
	lm.mu.Unlock()
	lm.beats.Wait()
}

// WaitFree blocks until the fingerprint's lease is released or expires
// (expired leases are reaped on sight), polling the lease file; it
// returns ctx.Err() on cancellation.
func (lm *LeaseManager) WaitFree(ctx context.Context, fp string) error {
	path := lm.leasePath(fp)
	t := time.NewTicker(leasePoll)
	defer t.Stop()
	for {
		ver, rec, err := lm.read(path)
		if err != nil {
			return nil // released
		}
		if !lm.live(rec) {
			if lm.fs.RemoveFileIf(path, ver) {
				lm.reaped.Add(1)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// ReapExpired deletes every expired (or undecodable) record in the
// locks namespace — claims and pins, in one listing — so a crashed
// process's claims and pins cannot outlive their TTL by much. It
// returns how many went and, from the same listing, the live peer pins
// PeerPins would return: a sweep spares those without listing again.
func (lm *LeaseManager) ReapExpired() (int, map[string]bool) {
	n, peers := 0, map[string]bool{}
	for _, ds := range lm.fs.Datasets(lm.root) {
		if ds == lm.root {
			continue
		}
		ver, rec, err := lm.read(ds)
		if err != nil {
			continue
		}
		if lm.live(rec) {
			if lm.peerPin(ds) {
				peers[rec.Fingerprint] = true
			}
			continue
		}
		if lm.fs.RemoveFileIf(ds, ver) {
			lm.reaped.Add(1)
			n++
		}
	}
	return n, peers
}

// LeaseStats is a point-in-time snapshot of the lease manager.
type LeaseStats struct {
	// Granted counts leases this process acquired (Takeovers of them by
	// fencing out an expired holder); Reaped counts expired leases
	// deleted by waits and janitor sweeps; FenceLost counts releases
	// and renewals that found the lease already taken over; Renewals
	// counts successful heartbeat extensions.
	Granted   int64
	Takeovers int64
	Reaped    int64
	FenceLost int64
	Renewals  int64
}

// Stats snapshots the counters.
func (lm *LeaseManager) Stats() LeaseStats {
	return LeaseStats{
		Granted:   lm.granted.Load(),
		Takeovers: lm.takeovers.Load(),
		Reaped:    lm.reaped.Load(),
		FenceLost: lm.fenceLost.Load(),
		Renewals:  lm.renewals.Load(),
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

// LeaseManager materializes claims as TTL'd lease records in a DFS
// namespace ("<ns-root>/locks/"): every claim StorageManager grants is
// one lease, so the claim protocol — one materializer per plan
// fingerprint, everyone else waits and reuses — holds alike between the
// queries of one System and between processes sharing the DFS. The
// lease only serializes: a waiter learns of the holder's entry from the
// repository, which a peer process's entries reach through the shared
// durable event log.
//
// A lease is one file per fingerprint holding the owner, an expiry
// deadline, and a fencing version that increments on every takeover of
// an expired lease. All writes go through the DFS's version
// compare-and-swap, so two processes racing for one fingerprint resolve
// to exactly one holder, and a holder whose lease expired and was taken
// over can never release (or believe it still holds) the successor's
// lease. A live holder extends its lease through Renew (the same CAS:
// a takeover after expiry always wins over a late renewal), so a
// materialization longer than the TTL keeps its lease as long as the
// process heartbeats — see KeepAlive — while a dead holder's lease
// still expires and is taken over or reaped.
//
// All methods are safe for concurrent use.
type LeaseManager struct {
	fs    dfs.Backend
	root  string
	owner string
	ttl   time.Duration
	poll  time.Duration
	// now is the wall clock, injectable so expiry tests need not sleep.
	now func() time.Time

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

// DefaultLeasePoll is the interval at which a claim waiter polls the
// holder's lease.
const DefaultLeasePoll = 2 * time.Millisecond

// NewLeaseManager returns a manager over the locks namespace at root.
// owner identifies this process in lease records; ttl and poll default
// to DefaultLeaseTTL and DefaultLeasePoll when zero.
func NewLeaseManager(fs dfs.Backend, root, owner string, ttl, poll time.Duration) *LeaseManager {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if poll <= 0 {
		poll = DefaultLeasePoll
	}
	return &LeaseManager{fs: fs, root: cleanPath(root), owner: owner, ttl: ttl, poll: poll, now: time.Now}
}

// SetClock injects the wall clock (tests drive expiry without
// sleeping). Call before any lease traffic.
func (lm *LeaseManager) SetClock(now func() time.Time) { lm.now = now }

// Lease is one held materialization lease. The version is the lease
// file's DFS version as of the last acquisition or renewal: release
// and still-held checks CAS against it, so a takeover after expiry is
// always detected. The mutex makes a background renewer (KeepAlive)
// safe against a concurrent Release or StillHeld.
type Lease struct {
	mu      sync.Mutex
	path    string
	fp      string
	fence   uint64
	version int64
}

// Fence returns the lease's fencing version: it increments every time
// an expired lease is taken over, so entries materialized under an old
// fence can be told from the successor's.
func (l *Lease) Fence() uint64 { return l.fence }

// leaseRecord is the serialized lease file.
type leaseRecord struct {
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
// lease is live.
func (lm *LeaseManager) TryAcquire(fp string) (*Lease, bool) {
	path := lm.leasePath(fp)
	for {
		// Version before content: a write sneaking in between makes the
		// CAS fail instead of clobbering the sneaking writer's lease.
		ver := lm.fs.Version(path)
		data, err := lm.fs.ReadFile(path)
		fence := uint64(1)
		if err == nil {
			var old leaseRecord
			if decErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&old); decErr == nil {
				if lm.now().UnixNano() < old.ExpiresUnixNano {
					return nil, false // held and live
				}
				fence = old.Fence + 1
			}
		}
		rec := leaseRecord{
			Fingerprint:     fp,
			Owner:           lm.owner,
			Fence:           fence,
			ExpiresUnixNano: lm.now().Add(lm.ttl).UnixNano(),
		}
		var buf bytes.Buffer
		if encErr := gob.NewEncoder(&buf).Encode(rec); encErr != nil {
			return nil, false
		}
		newVer, ok := lm.fs.WriteFileIf(path, buf.Bytes(), ver)
		if ok {
			lm.granted.Add(1)
			if fence > 1 {
				lm.takeovers.Add(1)
			}
			return &Lease{path: path, fp: fp, fence: fence, version: newVer}, true
		}
		// Lost the CAS; re-read — the winner's lease is probably live.
	}
}

// Renew extends a held lease's expiry by a full TTL through the same
// version CAS as acquisition: if the lease file changed since this
// holder last wrote it — it expired and was taken over, or was reaped —
// the renewal loses and returns false, keeping takeover-on-death
// semantics intact. A true return means the lease is live for another
// TTL from now.
func (lm *LeaseManager) Renew(l *Lease) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := leaseRecord{
		Fingerprint:     l.fp,
		Owner:           lm.owner,
		Fence:           l.fence,
		ExpiresUnixNano: lm.now().Add(lm.ttl).UnixNano(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return false
	}
	newVer, ok := lm.fs.WriteFileIf(l.path, buf.Bytes(), l.version)
	if !ok {
		lm.fenceLost.Add(1)
		return false
	}
	l.version = newVer
	lm.renewals.Add(1)
	return true
}

// KeepAlive renews the lease in the background every third of the TTL
// until the returned stop function is called or a renewal loses the
// lease. It is the holder-side heartbeat that lets a materialization
// outlive the TTL while the process is alive; once the process dies,
// renewals stop and expiry hands the lease over as before. Call stop
// before Release.
func (lm *LeaseManager) KeepAlive(l *Lease) (stop func()) {
	if l == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	interval := lm.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !lm.Renew(l) {
					return // fenced out; the successor owns it now
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Release gives the lease up. The conditional delete means a lease that
// expired and was taken over is left to its new holder.
func (lm *LeaseManager) Release(l *Lease) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !lm.fs.RemoveFileIf(l.path, l.version) {
		lm.fenceLost.Add(1)
	}
}

// StillHeld reports whether the lease file is unchanged since this
// holder last wrote it — false means it expired and was taken over (or
// reaped).
func (lm *LeaseManager) StillHeld(l *Lease) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return lm.fs.Version(l.path) == l.version
}

// WaitFree blocks until the fingerprint's lease is released or expires
// (expired leases are reaped on sight), polling the lease file; it
// returns ctx.Err() on cancellation.
func (lm *LeaseManager) WaitFree(ctx context.Context, fp string) error {
	path := lm.leasePath(fp)
	t := time.NewTicker(lm.poll)
	defer t.Stop()
	for {
		ver := lm.fs.Version(path)
		data, err := lm.fs.ReadFile(path)
		if err != nil {
			return nil // released
		}
		var rec leaseRecord
		if decErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); decErr != nil || lm.now().UnixNano() >= rec.ExpiresUnixNano {
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

// ReapExpired deletes every expired (or undecodable) lease record in
// the locks namespace, returning how many went; the janitor calls it so
// a crashed process's claims cannot outlive their TTL by much.
func (lm *LeaseManager) ReapExpired() int {
	n := 0
	for _, ds := range lm.fs.Datasets(lm.root) {
		if ds == lm.root {
			continue
		}
		ver := lm.fs.Version(ds)
		data, err := lm.fs.ReadFile(ds)
		if err != nil {
			continue
		}
		var rec leaseRecord
		if decErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); decErr == nil && lm.now().UnixNano() < rec.ExpiresUnixNano {
			continue
		}
		if lm.fs.RemoveFileIf(ds, ver) {
			lm.reaped.Add(1)
			n++
		}
	}
	return n
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

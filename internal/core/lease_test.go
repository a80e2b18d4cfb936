package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
)

// testClock is an injectable wall clock for lease expiry tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func leasePair(t *testing.T, fs dfs.Backend, clock *testClock, owner string) *LeaseManager {
	lm := NewLeaseManager(fs, "sys/locks", owner, time.Minute, time.Millisecond)
	lm.SetClock(clock.Now)
	t.Cleanup(lm.Close)
	return lm
}

// TestLeaseAcquireOverDeadStorage: a lease write that storage drops —
// a crashed process, a stale fence — fails the acquire instead of
// spinning on a CAS that can never land.
func TestLeaseAcquireOverDeadStorage(t *testing.T) {
	fs := &dfstest.Faulty{Backend: dfstest.New(t)}
	fs.CrashAfter(0)
	lm := leasePair(t, fs, newTestClock(), "w1")
	if l, ok := lm.TryAcquire("fp1"); ok || l != nil {
		t.Fatal("acquired a lease whose record was never written")
	}
	if n := fs.Mutations(); n != 1 {
		t.Fatalf("acquire made %d write attempts, want 1", n)
	}
}

// TestLeaseMutualExclusion: one fingerprint, one holder; a second
// manager acquires only after release.
func TestLeaseMutualExclusion(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a, b := leasePair(t, fs, clock, "w1"), leasePair(t, fs, clock, "w2")

	la, ok := a.TryAcquire("fp1")
	if !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok := b.TryAcquire("fp1"); ok {
		t.Fatal("second acquire succeeded while the lease is held")
	}
	if _, ok := a.TryAcquire("fp2"); !ok {
		t.Fatal("unrelated fingerprint blocked")
	}
	if !a.StillHeld(la) {
		t.Fatal("holder thinks it lost a live lease")
	}
	a.Release(la)
	lb, ok := b.TryAcquire("fp1")
	if !ok {
		t.Fatal("acquire after release failed")
	}
	if lb.Fence() != 1 {
		t.Fatalf("fresh lease fence = %d, want 1 (clean release deletes the record)", lb.Fence())
	}
}

// TestLeaseExpiryTakeoverAndFencing: an expired lease is taken over
// with a bumped fence; the original holder detects the loss and cannot
// release the successor's lease.
func TestLeaseExpiryTakeoverAndFencing(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a, b := leasePair(t, fs, clock, "w1"), leasePair(t, fs, clock, "w2")

	la, ok := a.TryAcquire("fp")
	if !ok {
		t.Fatal("acquire failed")
	}
	clock.Advance(2 * time.Minute) // past the TTL

	lb, ok := b.TryAcquire("fp")
	if !ok {
		t.Fatal("takeover of expired lease failed")
	}
	if lb.Fence() != la.Fence()+1 {
		t.Fatalf("takeover fence = %d, want %d", lb.Fence(), la.Fence()+1)
	}
	if a.StillHeld(la) {
		t.Fatal("dead holder believes it still holds the lease")
	}
	a.Release(la) // must not clobber b's lease
	if !b.StillHeld(lb) {
		t.Fatal("successor lost its lease to the fenced-out holder's release")
	}
	if a.Stats().FenceLost == 0 {
		t.Fatal("fenced-out release not counted")
	}
}

// TestLeaseWaitFree: a waiter unblocks on release, and reaps an expired
// holder instead of waiting out the TTL wall-clock.
func TestLeaseWaitFree(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a, b := leasePair(t, fs, clock, "w1"), leasePair(t, fs, clock, "w2")

	la, _ := a.TryAcquire("fp")
	done := make(chan error, 1)
	go func() { done <- b.WaitFree(context.Background(), "fp") }()
	select {
	case <-done:
		t.Fatal("WaitFree returned while the lease is held")
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(la)
	if err := <-done; err != nil {
		t.Fatalf("WaitFree: %v", err)
	}

	// Expired holder: the waiter reaps and returns.
	a.TryAcquire("fp2")
	clock.Advance(2 * time.Minute)
	if err := b.WaitFree(context.Background(), "fp2"); err != nil {
		t.Fatalf("WaitFree over expired lease: %v", err)
	}
	if b.Stats().Reaped == 0 {
		t.Fatal("expired lease not reaped by the waiter")
	}

	// Cancellation propagates.
	a2, _ := a.TryAcquire("fp3")
	_ = a2
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if err := b.WaitFree(ctx, "fp3"); err != context.Canceled {
		t.Fatalf("cancelled WaitFree err = %v", err)
	}
}

// TestLeaseReapExpired: the sweep-facing reap deletes only expired
// records, claims and pins alike, in one pass, and reports the live
// peer pins it saw.
func TestLeaseReapExpired(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a := leasePair(t, fs, clock, "w1")
	dead := leasePair(t, fs, clock, "w2")
	peer := leasePair(t, fs, clock, "w3")

	a.TryAcquire("old1")
	a.TryAcquire("old2")
	dead.Pin("e-old")
	dead.Close() // its owner dies: the pin is never renewed
	clock.Advance(2 * time.Minute)
	live, _ := a.TryAcquire("live")
	a.Pin("e-live")
	peer.Pin("e-peer")
	n, peers := a.ReapExpired()
	if n != 3 {
		t.Fatalf("reaped %d records, want 3 (two claims, one pin)", n)
	}
	if len(peers) != 1 || !peers["e-peer"] {
		t.Fatalf("live peer pins = %v, want only e-peer (own and expired pins are not)", peers)
	}
	if !a.StillHeld(live) {
		t.Fatal("reap deleted a live lease")
	}
	if !fs.Exists(a.pinPath("e-live")) {
		t.Fatal("reap deleted a live pin")
	}
	if fs.Exists(dead.pinPath("e-old")) {
		t.Fatal("expired pin survived the reap")
	}
	if _, ok := a.TryAcquire("old1"); !ok {
		t.Fatal("reaped fingerprint not reacquirable")
	}
}

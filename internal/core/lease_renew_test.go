package core

import (
	"testing"
	"time"

	"repro/internal/dfs/dfstest"
)

// TestLeaseRenewExtendsExpiry: a renewal pushes the deadline a full
// TTL forward without touching the fence, so a holder heartbeating
// through a long materialization is never taken over — while a fenced
// lost renewal is detected and counted.
func TestLeaseRenewExtendsExpiry(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a, b := leasePair(t, fs, clock, "w1"), leasePair(t, fs, clock, "w2")

	la, ok := a.TryAcquire("fp")
	if !ok {
		t.Fatal("acquire failed")
	}
	// Renew inside the TTL; the original deadline passes, the renewed
	// one holds.
	clock.Advance(45 * time.Second)
	if !a.Renew(la) {
		t.Fatal("in-TTL renewal failed")
	}
	clock.Advance(45 * time.Second) // 90s since acquire: past the first deadline
	if _, ok := b.TryAcquire("fp"); ok {
		t.Fatal("renewed lease was taken over")
	}
	if !a.stillHeld(la) {
		t.Fatal("holder lost a renewed lease")
	}
	if la.fence != 1 {
		t.Fatalf("renewal changed the fence: %d", la.fence)
	}
	if st := a.Stats(); st.Renewals != 1 {
		t.Fatalf("Renewals = %d, want 1", st.Renewals)
	}

	// Dead holder: renewals stop, expiry hands the lease over, and the
	// late renewal loses against the successor's fence.
	clock.Advance(2 * time.Minute)
	lb, ok := b.TryAcquire("fp")
	if !ok {
		t.Fatal("takeover of an expired lease failed")
	}
	if lb.fence != la.fence+1 {
		t.Fatalf("takeover fence = %d, want %d", lb.fence, la.fence+1)
	}
	if a.Renew(la) {
		t.Fatal("fenced-out holder renewed the successor's lease")
	}
	if !b.stillHeld(lb) {
		t.Fatal("successor's lease clobbered by a late renewal")
	}
	if a.Stats().FenceLost == 0 {
		t.Fatal("lost renewal not counted")
	}
}

// TestLeaseKeepAliveHeartbeat: the manager's heartbeat keeps a held
// lease live across many TTLs while the holder runs, and stops cleanly
// once the lease is released.
func TestLeaseKeepAliveHeartbeat(t *testing.T) {
	fs := dfstest.New(t)
	lm := NewLeaseManager(fs, "sys/locks", "w1", 30*time.Millisecond)
	defer lm.Close()
	l, ok := lm.TryAcquire("fp")
	if !ok {
		t.Fatal("acquire failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for lm.Stats().Renewals < 5 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never renewed")
		}
		time.Sleep(time.Millisecond)
	}
	if !lm.stillHeld(l) {
		t.Fatal("lease lost while the heartbeat runs")
	}
	lm.Release(l)
	lm.Release(l) // a second release neither fails nor restarts anything
	lm.mu.Lock()
	running := lm.stopBeat != nil
	lm.mu.Unlock()
	if running {
		t.Fatal("heartbeat still running with nothing held")
	}

	// Released: a peer acquires immediately, no takeover needed.
	peer := NewLeaseManager(fs, "sys/locks", "w2", 30*time.Millisecond)
	defer peer.Close()
	lp, ok := peer.TryAcquire("fp")
	if !ok {
		t.Fatal("acquire after release failed")
	}
	if lp.fence != 1 {
		t.Fatalf("post-release fence = %d, want 1 (clean release deletes the record)", lp.fence)
	}
}

// TestLeaseKeepAliveStopsOnFenceLoss: once a lease is taken over, the
// holder's heartbeat gives up instead of fighting the successor: the
// fenced-out claim leaves the held set, and the heartbeat with it.
func TestLeaseKeepAliveStopsOnFenceLoss(t *testing.T) {
	fs := dfstest.New(t)
	clock := newTestClock()
	a, b := leasePair(t, fs, clock, "w1"), leasePair(t, fs, clock, "w2")
	la, _ := a.TryAcquire("fp")
	clock.Advance(2 * time.Minute)
	lb, ok := b.TryAcquire("fp")
	if !ok {
		t.Fatal("takeover failed")
	}
	// The late heartbeat must lose and stay lost.
	a.beat()
	if a.Renew(la) {
		t.Fatal("fenced-out renewal succeeded")
	}
	if !b.stillHeld(lb) {
		t.Fatal("successor lost its lease to a dead holder's heartbeat")
	}
	a.mu.Lock()
	held, running := len(a.claims), a.stopBeat != nil
	a.mu.Unlock()
	if held != 0 || running {
		t.Fatalf("fenced-out holder still holds %d records, heartbeat running %v", held, running)
	}
}

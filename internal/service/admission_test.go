package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectAdmissions enqueues for tenant and reports its label on a
// channel once admitted.
func watchAdmit(t *testing.T, a *admitter, tenant string, admitted chan<- string) {
	t.Helper()
	w, err := a.enqueue(tenant)
	if err != nil {
		t.Fatalf("enqueue(%s): %v", tenant, err)
	}
	go func() {
		if w.wait(context.Background(), a) == nil {
			admitted <- tenant
		}
	}()
}

// TestFairShareWeightedOrder drives a capacity-1 admitter with a
// backlogged heavy (weight 3) and light (weight 1) tenant and verifies
// the stride scheduler interleaves them by weight: the light tenant is
// admitted about once every four slots, never starved behind the
// heavy backlog.
func TestFairShareWeightedOrder(t *testing.T) {
	quotas := map[string]TenantQuota{
		"heavy": {Weight: 3, MaxInFlight: 1, MaxQueued: 64},
		"light": {Weight: 1, MaxInFlight: 1, MaxQueued: 64},
	}
	a := newAdmitter(1, TenantQuota{}, quotas)
	admitted := make(chan string, 64)

	// First heavy enqueue takes the free slot immediately; the rest
	// queue behind it, then light joins with a full heavy backlog —
	// the starvation scenario.
	for i := 0; i < 12; i++ {
		watchAdmit(t, a, "heavy", admitted)
	}
	for i := 0; i < 4; i++ {
		watchAdmit(t, a, "light", admitted)
	}

	var order []string
	for i := 0; i < 16; i++ {
		select {
		case who := <-admitted:
			order = append(order, who)
			a.release(who)
		case <-time.After(5 * time.Second):
			t.Fatalf("admission stalled after %v", order)
		}
	}

	// No-starvation: light's first admission within the first 5 slots
	// (its weighted share of a 3:1 mix is one in four).
	first := -1
	for i, who := range order {
		if who == "light" {
			first = i
			break
		}
	}
	if first < 0 || first > 4 {
		t.Fatalf("light first admitted at slot %d of %v, want within its 1-in-4 share", first, order)
	}
	// Weighted share: while both are backlogged (first 12 slots —
	// light's 4 queries spread over ~16), every window of 5 has a
	// light admission and heavy keeps its 3x share.
	lightSeen := 0
	for _, who := range order {
		if who == "light" {
			lightSeen++
		}
	}
	if lightSeen != 4 {
		t.Fatalf("light admissions = %d, want 4 (order %v)", lightSeen, order)
	}
	gap := 0
	for _, who := range order[first:] {
		if who == "light" {
			gap = 0
			continue
		}
		gap++
		if gap > 4 && lightSeen > 0 {
			t.Fatalf("light starved for %d consecutive slots in %v", gap, order)
		}
	}
}

// TestHeavyFloodCannotStarveLight is the race-enabled fairness check:
// a heavy tenant flooding from many goroutines cannot push a light
// tenant's queries past their weighted share. With equal weights the
// light tenant's 8 queries must all be admitted within roughly the
// first 2×8 admissions even though 80 heavy queries are contending.
func TestHeavyFloodCannotStarveLight(t *testing.T) {
	quotas := map[string]TenantQuota{
		"heavy": {Weight: 1, MaxInFlight: 2, MaxQueued: 128},
		"light": {Weight: 1, MaxInFlight: 2, MaxQueued: 128},
	}
	a := newAdmitter(2, TenantQuota{}, quotas)

	var admissions atomic.Int64
	var lightMax atomic.Int64
	var wg sync.WaitGroup
	run := func(tenant string) {
		defer wg.Done()
		w, err := a.enqueue(tenant)
		if err != nil {
			t.Errorf("enqueue(%s): %v", tenant, err)
			return
		}
		if err := w.wait(context.Background(), a); err != nil {
			t.Errorf("wait(%s): %v", tenant, err)
			return
		}
		n := admissions.Add(1)
		// Hold the slot briefly so the heavy backlog actually persists
		// while the light tenant's queries contend with it.
		time.Sleep(2 * time.Millisecond)
		if tenant == "light" {
			for {
				cur := lightMax.Load()
				if n <= cur || lightMax.CompareAndSwap(cur, n) {
					break
				}
			}
		}
		a.release(tenant)
	}

	// Saturate with the heavy flood first, then inject the light
	// tenant's queries from a separate goroutine burst.
	wg.Add(80)
	for i := 0; i < 80; i++ {
		go run("heavy")
	}
	time.Sleep(10 * time.Millisecond) // let the heavy backlog build
	wg.Add(8)
	for i := 0; i < 8; i++ {
		go run("light")
	}
	wg.Wait()

	if got := admissions.Load(); got != 88 {
		t.Fatalf("admissions = %d, want 88", got)
	}
	// Equal weights → alternation: light's last admission must land
	// well inside the flood, not after it. Its fair position is ~16
	// plus whatever heavy queries were already admitted before light
	// arrived; 48 (more than double) means starvation.
	if got := lightMax.Load(); got > 48 {
		t.Fatalf("light tenant's last admission was slot %d of 88; starved behind the heavy flood", got)
	}
}

// TestOverQuotaRejectsImmediately: a tenant at MaxQueued gets
// ErrOverQuota instead of unbounded queueing.
func TestOverQuotaRejectsImmediately(t *testing.T) {
	a := newAdmitter(1, TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 2}, nil)
	// Slot holder.
	w, err := a.enqueue("t")
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := w.wait(context.Background(), a); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Fill the bounded queue.
	for i := 0; i < 2; i++ {
		if _, err := a.enqueue("t"); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := a.enqueue("t"); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("enqueue over quota: err = %v, want ErrOverQuota", err)
	}
	a.mu.Lock()
	queued, inflight := len(a.tenants["t"].queue), a.inflight
	a.mu.Unlock()
	if queued != 2 || inflight != 1 {
		t.Fatalf("depth = (%d queued, %d inflight), want (2, 1)", queued, inflight)
	}
}

// TestTenantInFlightCap: a tenant never exceeds MaxInFlight even with
// global capacity to spare.
func TestTenantInFlightCap(t *testing.T) {
	a := newAdmitter(8, TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 8}, nil)
	admitted := make(chan string, 8)
	for i := 0; i < 3; i++ {
		watchAdmit(t, a, "t", admitted)
	}
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("first admission never happened")
	}
	select {
	case <-admitted:
		t.Fatal("second admission while the first holds the tenant's only in-flight slot")
	case <-time.After(50 * time.Millisecond):
	}
	a.release("t")
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("release did not admit the next waiter")
	}
}

// TestCloseRejectsWaiters: draining fails queued waiters with
// ErrDraining and refuses new enqueues.
func TestCloseRejectsWaiters(t *testing.T) {
	a := newAdmitter(1, TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 8}, nil)
	w1, _ := a.enqueue("t")
	if err := w1.wait(context.Background(), a); err != nil {
		t.Fatalf("wait: %v", err)
	}
	w2, err := a.enqueue("t")
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	a.close()
	if err := w2.wait(context.Background(), a); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter err = %v, want ErrDraining", err)
	}
	if _, err := a.enqueue("t"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close enqueue err = %v, want ErrDraining", err)
	}
}

// TestAbandonedWaiterLeavesQueue: a waiter whose context dies while
// queued is removed and never admitted.
func TestAbandonedWaiterLeavesQueue(t *testing.T) {
	a := newAdmitter(1, TenantQuota{Weight: 1, MaxInFlight: 1, MaxQueued: 8}, nil)
	w1, _ := a.enqueue("t")
	if err := w1.wait(context.Background(), a); err != nil {
		t.Fatalf("wait: %v", err)
	}
	w2, _ := a.enqueue("t")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w2.wait(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter err = %v, want context.Canceled", err)
	}
	a.mu.Lock()
	queued := len(a.tenants["t"].queue)
	a.mu.Unlock()
	if queued != 0 {
		t.Fatalf("queued = %d after abandon, want 0", queued)
	}
}

package service

import (
	"context"
	"errors"
	"sync"
)

// The admission errors surfaced to HTTP handlers.
var (
	// ErrOverQuota is returned when a tenant's waiting queue is full:
	// the submit is rejected immediately (429 + Retry-After) instead of
	// queued unboundedly.
	ErrOverQuota = errors.New("service: tenant admission queue full")
	// ErrDraining is returned to waiters cancelled by Close.
	ErrDraining = errors.New("service: server draining")
)

// TenantQuota bounds and weights one tenant's admission.
type TenantQuota struct {
	// Weight is the tenant's fair share: under saturation a tenant with
	// weight 3 is admitted three times as often as a tenant with
	// weight 1. Zero or negative means 1.
	Weight int
	// MaxInFlight caps the tenant's admitted-and-running queries. Zero
	// means DefaultMaxInFlight.
	MaxInFlight int
	// MaxQueued caps the tenant's waiting queries; a submit arriving
	// with the queue full is rejected with ErrOverQuota. Zero means
	// DefaultMaxQueued.
	MaxQueued int
}

// The quota defaults applied where a TenantQuota field is zero.
const (
	DefaultMaxInFlight = 4
	DefaultMaxQueued   = 16
)

func (q TenantQuota) resolved() TenantQuota {
	if q.Weight <= 0 {
		q.Weight = 1
	}
	if q.MaxInFlight <= 0 {
		q.MaxInFlight = DefaultMaxInFlight
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = DefaultMaxQueued
	}
	return q
}

// admitter is the weighted fair-share admission queue in front of
// System.Submit. Each tenant has a bounded FIFO of waiting
// queries; whenever a global slot is free, a stride scheduler picks the
// runnable tenant with the smallest virtual pass and admits its head,
// advancing the pass by 1/weight — so over any saturated window each
// backlogged tenant receives admissions proportional to its weight, and
// a flood from one tenant cannot starve another.
type admitter struct {
	mu       sync.Mutex
	capacity int // global admitted-and-running cap
	inflight int
	closed   bool
	tenants  map[string]*tenantSched
	defaults TenantQuota
	quotas   map[string]TenantQuota
	// global is the virtual time of the last admission; a tenant waking
	// from idle starts at this pass, so idle time banks no credit.
	global float64
}

type tenantSched struct {
	name     string
	quota    TenantQuota
	queue    []*waiter
	inflight int
	pass     float64
}

// waiter is one query waiting for admission. ready is closed exactly
// once, after which err tells admitted (nil) from rejected.
type waiter struct {
	tenant *tenantSched
	ready  chan struct{}
	err    error
}

func newAdmitter(capacity int, defaults TenantQuota, quotas map[string]TenantQuota) *admitter {
	if capacity <= 0 {
		capacity = 16
	}
	a := &admitter{
		capacity: capacity,
		tenants:  map[string]*tenantSched{},
		defaults: defaults.resolved(),
		quotas:   map[string]TenantQuota{},
	}
	for name, q := range quotas {
		a.quotas[name] = q.resolved()
	}
	return a
}

func (a *admitter) tenant(name string) *tenantSched {
	t := a.tenants[name]
	if t == nil {
		q, ok := a.quotas[name]
		if !ok {
			q = a.defaults
		}
		t = &tenantSched{name: name, quota: q, pass: a.global}
		a.tenants[name] = t
	}
	return t
}

// enqueue registers one query of the tenant for admission. It never
// blocks: the returned waiter's ready channel is closed on admission
// (or rejection — check wait's error). A tenant at MaxQueued is
// rejected immediately with ErrOverQuota.
func (a *admitter) enqueue(tenantName string) (*waiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, ErrDraining
	}
	t := a.tenant(tenantName)
	if len(t.queue) >= t.quota.MaxQueued {
		return nil, ErrOverQuota
	}
	w := &waiter{tenant: t, ready: make(chan struct{})}
	if len(t.queue) == 0 {
		// Idle → runnable: forfeit credit banked while idle, or the
		// tenant would burst past its share on wake-up.
		if t.pass < a.global {
			t.pass = a.global
		}
	}
	t.queue = append(t.queue, w)
	a.dispatchLocked()
	return w, nil
}

// wait blocks until the waiter is admitted, rejected, or ctx is done.
// A ctx-abandoned waiter is removed from its queue (or, if it was
// admitted in the race, its slot is released).
func (w *waiter) wait(ctx context.Context, a *admitter) error {
	select {
	case <-w.ready:
		return w.err
	case <-ctx.Done():
	}
	a.mu.Lock()
	for i, q := range w.tenant.queue {
		if q == w {
			w.tenant.queue = append(w.tenant.queue[:i], w.tenant.queue[i+1:]...)
			w.err = ctx.Err()
			close(w.ready)
			a.mu.Unlock()
			return w.err
		}
	}
	a.mu.Unlock()
	// Not queued: it was admitted (or rejected) concurrently with the
	// cancellation. Honour whichever happened.
	<-w.ready
	if w.err == nil {
		// Admitted, but the caller is gone: hand the slot back.
		a.release(w.tenant.name)
		return ctx.Err()
	}
	return w.err
}

// release returns one admitted slot of the tenant and admits further
// waiters if any became runnable.
func (a *admitter) release(tenantName string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	if t := a.tenants[tenantName]; t != nil && t.inflight > 0 {
		t.inflight--
	}
	a.dispatchLocked()
}

// dispatchLocked admits queue heads while global capacity remains:
// stride scheduling over the runnable tenants (non-empty queue, under
// their per-tenant in-flight cap), smallest pass first.
func (a *admitter) dispatchLocked() {
	for a.inflight < a.capacity {
		var pick *tenantSched
		for _, t := range a.tenants {
			if len(t.queue) == 0 || t.inflight >= t.quota.MaxInFlight {
				continue
			}
			if pick == nil || t.pass < pick.pass ||
				(t.pass == pick.pass && t.name < pick.name) {
				pick = t
			}
		}
		if pick == nil {
			return
		}
		w := pick.queue[0]
		pick.queue = pick.queue[1:]
		pick.inflight++
		a.inflight++
		pick.pass += 1 / float64(pick.quota.Weight)
		a.global = pick.pass
		close(w.ready)
	}
}

// close rejects every waiting query with ErrDraining and stops
// accepting new ones; already-admitted slots drain through release.
func (a *admitter) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	for _, t := range a.tenants {
		for _, w := range t.queue {
			w.err = ErrDraining
			close(w.ready)
		}
		t.queue = nil
	}
}

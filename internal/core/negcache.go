package core

import "sync"

// negCacheSize bounds the negative-containment cache.
const negCacheSize = 4096

// negKey identifies one cached rejection: this entry version's plan is
// not contained in the job plan with this fingerprint.
type negKey struct {
	entry *Entry
	jobFP string
}

// negCache is the repository's one memo of failed containment tests.
// It serves every probe: the claim protocol's repeated re-rewrites of an
// unchanged plan within one submission, and fleets of near-identical
// submissions — dashboards re-running the same script — re-testing the
// same entries against the same job fingerprints.
//
// A key pairs one entry *version* (entries are immutable; replacement
// swaps a fresh pointer) with one job-plan fingerprint (a pure function
// of the plan), so a cached rejection can never suppress a live match.
// Replacement and removal still invalidate eagerly so the bounded
// capacity is not wasted on dead entries.
//
// The structure is an LRU over a doubly linked list.
type negCache struct {
	mu    sync.Mutex
	nodes map[negKey]*negNode
	// byEntry indexes keys by entry for O(keys-of-entry) invalidation.
	byEntry map[*Entry]map[string]struct{}
	// head is most recent, tail least; evictions pop the tail.
	head, tail *negNode
	cap        int
	evictions  int64
}

type negNode struct {
	key        negKey
	prev, next *negNode
}

func newNegCache(capacity int) *negCache {
	return &negCache{
		cap:     capacity,
		nodes:   map[negKey]*negNode{},
		byEntry: map[*Entry]map[string]struct{}{},
	}
}

// lookup reports whether the rejection is cached, refreshing its
// recency on a hit.
func (c *negCache) lookup(k negKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[k]
	if n == nil {
		return false
	}
	c.unlink(n)
	c.pushFront(n)
	return true
}

// add caches a rejection, evicting the least recently used one when the
// cache is full.
func (c *negCache) add(k negKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[k]; n != nil {
		c.unlink(n)
		c.pushFront(n)
		return
	}
	n := &negNode{key: k}
	c.nodes[k] = n
	c.pushFront(n)
	fps := c.byEntry[k.entry]
	if fps == nil {
		fps = map[string]struct{}{}
		c.byEntry[k.entry] = fps
	}
	fps[k.jobFP] = struct{}{}
	for len(c.nodes) > c.cap {
		c.removeLocked(c.tail.key)
		c.evictions++
	}
}

// invalidate drops every cached rejection of the entry — called under
// the repository lock when an entry is replaced or removed.
func (c *negCache) invalidate(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fp := range c.byEntry[e] {
		c.removeLocked(negKey{entry: e, jobFP: fp})
	}
}

// removeLocked unlinks and deletes one key (mu held).
func (c *negCache) removeLocked(k negKey) {
	n := c.nodes[k]
	if n == nil {
		return
	}
	c.unlink(n)
	delete(c.nodes, k)
	if fps := c.byEntry[k.entry]; fps != nil {
		delete(fps, k.jobFP)
		if len(fps) == 0 {
			delete(c.byEntry, k.entry)
		}
	}
}

func (c *negCache) unlink(n *negNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if c.head == n {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if c.tail == n {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *negCache) pushFront(n *negNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// stats snapshots the cache's eviction count and size for MatcherStats.
func (c *negCache) stats() (evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, len(c.nodes)
}

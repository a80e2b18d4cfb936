package mapreduce

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/dfs"
	"repro/internal/tuple"
)

// DefaultMaxCachedBatchBytes is the decoded-dataset cache budget when
// the configuration leaves MaxCachedBatchBytes zero.
const DefaultMaxCachedBatchBytes int64 = 256 << 20

// BatchCache is the engine's decoded-dataset cache: each entry holds
// one dataset's part files as columnar tuple.Batch vectors, keyed by
// dataset path and stamped with the dataset's DFS version at decode
// time. It fills only when a job reads a dataset it does not hold
// (Engine.loadDataset); a job's own outputs enter it on their first
// read. Invalidation is eager: every delete or rename of a dataset a
// job may have written goes through Engine.DeleteDataset or
// Engine.RenameDataset, which drop the decoded copy in the same call,
// so the cache never holds a dataset the DFS no longer has. Writers
// outside the engine (appends, a user's WriteDataset) are covered by
// the version stamp instead: they move the dataset's DFS version, the
// same bump that drives Repository.Valid, and Get drops an entry whose
// stamp no longer matches. The cache therefore works identically over
// the in-memory and on-disk DFS backends, and a dataset one query
// reads feeds cache hits in every other query of the System.
//
// Entries are evicted least-recently-used under the byte budget (a
// reuse refreshes recency, so hot repository outputs stay resident
// while one-shot temporaries age out). All methods are safe for
// concurrent use.
type BatchCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits, misses        int64
	hitBytes, missBytes int64
	inserts, evictions  int64
	evictedBytes        int64
	invalidations       int64
}

// cachedDataset is one decoded dataset: its part files in fs.List
// order, each as a columnar batch, and their sizes.
type cachedDataset struct {
	path    string
	version int64
	files   []string
	batches []*tuple.Batch
	mem     int64 // sum of batch MemBytes
	src     int64 // sum of batch SrcBytes (DFS reads saved per hit)
}

// add appends one part file's decoded batch and charges its sizes.
func (ds *cachedDataset) add(file string, b *tuple.Batch) {
	ds.files = append(ds.files, file)
	ds.batches = append(ds.batches, b)
	ds.mem += b.MemBytes()
	ds.src += b.SrcBytes()
}

// NewBatchCache returns a cache bounded to budget bytes of decoded
// batches (<=0 selects DefaultMaxCachedBatchBytes).
func NewBatchCache(budget int64) *BatchCache {
	if budget <= 0 {
		budget = DefaultMaxCachedBatchBytes
	}
	return &BatchCache{
		budget:  budget,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// Get returns the cached decode of the dataset at path when its stamped
// version still matches the DFS, refreshing its recency. A version
// mismatch drops the stale entry and counts an invalidation; both that
// and a plain absence count a miss.
func (c *BatchCache) Get(fs dfs.Backend, path string) *cachedDataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[path]
	if el == nil {
		c.misses++
		return nil
	}
	ds := el.Value.(*cachedDataset)
	if fs.Version(path) != ds.version {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	c.hitBytes += ds.src
	return ds
}

// Put inserts (or replaces) the dataset's decoded batches and evicts
// from the cold end until the budget holds again. The newest entry
// itself is never evicted by its own insert, so a single dataset larger
// than the budget still caches (and is reclaimed by the next insert).
func (c *BatchCache) Put(ds *cachedDataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[ds.path]; el != nil {
		c.removeLocked(el)
	}
	el := c.lru.PushFront(ds)
	c.entries[ds.path] = el
	c.used += ds.mem
	c.inserts++
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		if back == el {
			break
		}
		victim := back.Value.(*cachedDataset)
		c.removeLocked(back)
		c.evictions++
		c.evictedBytes += victim.mem
	}
}

// Drop discards the entry for path, if any, and counts an invalidation:
// what Get would do on the next lookup of a deleted dataset, done now.
func (c *BatchCache) Drop(path string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[path]; el != nil {
		c.removeLocked(el)
		c.invalidations++
	}
}

// Paths lists the datasets the cache holds an entry for, sorted.
func (c *BatchCache) Paths() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for path := range c.entries {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// noteMiss accounts the decode cost of a miss (bytes read from the
// DFS while filling).
func (c *BatchCache) noteMiss(srcBytes int64) {
	c.mu.Lock()
	c.missBytes += srcBytes
	c.mu.Unlock()
}

func (c *BatchCache) removeLocked(el *list.Element) {
	ds := el.Value.(*cachedDataset)
	c.lru.Remove(el)
	delete(c.entries, ds.path)
	c.used -= ds.mem
}

// BatchCacheStats is a point-in-time snapshot of the decoded-dataset
// cache. HitBytes totals the DFS bytes hits avoided re-reading.
type BatchCacheStats struct {
	Entries     int
	UsedBytes   int64
	BudgetBytes int64

	Hits      int64
	Misses    int64
	HitBytes  int64
	MissBytes int64

	Inserts       int64
	Evictions     int64
	EvictedBytes  int64
	Invalidations int64

	// PartitionReplays is always zero: shuffle partitions are computed
	// from the key, never replayed. It remains only because the
	// benchmark's mapreduce.cache.partition_replays metric reads it; the
	// benchmark change that drops that metric deletes this field.
	PartitionReplays int64
}

// HitRatio is Hits over all lookups (0 before any lookup).
func (s BatchCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *BatchCache) Stats() BatchCacheStats {
	if c == nil {
		return BatchCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return BatchCacheStats{
		Entries:       len(c.entries),
		UsedBytes:     c.used,
		BudgetBytes:   c.budget,
		Hits:          c.hits,
		Misses:        c.misses,
		HitBytes:      c.hitBytes,
		MissBytes:     c.missBytes,
		Inserts:       c.inserts,
		Evictions:     c.evictions,
		EvictedBytes:  c.evictedBytes,
		Invalidations: c.invalidations,
	}
}

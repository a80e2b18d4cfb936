package mapreduce

import (
	"container/list"
	"math"
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
// the dataset as dfs.DatasetOf keys it and stamped with the dataset's
// DFS version at decode time. It fills only when a job reads a dataset
// it does not hold (Engine.loadDataset); a job's own outputs enter it on
// their first read.
//
// Invalidation reads the DFS change feed (Backend.Changes), which
// reports every version bump whoever made it: a job's output, a delete
// or rename, an append, a user's WriteDataset, a peer process. The
// cache keeps a cursor into the feed, and every operation (Get, Put,
// Paths, Stats) first drains it, dropping each entry whose dataset the
// feed reports at a version past the entry's stamp. A cursor the feed
// overran compares every entry with the DFS instead. A drained cursor
// proves the entries current, so a lookup asks the DFS nothing; the
// cache works identically over the in-memory and on-disk backends, and
// a dataset one query reads feeds cache hits in every other query of
// the System.
//
// Entries are evicted least-recently-used under the byte budget (a
// reuse refreshes recency, so hot repository outputs stay resident
// while one-shot temporaries age out). All methods are safe for
// concurrent use.
type BatchCache struct {
	fs dfs.Backend

	mu      sync.Mutex
	cursor  int64 // change-feed position the next drain reads from
	budget  int64
	used    int64
	entries map[string]*list.Element // by dfs.DatasetOf(path)
	lru     *list.List               // front = most recently used

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

// NewBatchCache returns a cache of the datasets on fs, bounded to budget
// bytes of decoded batches as MemBytes charges them, beyond the file
// text the DFS holds (<=0 selects DefaultMaxCachedBatchBytes).
func NewBatchCache(fs dfs.Backend, budget int64) *BatchCache {
	if budget <= 0 {
		budget = DefaultMaxCachedBatchBytes
	}
	_, head, _ := fs.Changes(math.MaxInt64)
	return &BatchCache{
		fs:      fs,
		cursor:  head,
		budget:  budget,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// drain reads the change feed from the cursor on (mu held) and drops
// every entry whose dataset moved past its stamp. An entry may be
// stamped later than a change not yet drained, so only a newer version
// drops it.
func (c *BatchCache) drain() {
	changes, next, complete := c.fs.Changes(c.cursor)
	c.cursor = next
	if !complete {
		changes = changes[:0]
		for key := range c.entries {
			changes = append(changes, dfs.Change{Dataset: key, Version: c.fs.Version(key)})
		}
	}
	for _, ch := range changes {
		if el := c.entries[ch.Dataset]; el != nil && ch.Version > el.Value.(*cachedDataset).version {
			c.removeLocked(el)
			c.invalidations++
		}
	}
}

// Get returns the cached decode of the dataset at path, refreshing its
// recency, or nil (a miss) when the cache holds none.
func (c *BatchCache) Get(path string) *cachedDataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drain()
	el := c.entries[dfs.DatasetOf(path)]
	if el == nil || el.Value.(*cachedDataset).path != path {
		c.misses++
		return nil
	}
	ds := el.Value.(*cachedDataset)
	c.lru.MoveToFront(el)
	c.hits++
	c.hitBytes += ds.src
	return ds
}

// Put accounts the decode of a miss and inserts (or replaces) the
// dataset's decoded batches, unless the dataset moved past its stamp
// meanwhile: checked after the drain, under the lock, so a later bump is
// past the cursor and the next drain drops the entry. It then evicts
// from the cold end until the budget holds again. The newest entry
// itself is never evicted by its own insert, so a single dataset larger
// than the budget still caches (and is reclaimed by the next insert).
func (c *BatchCache) Put(ds *cachedDataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.missBytes += ds.src
	c.drain()
	if c.fs.Version(ds.path) != ds.version {
		return
	}
	key := dfs.DatasetOf(ds.path)
	if el := c.entries[key]; el != nil {
		c.removeLocked(el)
	}
	el := c.lru.PushFront(ds)
	c.entries[key] = el
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

// Paths lists the datasets the cache holds an entry for, sorted.
func (c *BatchCache) Paths() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drain()
	out := make([]string, 0, len(c.entries))
	for key := range c.entries {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func (c *BatchCache) removeLocked(el *list.Element) {
	ds := el.Value.(*cachedDataset)
	c.lru.Remove(el)
	delete(c.entries, dfs.DatasetOf(ds.path))
	c.used -= ds.mem
}

// BatchCacheStats is a point-in-time snapshot of the decoded-dataset
// cache. HitBytes totals the DFS bytes hits avoided re-reading.
//
// UsedBytes is the sum of the cached batches' MemBytes: what the cache
// adds beyond the file text the DFS holds in memory. The batches'
// strings slice that text, and neither UsedBytes nor the budget counts
// it; a read that returned a buffer of its own (Disk) is counted.
// Its prom tags shape its Prometheus series (service.StatsBundle).
type BatchCacheStats struct {
	Entries     int   `prom:"gauge"`
	UsedBytes   int64 `prom:"gauge"`
	BudgetBytes int64 `prom:"gauge"`

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
	PartitionReplays int64 `prom:"-"`
}

// Stats snapshots the cache counters.
func (c *BatchCache) Stats() BatchCacheStats {
	if c == nil {
		return BatchCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drain()
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

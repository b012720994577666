package serving

import (
	"container/list"
	"sync"
	"time"

	"bestpeer/internal/sqldb"
)

// Versioned result cache: entries are keyed by the session user plus
// the statement's normalized rendering (so textual variants of one
// query share an entry, but accounts never do — data owners mask rows
// per role; see cacheKey) and stamped with versions captured before
// execution. A lookup serves an entry only when the versions still
// match the database exactly, so a stale result is structurally
// unservable; the mismatching entry is dropped on sight and counted as
// an invalidation. Bounded by entry count (LRU) and per-result bytes
// (oversized results are never cached).
//
// The stamp (Config.TableVersions) is the schema version plus a
// per-table data-version vector covering exactly the tables the
// statement reads: DML against any other table leaves the entry
// servable, so a busy ingest pipeline on one table does not storm the
// whole cache.
//
// Cached *sqldb.Result values are shared by reference with every hit;
// results are treated as immutable once executed, the same contract the
// engines already rely on when fanning a subquery result out.

// cacheEntry is one cached query result.
type cacheEntry struct {
	key     string
	res     *sqldb.Result
	engine  string
	vtime   time.Duration
	schemaV uint64
	// dataVec is the per-table data-version vector for the tables the
	// statement reads (sorted table order).
	dataVec []uint64
	bytes   int64
}

// vecEqual reports element-wise equality of two version vectors.
func vecEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64      // per-entry bound
	lru      *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element
	bytes    int64
	m        *metrics
}

func newResultCache(capacity int, maxBytes int64, m *metrics) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		m:        m,
	}
}

// lookup returns the fresh entry cached under key, or nil. An entry
// whose stamp no longer matches is removed and counted as an
// invalidation — the lazy half of invalidation; the eager half is
// InvalidateAll on failover.
func (c *resultCache) lookup(key string, schemaV uint64, dataVec []uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.schemaV != schemaV || !vecEqual(e.dataVec, dataVec) {
		c.removeLocked(el, e)
		c.m.cacheInvalidations.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// store inserts or replaces the entry for e.key, evicting from the LRU
// tail past capacity. Oversized results are dropped (counted), not
// cached.
func (c *resultCache) store(e *cacheEntry) {
	if e.bytes > c.maxBytes {
		c.m.cacheOversize.Inc()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += e.bytes - old.bytes
		c.m.cacheBytes.Add(e.bytes - old.bytes)
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	c.m.cacheEntries.Add(1)
	c.m.cacheBytes.Add(e.bytes)
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		te := tail.Value.(*cacheEntry)
		c.removeLocked(tail, te)
		c.m.cacheEvictions.Inc()
	}
}

// removeLocked unlinks one entry and updates the gauges.
func (c *resultCache) removeLocked(el *list.Element, e *cacheEntry) {
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	c.m.cacheEntries.Add(-1)
	c.m.cacheBytes.Add(-e.bytes)
}

// invalidateAll drops every entry (failover: a restored backup may
// rewind the data version sum, which lazy version checks cannot see).
func (c *resultCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(c.lru.Len())
	if n == 0 {
		return
	}
	c.lru.Init()
	c.byKey = make(map[string]*list.Element)
	c.m.cacheEntries.Add(-n)
	c.m.cacheBytes.Add(-c.bytes)
	c.bytes = 0
	c.m.cacheInvalidations.Add(n)
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// resultBytes estimates a result's cached footprint.
func resultBytes(res *sqldb.Result) int64 {
	if res == nil {
		return 0
	}
	if res.Stats.BytesReturned > 0 {
		return res.Stats.BytesReturned
	}
	// Aggregates report zero BytesReturned; charge a small per-cell
	// estimate so entry accounting never records zero-byte rows.
	var cells int64
	for _, row := range res.Rows {
		cells += int64(len(row))
	}
	return 16 * (cells + int64(len(res.Columns)))
}

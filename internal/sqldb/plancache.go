package sqldb

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"bestpeer/internal/telemetry"
)

// planCache is a bounded LRU of compiled statements keyed by SQL text.
// The engines ship the same subquery template to every peer on every
// round, so the data-owner hot path is lookup-and-run; parse and
// compile happen once per distinct statement per schema version.
//
// Invalidation: every DDL (CREATE TABLE, DROP TABLE, CREATE INDEX)
// bumps the database's schema version under db.mu and clears the cache.
// Entries also carry the version they were compiled under, and a
// version mismatch on lookup is treated as a miss — a second line of
// defense so a stale plan can never run against a changed schema.
//
// Lock order: db.mu (read or write) may be held while taking cache.mu,
// never the reverse.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *planEntry
	byKey map[string]*list.Element
}

// planEntry is one cached statement: the parse result and, for SELECTs
// that compiled cleanly, the plan.
type planEntry struct {
	key    string
	stmt   Statement
	plan   *selectPlan
	ver    uint64   // schema version the plan was compiled under
	sver   uint64   // statistics version the plan was costed under
	tables []string // lowercased FROM-clause tables (scoped invalidation)
}

// references reports whether the entry's plan reads the given
// (lowercased) table.
func (e *planEntry) references(table string) bool {
	for _, t := range e.tables {
		if t == table {
			return true
		}
	}
	return false
}

// tablesOf lists a SELECT's FROM-clause tables, lowercased.
func tablesOf(s *SelectStmt) []string {
	out := make([]string, 0, len(s.From))
	for _, ref := range s.From {
		out = append(out, strings.ToLower(ref.Table))
	}
	return out
}

// ReferencedTables lists the distinct tables a SELECT reads, lowercased
// and sorted: the key set a result cache needs to stamp an entry with a
// per-table version vector (VersionVector).
func ReferencedTables(s *SelectStmt) []string {
	tables := tablesOf(s)
	sort.Strings(tables)
	out := tables[:0]
	for i, t := range tables {
		if i == 0 || t != tables[i-1] {
			out = append(out, t)
		}
	}
	return out
}

var (
	planCacheHits        = telemetry.Default.Counter("sqldb_plan_cache_hits_total")
	planCacheMisses      = telemetry.Default.Counter("sqldb_plan_cache_misses_total")
	planCacheEvictions   = telemetry.Default.Counter("sqldb_plan_cache_evictions_total")
	planCacheInvalidated = telemetry.Default.Counter("sqldb_plan_cache_invalidations_total")
	planCacheEntries     = telemetry.Default.Gauge("sqldb_plan_cache_entries")
	// Invalidation *events* by scope: "full" (CREATE TABLE clears
	// everything) vs "scoped" (DROP TABLE / CREATE INDEX drop only the
	// plans reading the changed table). planCacheInvalidated keeps
	// counting the entries dropped, as before.
	planCacheInvalFull   = telemetry.Default.Counter("sqldb_plan_cache_invalidation_events_total", telemetry.L("scope", "full"))
	planCacheInvalScoped = telemetry.Default.Counter("sqldb_plan_cache_invalidation_events_total", telemetry.L("scope", "scoped"))
)

const defaultPlanCacheCap = 256

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), byKey: make(map[string]*list.Element)}
}

// lookup returns the entry cached under key (refreshing its recency) or
// nil. Callers check the entry's version before trusting its plan.
func (c *planCache) lookup(key string) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry)
}

// store inserts or replaces the entry for e.key, evicting from the LRU
// tail past capacity.
func (c *planCache) store(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	planCacheEntries.Add(1)
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.byKey, tail.Value.(*planEntry).key)
		planCacheEntries.Add(-1)
		planCacheEvictions.Inc()
	}
}

// invalidate drops every entry; called under db.mu.Lock by DDL.
func (c *planCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	planCacheInvalFull.Inc()
	n := c.lru.Len()
	if n == 0 {
		return
	}
	c.lru.Init()
	c.byKey = make(map[string]*list.Element)
	planCacheEntries.Add(int64(-n))
	planCacheInvalidated.Add(int64(n))
}

// invalidateScoped drops only the entries whose plans read table and
// restamps the survivors to newVer: a plan that never touches the
// changed table stays valid under the new schema version, so dropping
// it would throw away a compilation for nothing. Restamping is safe
// against concurrent lookups because scoped invalidation runs under
// db.mu.Lock while lookups hold db.mu.RLock. Called by DROP TABLE and
// CREATE INDEX.
func (c *planCache) invalidateScoped(table string, newVer uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	planCacheInvalScoped.Inc()
	key := strings.ToLower(table)
	dropped := int64(0)
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*planEntry)
		if e.references(key) {
			c.lru.Remove(el)
			delete(c.byKey, e.key)
			dropped++
			continue
		}
		e.ver = newVer
	}
	if dropped > 0 {
		planCacheEntries.Add(-dropped)
		planCacheInvalidated.Add(dropped)
	}
}

// len reports the number of cached entries.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

package sqldb

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Bounded per-table access accounting — the storage tier's contribution
// to the heat plane. Every index probe and full scan increments its
// table's pair of atomic counters; the table set is capped so a
// workload touching unbounded table names (temp tables, fuzzers) folds
// into one overflow slot instead of growing label cardinality. The peer
// reporter turns these counts into peer_table_access_total deltas, so
// the collector can say not just which key range is hot but which table
// the traffic hits.

// maxAccessTables caps the distinct tables tracked per database;
// accesses to tables beyond the cap land in the shared overflow slot.
const maxAccessTables = 32

// AccessOverflowTable names the overflow slot in AccessCounts output.
const AccessOverflowTable = "~other"

// TableAccess is one table's live access counters. Handles are resolved
// once at plan-compile time and incremented from scan entry points.
type TableAccess struct {
	scans      atomic.Int64
	indexReads atomic.Int64
}

// record counts one access through the chosen path.
func (t *TableAccess) record(index bool) {
	if t == nil {
		return
	}
	if index {
		t.indexReads.Add(1)
	} else {
		t.scans.Add(1)
	}
}

// AccessCounts is one table's frozen access totals.
type AccessCounts struct {
	Table      string
	Scans      int64
	IndexReads int64
}

// accessStats is the per-DB bounded table registry.
type accessStats struct {
	mu       sync.Mutex
	tables   map[string]*TableAccess
	overflow TableAccess
}

// handle resolves (or creates) a table's counter pair; tables past the
// cap share the overflow slot.
func (a *accessStats) handle(table string) *TableAccess {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tables == nil {
		a.tables = make(map[string]*TableAccess)
	}
	if t := a.tables[table]; t != nil {
		return t
	}
	if len(a.tables) >= maxAccessTables {
		return &a.overflow
	}
	t := &TableAccess{}
	a.tables[table] = t
	return t
}

// counts freezes every tracked table's totals, sorted by table name,
// with the overflow slot (when touched) reported last under
// AccessOverflowTable.
func (a *accessStats) counts() []AccessCounts {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AccessCounts, 0, len(a.tables)+1)
	for name, t := range a.tables {
		c := AccessCounts{Table: name, Scans: t.scans.Load(), IndexReads: t.indexReads.Load()}
		if c.Scans == 0 && c.IndexReads == 0 {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	if s, ix := a.overflow.scans.Load(), a.overflow.indexReads.Load(); s > 0 || ix > 0 {
		out = append(out, AccessCounts{Table: AccessOverflowTable, Scans: s, IndexReads: ix})
	}
	return out
}

// AccessCounts returns the database's per-table access totals (index
// probes vs full scans), sorted by table, bounded to maxAccessTables
// distinct tables plus one overflow slot.
func (db *DB) AccessCounts() []AccessCounts {
	return db.access.counts()
}

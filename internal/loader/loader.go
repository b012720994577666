// Package loader implements the BestPeer++ data loader (paper §4.2):
// the offline data flow that extracts data from a participant's
// production system, transforms it to the shared global schema through
// the schema mapping, and keeps the normal peer's local database
// consistent with the production data as it changes.
//
// Two refresh strategies are implemented:
//
// Snapshot differentials, following the paper (which follows Labio &
// Garcia-Molina): every extracted tuple is fingerprinted with 32-bit
// Rabin fingerprinting, both snapshots are sorted by fingerprint, and a
// sort-merge pass over the two sorted snapshots reveals inserted and
// deleted tuples (an update appears as a delete plus an insert). This
// is the only option for the initial load and the resync path when the
// change feed has a retention gap.
//
// CDC deltas: once every mapped table has been loaded, later passes
// tail the production system's ordered change feed (ChangesSince) and
// apply just the recorded events — no re-extraction, no re-sorting, so
// cost scales with churn instead of table size.
//
// Either way a pass applies its changes through dest.Atomic, so a
// mid-merge failure rolls the peer database back to the pre-pass state
// and leaves the stored snapshot untouched: a retried Run never
// double-applies a delta or trips over stale snapshot row IDs.
package loader

import (
	"fmt"
	"sort"
	"strings"

	"bestpeer/internal/erp"
	"bestpeer/internal/fingerprint"
	"bestpeer/internal/schemamap"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
)

// TableOutcome reports what one pass did to one global table.
type TableOutcome struct {
	Table string // global table name
	// Mode is "initial" (first load), "snapshot" (differential
	// refresh), or "cdc" (change-feed refresh).
	Mode      string
	Inserted  int
	Deleted   int
	Unchanged int
	// Err is set when the table's merge failed; its changes were rolled
	// back and it is counted in neither TablesLoaded nor
	// TablesUnchanged.
	Err string
}

// Delta reports what one load pass changed.
type Delta struct {
	// TablesLoaded counts tables whose pass completed AND applied at
	// least one change (initial loads always count). Tables that
	// completed with nothing to do are in TablesUnchanged; tables whose
	// merge failed are in neither — see Outcomes.
	TablesLoaded    int
	TablesUnchanged int
	Inserted        int
	Deleted         int
	// Unchanged counts tuples carried over untouched from the previous
	// pass.
	Unchanged int
	// Events is the number of CDC change events consumed (0 for
	// snapshot passes).
	Events int
	// Outcomes holds the per-table accounting, one entry per mapped
	// table attempted this pass, in mapping order.
	Outcomes []TableOutcome
}

// snapRec is one tuple of a stored snapshot: its fingerprint, canonical
// encoding, transformed global row, and the row ID it occupies in the
// peer database.
type snapRec struct {
	fp    uint32
	enc   string
	row   sqlval.Row
	rowID int
}

var (
	loaderSnapshotPasses = telemetry.Default.Counter("loader_passes_total", telemetry.L("mode", "snapshot"))
	loaderCDCPasses      = telemetry.Default.Counter("loader_passes_total", telemetry.L("mode", "cdc"))
	loaderCDCEventsIns   = telemetry.Default.Counter("loader_cdc_events_total", telemetry.L("kind", "insert"))
	loaderCDCEventsDel   = telemetry.Default.Counter("loader_cdc_events_total", telemetry.L("kind", "delete"))
	loaderCDCEventsUpd   = telemetry.Default.Counter("loader_cdc_events_total", telemetry.L("kind", "update"))
	loaderCDCFallbacks   = telemetry.Default.Counter("loader_cdc_fallbacks_total")
	loaderRollbacks      = telemetry.Default.Counter("loader_merge_rollbacks_total")
)

func init() {
	d := telemetry.Default
	d.SetHelp("loader_passes_total", "Completed load passes by refresh mode.")
	d.SetHelp("loader_cdc_events_total", "CDC change events applied, by kind.")
	d.SetHelp("loader_cdc_fallbacks_total", "CDC passes abandoned for a snapshot resync (feed gap or apply failure).")
	d.SetHelp("loader_merge_rollbacks_total", "Merge passes rolled back after a mid-pass failure.")
}

// Loader synchronizes one production system into one peer database.
type Loader struct {
	sys     *erp.System
	mapping *schemamap.Mapping
	dest    *sqldb.DB
	global  func(table string) *sqldb.Schema
	// snapshots holds, per global table, the previous snapshot sorted by
	// (fingerprint, encoding). The paper stores snapshots "in a separate
	// database" on the peer instance; here they live with the loader.
	snapshots map[string][]snapRec
	// primed is set once a full pass has loaded every mapped table;
	// only then can CDC deltas substitute for snapshot differentials.
	primed bool
	// lastSeq is the production feed position the snapshots correspond
	// to. Run assumes the production system is quiescent while a pass
	// extracts (single writer at a time, per the paper's offline data
	// flow); concurrent mutations are picked up by the next pass.
	// The loader never acks (truncates) the feed — several loaders may
	// tail one system — relying instead on the feed's own bounded
	// retention; falling off the retained tail just costs one snapshot
	// resync.
	lastSeq uint64
}

// New creates a loader. global resolves global-schema tables (the
// corporate network's shared schema, distributed by the bootstrap peer).
func New(sys *erp.System, mapping *schemamap.Mapping, dest *sqldb.DB, global func(string) *sqldb.Schema) (*Loader, error) {
	if err := mapping.Validate(sys.Schema, global); err != nil {
		return nil, err
	}
	return &Loader{
		sys:       sys,
		mapping:   mapping,
		dest:      dest,
		global:    global,
		snapshots: make(map[string][]snapRec),
	}, nil
}

// FeedPosition returns the production change-feed sequence the loaded
// state corresponds to.
func (l *Loader) FeedPosition() uint64 { return l.lastSeq }

// Run performs one load pass over every mapped table: the first call is
// the initial load; later calls consume the production change feed when
// possible and otherwise extract fresh snapshots, diff them against the
// stored ones, and apply only the changes.
func (l *Loader) Run() (Delta, error) {
	if l.primed {
		if d, ok := l.runCDC(); ok {
			loaderCDCPasses.Inc()
			return d, nil
		}
		loaderCDCFallbacks.Inc()
	}

	// Snapshot pass. The feed position is captured up front: anything
	// recorded before this point is reflected in the snapshots below
	// (quiescent-extraction assumption), so CDC can resume from here.
	feedSeq := l.sys.FeedSeq()
	var total Delta
	for i := range l.mapping.Tables {
		tm := &l.mapping.Tables[i]
		out, err := l.runTable(tm)
		total.Outcomes = append(total.Outcomes, out)
		if err != nil {
			return total, fmt.Errorf("loader: table %s: %w", tm.LocalTable, err)
		}
		total.Inserted += out.Inserted
		total.Deleted += out.Deleted
		total.Unchanged += out.Unchanged
		if out.Inserted+out.Deleted > 0 || out.Mode == "initial" {
			total.TablesLoaded++
		} else {
			total.TablesUnchanged++
		}
	}
	l.primed = true
	l.lastSeq = feedSeq
	loaderSnapshotPasses.Inc()
	return total, nil
}

func (l *Loader) runTable(tm *schemamap.TableMapping) (TableOutcome, error) {
	out := TableOutcome{Table: tm.GlobalTable, Mode: "snapshot"}
	old, had := l.snapshots[tm.GlobalTable]
	if !had {
		out.Mode = "initial"
	}
	localSchema := l.sys.Schema(tm.LocalTable)
	globalSchema := l.global(tm.GlobalTable)
	if localSchema == nil || globalSchema == nil {
		err := fmt.Errorf("missing schema for %s -> %s", tm.LocalTable, tm.GlobalTable)
		out.Err = err.Error()
		return out, err
	}
	// DDL cannot run inside Atomic (it takes the database lock), so the
	// destination table is created before the merge begins.
	destTable := l.dest.Table(tm.GlobalTable)
	if destTable == nil {
		var err error
		destTable, err = l.dest.CreateTable(globalSchema)
		if err != nil {
			out.Err = err.Error()
			return out, err
		}
	}

	rows, err := l.sys.Extract(tm.LocalTable)
	if err != nil {
		out.Err = err.Error()
		return out, err
	}
	fresh := make([]snapRec, 0, len(rows))
	for _, row := range rows {
		g, err := tm.Transform(localSchema, globalSchema, row)
		if err != nil {
			out.Err = err.Error()
			return out, err
		}
		enc := g.String()
		fresh = append(fresh, snapRec{fp: fingerprint.String(enc), enc: enc, row: g, rowID: -1})
	}
	sortSnap(fresh)

	// Sort-merge the two fingerprint-sorted snapshots, applying the
	// deltas as one atomic batch: a mid-merge failure rolls every
	// applied change back and leaves the stored snapshot untouched, so
	// a retried pass starts clean instead of double-applying.
	err = l.dest.Atomic(func() error {
		i, j := 0, 0
		for i < len(old) || j < len(fresh) {
			switch {
			case j >= len(fresh) || (i < len(old) && lessRec(old[i], fresh[j])):
				// Present before, gone now: deleted tuple.
				if !destTable.Delete(old[i].rowID) {
					return fmt.Errorf("stale snapshot row id %d", old[i].rowID)
				}
				out.Deleted++
				i++
			case i >= len(old) || lessRec(fresh[j], old[i]):
				// New tuple: insert.
				id, err := destTable.Insert(fresh[j].row)
				if err != nil {
					return err
				}
				fresh[j].rowID = id
				out.Inserted++
				j++
			default:
				// Equal fingerprint and encoding: unchanged; carry the row ID.
				fresh[j].rowID = old[i].rowID
				out.Unchanged++
				i++
				j++
			}
		}
		return nil
	})
	if err != nil {
		loaderRollbacks.Inc()
		out.Inserted, out.Deleted, out.Unchanged = 0, 0, 0
		out.Err = err.Error()
		return out, err
	}
	l.snapshots[tm.GlobalTable] = fresh
	return out, nil
}

// runCDC applies the production change feed since the last pass. ok is
// false when the feed cannot be used (retention gap, unmappable event,
// or a mid-apply failure — everything rolled back) and the caller must
// fall back to a snapshot pass.
func (l *Loader) runCDC() (Delta, bool) {
	recs, ok := l.sys.ChangesSince(l.lastSeq)
	if !ok {
		return Delta{}, false
	}

	// Per-mapping plumbing is resolved before the atomic batch: DB
	// accessors take the database lock the batch will be holding.
	type route struct {
		tm           *schemamap.TableMapping
		local, globl *sqldb.Schema
		dest         *sqldb.Table
	}
	byLocal := make(map[string]*route, len(l.mapping.Tables))
	for i := range l.mapping.Tables {
		tm := &l.mapping.Tables[i]
		rt := &route{
			tm:    tm,
			local: l.sys.Schema(tm.LocalTable),
			globl: l.global(tm.GlobalTable),
			dest:  l.dest.Table(tm.GlobalTable),
		}
		if rt.local == nil || rt.globl == nil || rt.dest == nil {
			return Delta{}, false // resync repairs whatever is missing
		}
		byLocal[strings.ToLower(tm.LocalTable)] = rt
	}

	// Snapshot changes are staged per table as removal marks against the
	// base snapshot plus an unsorted addition list, merged into a fresh
	// sorted snapshot only when every event applied — mirroring the
	// atomic batch on the destination tables, and costing O(events·log n
	// + n) instead of an O(n) slice shift per event.
	type stage struct {
		removed map[int]bool // indices into the base snapshot
		added   []snapRec
		counts  TableOutcome
	}
	stages := make(map[string]*stage)
	stageOf := func(global string) *stage {
		if s, ok := stages[global]; ok {
			return s
		}
		s := &stage{removed: make(map[int]bool), counts: TableOutcome{Table: global, Mode: "cdc"}}
		stages[global] = s
		return s
	}
	// removeTuple drops one live occurrence of enc from the stage,
	// returning the destination row ID it occupied.
	removeTuple := func(global string, enc string) (int, bool) {
		st := stageOf(global)
		base := l.snapshots[global]
		probe := snapRec{fp: fingerprint.String(enc), enc: enc}
		at := sort.Search(len(base), func(i int) bool { return !lessRec(base[i], probe) })
		for ; at < len(base) && base[at].fp == probe.fp && base[at].enc == enc; at++ {
			if !st.removed[at] {
				st.removed[at] = true
				return base[at].rowID, true
			}
		}
		for i := range st.added {
			if st.added[i].enc == enc {
				rowID := st.added[i].rowID
				st.added[i] = st.added[len(st.added)-1]
				st.added = st.added[:len(st.added)-1]
				return rowID, true
			}
		}
		return 0, false
	}

	var ins, del, upd int
	err := l.dest.Atomic(func() error {
		for _, rec := range recs {
			rt := byLocal[rec.Table]
			if rt == nil {
				continue // local table outside the mapping
			}
			tm, localSchema, globalSchema, destTable := rt.tm, rt.local, rt.globl, rt.dest
			st := stageOf(tm.GlobalTable)
			if rec.Kind == sqldb.RecDelete || rec.Kind == sqldb.RecUpdate {
				g, err := tm.Transform(localSchema, globalSchema, rec.Old)
				if err != nil {
					return err
				}
				rowID, found := removeTuple(tm.GlobalTable, g.String())
				if !found {
					return fmt.Errorf("cdc: %s: pre-image not in snapshot", tm.GlobalTable)
				}
				if !destTable.Delete(rowID) {
					return fmt.Errorf("cdc: %s: stale snapshot row id %d", tm.GlobalTable, rowID)
				}
				st.counts.Deleted++
				if rec.Kind == sqldb.RecDelete {
					del++
				}
			}
			if rec.Kind == sqldb.RecInsert || rec.Kind == sqldb.RecUpdate {
				g, err := tm.Transform(localSchema, globalSchema, rec.Row)
				if err != nil {
					return err
				}
				id, err := destTable.Insert(g)
				if err != nil {
					return err
				}
				enc := g.String()
				st.added = append(st.added, snapRec{fp: fingerprint.String(enc), enc: enc, row: g, rowID: id})
				st.counts.Inserted++
				if rec.Kind == sqldb.RecInsert {
					ins++
				} else {
					upd++
				}
			}
		}
		return nil
	})
	if err != nil {
		loaderRollbacks.Inc()
		return Delta{}, false
	}

	var d Delta
	d.Events = len(recs)
	for i := range l.mapping.Tables {
		tm := &l.mapping.Tables[i]
		oc := stageOf(tm.GlobalTable).counts
		startLen := len(l.snapshots[tm.GlobalTable])
		oc.Unchanged = startLen - oc.Deleted
		if oc.Unchanged < 0 {
			oc.Unchanged = 0
		}
		d.Outcomes = append(d.Outcomes, oc)
		d.Inserted += oc.Inserted
		d.Deleted += oc.Deleted
		d.Unchanged += oc.Unchanged
		if oc.Inserted+oc.Deleted > 0 {
			d.TablesLoaded++
		} else {
			d.TablesUnchanged++
		}
	}
	// Single-pass merge of survivors and sorted additions per table.
	for g, st := range stages {
		if len(st.removed) == 0 && len(st.added) == 0 {
			continue
		}
		base := l.snapshots[g]
		sortSnap(st.added)
		merged := make([]snapRec, 0, len(base)-len(st.removed)+len(st.added))
		j := 0
		for i := range base {
			if st.removed[i] {
				continue
			}
			for j < len(st.added) && lessRec(st.added[j], base[i]) {
				merged = append(merged, st.added[j])
				j++
			}
			merged = append(merged, base[i])
		}
		merged = append(merged, st.added[j:]...)
		l.snapshots[g] = merged
	}
	if len(recs) > 0 {
		l.lastSeq = recs[len(recs)-1].Seq
	}
	loaderCDCEventsIns.Add(int64(ins))
	loaderCDCEventsDel.Add(int64(del))
	loaderCDCEventsUpd.Add(int64(upd))
	return d, true
}

// lessRec orders snapshot records by (fingerprint, encoding); comparing
// the encoding on fingerprint ties keeps the diff correct across the
// ~2^-32 collision case.
func lessRec(a, b snapRec) bool {
	if a.fp != b.fp {
		return a.fp < b.fp
	}
	return a.enc < b.enc
}

func sortSnap(s []snapRec) {
	sort.Slice(s, func(i, j int) bool { return lessRec(s[i], s[j]) })
}

package sqldb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"bestpeer/internal/sqlval"
)

func walTestSchema(name string) *Schema {
	return &Schema{
		Table: name,
		Columns: []Column{
			{Name: "id", Kind: sqlval.KindInt},
			{Name: "val", Kind: sqlval.KindString},
			{Name: "amt", Kind: sqlval.KindFloat},
		},
		PrimaryKey: "id",
	}
}

func walRow(id int, val string, amt float64) sqlval.Row {
	return sqlval.Row{sqlval.Int(int64(id)), sqlval.Str(val), sqlval.Float(amt)}
}

// TestWALReplayBitIdentical drives DDL and DML through every write path
// (SQL and programmatic) and checks that replaying the flushed log
// reproduces table contents, index lookups, and Versions() exactly.
func TestWALReplayBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	db := NewDB()
	w, err := db.EnableWAL(WALConfig{Path: path, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(walTestSchema("orders")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE items (sku INT, name STRING)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX idx_val ON orders (val)`); err != nil {
		t.Fatal(err)
	}
	ot := db.Table("orders")
	for i := 0; i < 17; i++ {
		if _, err := ot.Insert(walRow(i, fmt.Sprintf("v%d", i%5), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`INSERT INTO items VALUES (1, 'widget'), (2, 'gadget')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM orders WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE orders SET amt = 99.5 WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
	if !db.DropTable("items") {
		t.Fatal("drop failed")
	}
	w.Flush()

	back, err := ReplayWALFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.StateFingerprint(), db.StateFingerprint(); got != want {
		t.Fatalf("replayed fingerprint %x != live %x", got, want)
	}
	s1, d1 := db.Versions()
	s2, d2 := back.Versions()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("versions diverged: live (%d,%d) replayed (%d,%d)", s1, d1, s2, d2)
	}
	// Index lookups answer identically.
	for _, key := range []int64{0, 7, 16} {
		a := db.Table("orders").IndexOn("id").Lookup(sqlval.Int(key))
		b := back.Table("orders").IndexOn("id").Lookup(sqlval.Int(key))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("index lookup %d: %v vs %v", key, a, b)
		}
	}
}

// TestWALCrashLosesUncommittedTail crashes with records pending: replay
// must land exactly on the last group-commit boundary.
func TestWALCrashLosesUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	db := NewDB()
	w, err := db.EnableWAL(WALConfig{Path: path, GroupSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(walTestSchema("orders")); err != nil {
		t.Fatal(err)
	}
	ref := NewDB() // shadow applying only what will commit
	if _, err := ref.CreateTable(walTestSchema("orders")); err != nil {
		t.Fatal(err)
	}
	// 7 inserts after the create_table record = seq 8: one full group.
	// 3 more stay pending and must vanish at the crash.
	for i := 0; i < 10; i++ {
		if _, err := db.Table("orders").Insert(walRow(i, "x", 1)); err != nil {
			t.Fatal(err)
		}
		if i < 7 {
			if _, err := ref.Table("orders").Insert(walRow(i, "x", 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := w.CommittedSeq(); got != 8 {
		t.Fatalf("committed seq = %d, want 8", got)
	}
	w.Crash()
	back, err := ReplayWALFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Table("orders").NumRows() != 7 {
		t.Fatalf("replayed rows = %d, want 7", back.Table("orders").NumRows())
	}
	if got, want := back.StateFingerprint(), ref.StateFingerprint(); got != want {
		t.Fatalf("replay fingerprint %x != committed-prefix fingerprint %x", got, want)
	}

	// The in-memory log loses the same tail: a CDC consumer reading
	// Since after the crash must not see the records the file never got.
	if got := w.Seq(); got != 8 {
		t.Fatalf("seq after crash = %d, want 8", got)
	}
	recs, ok := w.Since(0)
	if !ok || len(recs) != 8 {
		t.Fatalf("Since(0) after crash = %d records (ok=%v), want 8", len(recs), ok)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("Since(0)[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	committed, err := w.CommittedRecords()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := ReplayRecords(committed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mem.StateFingerprint(), ref.StateFingerprint(); got != want {
		t.Fatalf("in-memory replay fingerprint %x != committed-prefix fingerprint %x", got, want)
	}
}

// TestAtomicRollbackLeavesNoTrace aborts a batch mid-way: tables,
// indexes, versions, and the WAL must all look as if it never ran.
func TestAtomicRollbackLeavesNoTrace(t *testing.T) {
	db := NewDB()
	w, err := db.EnableWAL(WALConfig{GroupSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(walTestSchema("orders")); err != nil {
		t.Fatal(err)
	}
	ot := db.Table("orders")
	for i := 0; i < 5; i++ {
		if _, err := ot.Insert(walRow(i, "seed", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := db.StateFingerprint()
	seqBefore := w.Seq()

	err = db.Atomic(func() error {
		if _, err := ot.Insert(walRow(100, "batch", 1)); err != nil {
			return err
		}
		if !ot.Delete(2) {
			return fmt.Errorf("delete failed")
		}
		if err := ot.Update(4, walRow(4, "changed", 9)); err != nil {
			return err
		}
		// Duplicate primary key: the batch dies here.
		_, err := ot.Insert(walRow(0, "dup", 2))
		return err
	})
	if err == nil {
		t.Fatal("batch should have failed on the duplicate key")
	}
	if got := db.StateFingerprint(); got != before {
		t.Fatalf("rollback left a trace: fingerprint %x != %x", got, before)
	}
	if w.Seq() != seqBefore {
		t.Fatalf("aborted batch reached the WAL: seq %d -> %d", seqBefore, w.Seq())
	}

	// The same batch without the poison pill commits and replays.
	err = db.Atomic(func() error {
		if _, err := ot.Insert(walRow(100, "batch", 1)); err != nil {
			return err
		}
		if !ot.Delete(2) {
			return fmt.Errorf("delete failed")
		}
		return ot.Update(4, walRow(4, "changed", 9))
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := w.CommittedRecords()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReplayRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.StateFingerprint(), db.StateFingerprint(); got != want {
		t.Fatalf("replay after batch: fingerprint %x != %x", got, want)
	}
}

// TestWALFeedSinceAndTruncate exercises the CDC tail: ordered delivery,
// pre-images on deletes, and the truncation gap signalling a resync.
func TestWALFeedSinceAndTruncate(t *testing.T) {
	db := NewDB()
	w, err := db.EnableWAL(WALConfig{GroupSize: 1, Keep: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(walTestSchema("orders")); err != nil {
		t.Fatal(err)
	}
	ot := db.Table("orders")
	for i := 0; i < 3; i++ {
		if _, err := ot.Insert(walRow(i, "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	ot.Delete(1)

	recs, ok := w.Since(1) // skip the create_table record
	if !ok || len(recs) != 4 {
		t.Fatalf("since(1): ok=%v len=%d", ok, len(recs))
	}
	if recs[3].Kind != RecDelete || recs[3].Old == nil {
		t.Fatalf("delete record missing pre-image: %+v", recs[3])
	}
	if recs[0].Seq != 2 || recs[3].Seq != 5 {
		t.Fatalf("sequence numbers wrong: %d..%d", recs[0].Seq, recs[3].Seq)
	}
	for i, rec := range recs[:3] {
		if rec.TableVer != uint64(i+1) {
			t.Fatalf("record %d table version = %d, want %d", i, rec.TableVer, i+1)
		}
	}

	w.Truncate(3)
	if _, ok := w.Since(1); ok {
		t.Fatal("truncated gap not reported")
	}
	recs, ok = w.Since(3)
	if !ok || len(recs) != 2 {
		t.Fatalf("since(3) after truncate: ok=%v len=%d", ok, len(recs))
	}
}

// TestVersionVectorScopedToTables: DML moves only the mutated table's
// version; drops fold so the vector never regresses.
func TestVersionVectorScopedToTables(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(walTestSchema("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(walTestSchema("b")); err != nil {
		t.Fatal(err)
	}
	_, vec := db.VersionVector([]string{"a", "b"})
	if vec[0] != 0 || vec[1] != 0 {
		t.Fatalf("fresh vector = %v", vec)
	}
	if _, err := db.Table("a").Insert(walRow(1, "x", 1)); err != nil {
		t.Fatal(err)
	}
	_, vec = db.VersionVector([]string{"a", "b"})
	if vec[0] != 1 || vec[1] != 0 {
		t.Fatalf("after insert into a: vector = %v", vec)
	}
	aVer := vec[0]
	db.DropTable("a")
	if _, err := db.CreateTable(walTestSchema("a")); err != nil {
		t.Fatal(err)
	}
	_, vec = db.VersionVector([]string{"a", "b"})
	if vec[0] <= aVer {
		t.Fatalf("drop+recreate regressed a's version: %d -> %d", aVer, vec[0])
	}
}

// TestChaosWALCrashMidGroupCommit is the crash arm of make chaos: a
// seeded op stream (inserts, deletes, updates, atomic batches, aborted
// batches) is cut off at an arbitrary point — usually mid-group — and
// recovery must land bit-identically on the committed prefix.
func TestChaosWALCrashMidGroupCommit(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "wal.log")
			db := NewDB()
			w, err := db.EnableWAL(WALConfig{Path: path, GroupSize: 1 + rng.Intn(9), Keep: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateTable(walTestSchema("orders")); err != nil {
				t.Fatal(err)
			}
			ot := db.Table("orders")
			// committedOps replays one WAL record each: the reference
			// timeline recovery must reproduce.
			type op struct {
				kind  RecordKind
				id    int
				row   sqlval.Row
				rowID int
			}
			var oplog []op
			next := 0
			live := []int{}
			doInsert := func(tab *Table) (op, error) {
				r := walRow(next, fmt.Sprintf("s%d", rng.Intn(10)), float64(rng.Intn(100)))
				id, err := tab.Insert(r)
				if err != nil {
					return op{}, err
				}
				next++
				live = append(live, id)
				return op{kind: RecInsert, row: r, rowID: id}, nil
			}
			steps := 40 + rng.Intn(80)
			for s := 0; s < steps; s++ {
				switch k := rng.Intn(10); {
				case k < 5:
					o, err := doInsert(ot)
					if err != nil {
						t.Fatal(err)
					}
					oplog = append(oplog, o)
				case k < 7 && len(live) > 0:
					i := rng.Intn(len(live))
					id := live[i]
					if !ot.Delete(id) {
						t.Fatalf("delete of live row %d failed", id)
					}
					live = append(live[:i], live[i+1:]...)
					oplog = append(oplog, op{kind: RecDelete, rowID: id})
				case k < 8 && len(live) > 0:
					id := live[rng.Intn(len(live))]
					r := walRow(int(ot.Row(id)[0].AsInt()), "upd", float64(rng.Intn(50)))
					if err := ot.Update(id, r); err != nil {
						t.Fatal(err)
					}
					oplog = append(oplog, op{kind: RecUpdate, row: r, rowID: id})
				case k < 9:
					// Atomic batch; half of them abort and must not
					// disturb the committed timeline.
					abort := rng.Intn(2) == 0
					var staged []op
					savedNext, savedLive := next, append([]int(nil), live...)
					err := db.Atomic(func() error {
						for b := 0; b < 1+rng.Intn(4); b++ {
							o, err := doInsert(ot)
							if err != nil {
								return err
							}
							staged = append(staged, o)
						}
						if abort {
							return fmt.Errorf("injected abort")
						}
						return nil
					})
					if abort {
						if err == nil {
							t.Fatal("abort lost")
						}
						next, live = savedNext, savedLive
					} else {
						if err != nil {
							t.Fatal(err)
						}
						oplog = append(oplog, staged...)
					}
				default:
					w.Flush()
				}
			}

			w.Crash() // pending tail lost — usually mid-group

			back, err := ReplayWALFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the same committed prefix applied to a fresh DB.
			committed := int(w.CommittedSeq()) - 1 // minus the create_table record
			ref := NewDB()
			if _, err := ref.CreateTable(walTestSchema("orders")); err != nil {
				t.Fatal(err)
			}
			rt := ref.Table("orders")
			for _, o := range oplog[:committed] {
				switch o.kind {
				case RecInsert:
					if _, err := rt.Insert(o.row); err != nil {
						t.Fatal(err)
					}
				case RecDelete:
					if !rt.Delete(o.rowID) {
						t.Fatal("reference delete failed")
					}
				case RecUpdate:
					if err := rt.Update(o.rowID, o.row); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := back.StateFingerprint(), ref.StateFingerprint(); got != want {
				t.Fatalf("seed %d: recovered fingerprint %x != committed-prefix %x", seed, got, want)
			}
		})
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/tpch"
)

// oracle is one sqldb.DB holding the union of every peer's partition:
// the single-node answer every distributed result must equal. Answers
// are memoised by statement text (workloads repeat statements), and
// stay available after release drops the data.
type oracle struct {
	db   *sqldb.DB
	memo map[string][]sqlval.Row
}

func newOracle(peers int, sf float64) (*oracle, error) {
	db := sqldb.NewDB()
	for i := 0; i < peers; i++ {
		sc := tpch.Scale{ScaleFactor: sf, Peer: i, NumPeers: peers, NationKey: -1}
		if err := tpch.Generate(db, sc); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return &oracle{db: db, memo: make(map[string][]sqlval.Row)}, nil
}

// answer returns the oracle's sorted rows for sql.
func (o *oracle) answer(sql string) ([]sqlval.Row, error) {
	if want, ok := o.memo[sql]; ok {
		return want, nil
	}
	if o.db == nil {
		return nil, fmt.Errorf("oracle %q: not answered before the data was released", sql)
	}
	res, err := o.db.Query(sql)
	if err != nil {
		return nil, fmt.Errorf("oracle %q: %w", sql, err)
	}
	o.memo[sql] = sortedRows(res.Rows)
	return o.memo[sql], nil
}

// release drops the data and keeps the answers given so far, so the
// oracle's 0.5 GB is gone before the heap is read.
func (o *oracle) release() { o.db = nil }

// matches reports whether got is the oracle's answer to sql.
func (o *oracle) matches(sql string, got *sqldb.Result) (bool, error) {
	want, err := o.answer(sql)
	if err != nil || got == nil {
		return false, err
	}
	return sameRows(sortedRows(got.Rows), want), nil
}

// sortedRows returns rows ordered by a rendering that rounds floats, so
// two answers that differ only in floating-point summation order sort
// the same way.
func sortedRows(rows []sqlval.Row) []sqlval.Row {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			if v.Kind() == sqlval.KindFloat {
				sb.WriteString(strconv.FormatFloat(v.AsFloat(), 'g', 6, 64))
			} else {
				sb.WriteString(v.String())
			}
			sb.WriteByte('|')
		}
		keys[i] = sb.String()
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]sqlval.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// sameRows compares two sorted row sets cell by cell. Numbers may differ
// by a relative 1e-9: partial sums merged across peers add in another
// order than one scan does.
func sameRows(a, b []sqlval.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Numeric() && y.Numeric() {
				fx, fy := x.AsFloat(), y.AsFloat()
				if math.Abs(fx-fy) > 1e-9*math.Max(math.Abs(fx), math.Abs(fy)) {
					return false
				}
				continue
			}
			if x.Kind() != y.Kind() || x.String() != y.String() {
				return false
			}
		}
	}
	return true
}

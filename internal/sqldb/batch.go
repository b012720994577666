package sqldb

import (
	"sync"

	"bestpeer/internal/sqlval"
)

// This file is the executor runtime: it drives a selectPlan's scans,
// joins, and projection batch-at-a-time. Per-run scratch (bctx) comes
// from per-plan pools so concurrent readers under db.mu.RLock never
// share vectors and steady-state execution allocates nothing per batch.

// bctxPool hands out batch contexts for one row layout.
type bctxPool struct {
	f     *frame
	kinds []sqlval.Kind
	pool  sync.Pool
}

func (p *bctxPool) get() *bctx {
	if c, ok := p.pool.Get().(*bctx); ok && c != nil {
		c.own = c.own[:0]
		return c
	}
	return newBctx(p.f, p.kinds)
}

func (p *bctxPool) put(c *bctx) { p.pool.Put(c) }

// applyFilter runs the scan filter over the staged batch and shrinks the
// selection vector to the surviving rows (NULL collapses to false at
// this boundary).
func (sp *scanPlan) applyFilter(ctx *bctx) error {
	if sp.filter == nil {
		return nil
	}
	if err := ctx.loadCols(sp.filterOffs); err != nil {
		return err
	}
	pv := sp.filter(ctx)
	out := ctx.selBuf[:0]
	for i := 0; i < ctx.n; i++ {
		if pv.val[i] && !pv.null[i] {
			out = append(out, int32(i))
		}
	}
	ctx.selBuf = out
	ctx.sel = out
	batchSelDensity.Observe(float64(len(out)) / float64(ctx.n))
	return nil
}

// scanBatches drives one table scan through the chosen access path,
// staging rows into ctx and handing flush every full batch (filtered)
// and the final partial one. Statistics are charged for every scanned
// row, before the filter.
func (sp *scanPlan) scanBatches(stats *Stats, ctx *bctx, flush func() error) error {
	t := sp.table
	var ferr error
	emit := func(id int, row sqlval.Row) bool {
		stats.RowsScanned++
		stats.BytesScanned += int64(t.RowSize(id))
		ctx.own = append(ctx.own, row)
		if len(ctx.own) == batchSize {
			ferr = sp.flushBatch(ctx, flush)
		}
		return ferr == nil
	}
	if sp.choice.path.index != nil {
		stats.IndexUsed = true
		for _, id := range sp.ids() {
			if row := t.Row(id); row != nil && !emit(id, row) {
				break
			}
		}
	} else {
		t.Scan(emit)
	}
	if ferr != nil || len(ctx.own) == 0 {
		return ferr
	}
	return sp.flushBatch(ctx, flush)
}

// flushBatch filters the staged rows, hands the batch to flush, and
// empties the staging buffer.
func (sp *scanPlan) flushBatch(ctx *bctx, flush func() error) error {
	ctx.begin(ctx.own)
	if err := sp.applyFilter(ctx); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	ctx.own = ctx.own[:0]
	return nil
}

// runSingle streams the one scan's batches straight into the projection
// sink: the fused scan→filter→project pipeline.
func (p *selectPlan) runSingle(sink *projSink, stats *Stats) error {
	sp := p.scans[0]
	ctx := sp.ctxs.get()
	defer sp.ctxs.put(ctx)
	var actual int64
	err := sp.scanBatches(stats, ctx, func() error {
		actual += int64(len(ctx.sel))
		if len(ctx.sel) == 0 {
			return nil
		}
		return sink.addBatch(ctx)
	})
	if err != nil {
		return err
	}
	sp.choice.observeEstimate(actual)
	return nil
}

// scanFiltered materializes one scan's filtered rows in scan order,
// preallocating from the costed cardinality estimate.
func (sp *scanPlan) scanFiltered(stats *Stats) ([]sqlval.Row, error) {
	ctx := sp.ctxs.get()
	defer sp.ctxs.put(ctx)
	out := make([]sqlval.Row, 0, int(sp.choice.estRows)+8)
	err := sp.scanBatches(stats, ctx, func() error {
		for _, i := range ctx.sel {
			out = append(out, ctx.rows[i])
		}
		return nil
	})
	return out, err
}

// runMulti materializes each scan's filtered rows, joins level by level,
// and projects the joined rows in windows. Row order: left rows in
// order, and within one left row its matches in right scan order.
func (p *selectPlan) runMulti(sink *projSink, stats *Stats) error {
	var rows []sqlval.Row
	for k, sp := range p.scans {
		scanned, err := sp.scanFiltered(stats)
		if err != nil {
			return err
		}
		sp.choice.observeEstimate(int64(len(scanned)))
		if k == 0 {
			rows = scanned
		} else if rows, err = p.joins[k-1].join(rows, scanned, sp); err != nil {
			return err
		}
	}
	return p.proj.addRows(sink, rows)
}

// join combines the accumulated left rows with one scan's rows. With
// equi-keys, key columns are loaded and evaluated a batch at a time on
// both sides, then rows hash and probe through per-hash chains (NULL
// keys never match); without, every pair joins. The residual predicate
// then filters the joined rows in place. rs is the right rows' scan,
// whose batch contexts evaluate the right-side keys.
func (jp *joinPlan) join(lrows, rrows []sqlval.Row, rs *scanPlan) ([]sqlval.Row, error) {
	concat := func(l, r sqlval.Row) sqlval.Row {
		nr := make(sqlval.Row, 0, jp.width)
		nr = append(nr, l...)
		return append(nr, r...)
	}
	var joined []sqlval.Row
	if nk := len(jp.lkeys); nk == 0 {
		joined = make([]sqlval.Row, 0, len(lrows)*len(rrows))
		for _, lr := range lrows {
			for _, rr := range rrows {
				joined = append(joined, concat(lr, rr))
			}
		}
	} else {
		type bentry struct {
			row  sqlval.Row
			keys sqlval.Row
		}
		build := make(map[uint64][]bentry, len(rrows))
		rctx := rs.ctxs.get()
		defer rs.ctxs.put(rctx)
		kvecs := make([]*vec, nk)
		for start := 0; start < len(rrows); start += batchSize {
			rctx.begin(rrows[start:min(start+batchSize, len(rrows))])
			if err := rctx.loadCols(jp.roffs); err != nil {
				return nil, err
			}
			for i := range jp.rkeys {
				kvecs[i] = jp.rkeys[i].eval(rctx)
			}
			for _, i := range rctx.sel {
				keys := make(sqlval.Row, nk)
				var h uint64 = 1469598103934665603
				for kk, kv := range kvecs {
					val := kv.value(i)
					keys[kk] = val
					h = h*1099511628211 ^ val.Hash()
				}
				build[h] = append(build[h], bentry{row: rctx.rows[i], keys: keys})
			}
		}

		lctx := jp.lctxs.get()
		defer jp.lctxs.put(lctx)
		joined = make([]sqlval.Row, 0, len(lrows))
		for start := 0; start < len(lrows); start += batchSize {
			lctx.begin(lrows[start:min(start+batchSize, len(lrows))])
			if err := lctx.loadCols(jp.loffs); err != nil {
				return nil, err
			}
			for i := range jp.lkeys {
				kvecs[i] = jp.lkeys[i].eval(lctx)
			}
			for _, i := range lctx.sel {
				var h uint64 = 1469598103934665603
				for _, kv := range kvecs {
					h = h*1099511628211 ^ kv.value(i).Hash()
				}
				for _, cand := range build[h] {
					eq := true
					for kk, kv := range kvecs {
						lv := kv.value(i)
						if lv.IsNull() || cand.keys[kk].IsNull() || !sqlval.Equal(lv, cand.keys[kk]) {
							eq = false
							break
						}
					}
					if eq {
						joined = append(joined, concat(lctx.rows[i], cand.row))
					}
				}
			}
		}
	}

	if jp.residual != nil {
		filtered := joined[:0]
		for _, row := range joined {
			ok, err := jp.residual(row)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, row)
			}
		}
		joined = filtered
	}
	return joined, nil
}

// addBatch consumes one filtered batch of input rows.
func (s *projSink) addBatch(ctx *bctx) error {
	pp := s.pp
	if err := ctx.loadCols(pp.offs); err != nil {
		return err
	}
	sel := ctx.sel

	if pp.grouped {
		if s.kvecs == nil {
			s.kvecs = make([]*vec, len(pp.keys))
			s.gbuf = make([]*group, 0, batchSize)
		}
		for k := range pp.keys {
			if pp.keys[k].ev != nil {
				s.kvecs[k] = pp.keys[k].ev.eval(ctx)
			}
		}
		kval := func(k int, i int32) sqlval.Value {
			if off := pp.keys[k].col; off >= 0 {
				return ctx.rows[i][off]
			}
			return s.kvecs[k].value(i)
		}
		// Assign every selected row to its group (FNV fold over the key
		// values, then a candidate-chain probe), then accumulate each
		// aggregate over the whole batch with the lane switch hoisted out
		// of the row loop.
		s.gbuf = s.gbuf[:0]
		for _, i := range sel {
			var h uint64 = 14695981039346656037
			for k := range pp.keys {
				h = h*1099511628211 ^ kval(k, i).Hash()
			}
			var g *group
			for _, cand := range s.groups[h] {
				same := true
				for k := range pp.keys {
					if !sqlval.Equal(cand.key[k], kval(k, i)) {
						same = false
						break
					}
				}
				if same {
					g = cand
					break
				}
			}
			if g == nil {
				key := make(sqlval.Row, len(pp.keys))
				for k := range pp.keys {
					key[k] = kval(k, i)
				}
				g = pp.newGroup(key, ctx.rows[i])
				s.groups[h] = append(s.groups[h], g)
				s.ordered = append(s.ordered, g)
			}
			s.gbuf = append(s.gbuf, g)
		}
		for k, arg := range pp.args {
			s.accumVec(k, arg, ctx)
		}
		return nil
	}

	if s.ovecs == nil {
		s.ovecs = make([]*vec, len(pp.outs))
		s.okeys = make([]*vec, len(pp.order))
	}
	for e := range pp.outs {
		if pp.outs[e].ev != nil {
			s.ovecs[e] = pp.outs[e].ev.eval(ctx)
		}
	}
	for o := range pp.order {
		if pp.order[o].ev != nil {
			s.okeys[o] = pp.order[o].ev.eval(ctx)
		}
	}
	// One slab per batch backs every output row (and one the order
	// keys): n small per-row allocations collapse into one or two.
	width := len(pp.outs)
	flat := make(sqlval.Row, len(sel)*width)
	var kflat sqlval.Row
	if len(pp.order) > 0 {
		kflat = make(sqlval.Row, len(sel)*len(pp.order))
	}
	for j, i := range sel {
		out := flat[j*width : (j+1)*width : (j+1)*width]
		for e := range pp.outs {
			if off := pp.outs[e].col; off >= 0 {
				out[e] = ctx.rows[i][off]
			} else {
				out[e] = s.ovecs[e].value(i)
			}
		}
		var keys sqlval.Row
		if len(pp.order) > 0 {
			w := len(pp.order)
			keys = kflat[j*w : (j+1)*w : (j+1)*w]
			for o := range pp.order {
				switch {
				case pp.order[o].ev != nil:
					keys[o] = s.okeys[o].value(i)
				case pp.order[o].col >= 0:
					keys[o] = ctx.rows[i][pp.order[o].col]
				default:
					keys[o] = out[pp.order[o].alias]
				}
			}
		}
		s.outs = append(s.outs, sortRow{out: out, keys: keys})
	}
	return nil
}

// accumVec folds one aggregate's argument vector into the batch's group
// states. Accumulation order is ascending row order, so float sums are
// deterministic; the per-lane update bodies mirror aggState.add case by
// case (including sum += AsFloat on every non-NULL input, and isInt
// clearing for non-INT inputs).
func (s *projSink) accumVec(k int, arg *bval, ctx *bctx) {
	sel := ctx.sel
	if arg == nil { // COUNT(*): every row counts
		for _, g := range s.gbuf {
			g.aggs[k].count++
		}
		return
	}
	v := arg.eval(ctx)
	if v.kind == sqlval.KindNull {
		return // add(NULL) is a no-op for every aggregate
	}
	fn := s.gbuf[0].aggs[k].fn
	switch fn {
	case "COUNT":
		for j, i := range sel {
			if !v.null[i] {
				s.gbuf[j].aggs[k].count++
			}
		}
	case "SUM", "AVG":
		switch v.kind {
		case sqlval.KindInt:
			for j, i := range sel {
				if v.null[i] {
					continue
				}
				st := s.gbuf[j].aggs[k]
				st.seen = true
				st.count++
				st.sumI += v.i[i]
				st.sum += float64(v.i[i])
			}
		case sqlval.KindDate:
			for j, i := range sel {
				if v.null[i] {
					continue
				}
				st := s.gbuf[j].aggs[k]
				st.seen = true
				st.count++
				st.isInt = false
				st.sum += float64(v.i[i])
			}
		case sqlval.KindFloat:
			for j, i := range sel {
				if v.null[i] {
					continue
				}
				st := s.gbuf[j].aggs[k]
				st.seen = true
				st.count++
				st.isInt = false
				st.sum += v.f[i]
			}
		default: // strings: AsFloat is 0, so only the flags advance
			for j, i := range sel {
				if v.null[i] {
					continue
				}
				st := s.gbuf[j].aggs[k]
				st.seen = true
				st.count++
				st.isInt = false
			}
		}
	default: // MIN/MAX keep value-typed comparisons
		for j, i := range sel {
			s.gbuf[j].aggs[k].add(v.value(i))
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"bestpeer"
	"bestpeer/internal/erp"
	"bestpeer/internal/loader"
	"bestpeer/internal/peer"
	"bestpeer/internal/pnet"
	"bestpeer/internal/schemamap"
	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/tpch"
)

// cluster is one freshly built system under test plus the client side
// that drives it: a loaded network serving on loopback TCP, and a
// second pnet.Network that knows the serving peers only as remote
// addresses, so every client call crosses the real transport.
type cluster struct {
	net      *bestpeer.Network
	lis      *pnet.Listener
	cnet     *pnet.Network
	sessions []*serving.Client
	fronts   []*peer.Peer // fronts[i] serves sessions[i]
	ingest   *ingester
}

// setupCluster builds what setup_s times: network, TPC-H load (generate,
// index, publish to BATON, backup), the production feed at peer 0 with
// its initial sync, the serving tier, the listener and the sessions.
func setupCluster(cfg config) (*cluster, error) {
	n, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          cfg.peers,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		return nil, fmt.Errorf("new network: %w", err)
	}
	if err := n.LoadTPCH(cfg.sf); err != nil {
		return nil, fmt.Errorf("load tpch: %w", err)
	}
	c := &cluster{net: n}
	if c.ingest, err = newIngester(n.Peer(0), cfg.seed); err != nil {
		return nil, err
	}
	n.EnableServing(serving.Config{})
	if c.lis, err = n.Net.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	c.cnet = pnet.NewNetwork()
	for i := 0; i < cfg.clients; i++ {
		front := n.Peer((i + 1) % cfg.peers)
		c.cnet.AddRemotePeer(front.ID(), c.lis.Addr())
		cl := serving.NewClient(c.cnet.Join(fmt.Sprintf("bench-client-%d", i)), front.ID())
		if err := cl.Open("", serving.ClassInteractive, ""); err != nil {
			c.close()
			return nil, fmt.Errorf("open session %d: %w", i, err)
		}
		c.sessions = append(c.sessions, cl)
		c.fronts = append(c.fronts, front)
	}
	return c, nil
}

// close ends the sessions and the listener and drops the client side's
// pooled connections. Close waits for the serve goroutines to exit.
func (c *cluster) close() {
	for _, s := range c.sessions {
		_, _ = s.Close() // the listener is going away regardless
	}
	for _, f := range c.fronts {
		c.cnet.RemoveRemotePeer(f.ID())
	}
	if c.lis != nil {
		_ = c.lis.Close() // nothing to do about a failed close of a loopback listener
	}
}

// orderKeys reads every peer's o_orderkey range from its own partition,
// so lookups draw from the real key domain whatever the generator does.
func (c *cluster) orderKeys() ([]keyRange, error) {
	var out []keyRange
	for _, p := range c.net.Peers() {
		res, err := p.DB().Query("SELECT MIN(o_orderkey), MAX(o_orderkey), COUNT(*) FROM orders WHERE o_orderkey < " + fmt.Sprint(ingestKeyBase))
		if err != nil {
			return nil, fmt.Errorf("key range at %s: %w", p.ID(), err)
		}
		lo, hi, n := res.Rows[0][0].AsInt(), res.Rows[0][1].AsInt(), res.Rows[0][2].AsInt()
		if n == 0 || hi-lo+1 != n {
			return nil, fmt.Errorf("key range at %s is not dense: [%d,%d] holds %d keys", p.ID(), lo, hi, n)
		}
		out = append(out, keyRange{lo: lo, n: n})
	}
	return out, nil
}

// ingestKeyBase is the first order key the production feed uses; TPC-H
// keys stay far below it.
const ingestKeyBase = 1 << 30

// ingestSeedRows is the production table's size before the first round.
const ingestSeedRows = 1000

// ingester owns a production system attached to one peer and applies
// churn rounds to it: mutate the ERP, then Peer.SyncData.
type ingester struct {
	sys  *erp.System
	peer *peer.Peer
	rng  *rand.Rand
	live []int64
	next int64
}

// roundTiming is one churn round as the harness saw it.
type roundTiming struct {
	late  time.Duration // start after the due time (open loop only)
	exec  time.Duration // the harness's own ERP mutations
	sync  time.Duration // Peer.SyncData alone
	apply time.Duration // due time to SyncData returning
	delta loader.Delta
}

// newIngester attaches a vbak_orders -> orders feed to p, seeds it, and
// runs the initial (snapshot) sync so later rounds take the CDC path.
func newIngester(p *peer.Peer, seed int64) (*ingester, error) {
	local := &sqldb.Schema{
		Table:      "vbak_orders",
		PrimaryKey: "order_id",
		Columns: []sqldb.Column{
			{Name: "net_value", Kind: sqlval.KindFloat},
			{Name: "order_id", Kind: sqlval.KindInt},
		},
	}
	mapping := &schemamap.Mapping{System: "SAP", Tables: []schemamap.TableMapping{{
		LocalTable: "vbak_orders", GlobalTable: tpch.Orders,
		Columns: []schemamap.ColumnMapping{
			{Local: "order_id", Global: "o_orderkey"},
			{Local: "net_value", Global: "o_totalprice"},
		},
	}}}
	g := &ingester{sys: erp.NewSystem("SAP"), peer: p, rng: rand.New(rand.NewSource(seed ^ 0x1e57)), next: ingestKeyBase}
	if err := g.sys.CreateTable(local); err != nil {
		return nil, fmt.Errorf("erp table: %w", err)
	}
	if err := p.AttachProduction(g.sys, mapping); err != nil {
		return nil, fmt.Errorf("attach production: %w", err)
	}
	for i := 0; i < ingestSeedRows; i++ {
		if err := g.insert(); err != nil {
			return nil, err
		}
	}
	if _, err := p.SyncData(); err != nil {
		return nil, fmt.Errorf("initial sync: %w", err)
	}
	return g, nil
}

func (g *ingester) insert() error {
	if err := g.sys.Insert("vbak_orders", sqlval.Row{sqlval.Float(float64(g.next%9973) / 3), sqlval.Int(g.next)}); err != nil {
		return fmt.Errorf("erp insert: %w", err)
	}
	g.live = append(g.live, g.next)
	g.next++
	return nil
}

// round applies n mutations (50% insert, 25% delete, 25% update) and
// syncs them into the peer. due is when the round should have started.
func (g *ingester) round(n int, due time.Time) (roundTiming, error) {
	started := time.Now()
	rt := roundTiming{late: lateness(due, started)}
	for m := 0; m < n; m++ {
		switch k := g.rng.Intn(4); {
		case k < 2 || len(g.live) == 0:
			if err := g.insert(); err != nil {
				return rt, err
			}
		case k == 2:
			i := g.rng.Intn(len(g.live))
			if _, err := g.sys.Exec(fmt.Sprintf("DELETE FROM vbak_orders WHERE order_id = %d", g.live[i])); err != nil {
				return rt, fmt.Errorf("erp delete: %w", err)
			}
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		default:
			id := g.live[g.rng.Intn(len(g.live))]
			if _, err := g.sys.Exec(fmt.Sprintf("UPDATE vbak_orders SET net_value = %d.5 WHERE order_id = %d", g.rng.Intn(100000), id)); err != nil {
				return rt, fmt.Errorf("erp update: %w", err)
			}
		}
	}
	rt.exec = time.Since(started)
	t0 := time.Now()
	d, err := g.peer.SyncData()
	if err != nil {
		return rt, fmt.Errorf("sync: %w", err)
	}
	rt.sync = time.Since(t0)
	rt.apply = time.Since(due)
	rt.delta = d
	return rt, nil
}

// schedule runs rounds open-loop, one every interval from start until
// the next would be due at or after end, and returns their timings.
func (g *ingester) schedule(start, end time.Time, every time.Duration, mutations int) ([]roundTiming, error) {
	var out []roundTiming
	for due := start; due.Before(end); due = due.Add(every) {
		time.Sleep(time.Until(due))
		rt, err := g.round(mutations, due)
		if err != nil {
			return out, err
		}
		out = append(out, rt)
	}
	return out, nil
}

// Package peer implements the BestPeer++ normal peer (paper §4): the
// instance a participating business runs. It assembles the five
// components of Fig. 2 — schema mapping, data loader, data indexer,
// access control, and the query executor — over the shared substrates:
// the local database (internal/sqldb, standing in for MySQL), the BATON
// overlay node, the pnet messaging endpoint, and the bootstrap peer's
// metadata services.
package peer

import (
	"crypto/ed25519"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bestpeer/internal/accesscontrol"
	"bestpeer/internal/baton"
	"bestpeer/internal/bootstrap"
	"bestpeer/internal/cloud"
	"bestpeer/internal/erp"
	"bestpeer/internal/indexer"
	"bestpeer/internal/loader"
	"bestpeer/internal/mapreduce"
	"bestpeer/internal/pnet"
	"bestpeer/internal/schemamap"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/sqlval"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/vtime"
)

// Message types served by a normal peer.
const (
	MsgSubQuery   = "peer.subquery"
	MsgJoinTask   = "peer.jointask"
	MsgMembership = "peer.membership.changed"
	MsgUserNew    = "peer.user.created"
	MsgHasTable   = "peer.hastable"
	MsgTelemetry  = "peer.telemetry"
	// MsgTelemetrySnapshot returns the peer's private registry as a
	// serialized telemetry.Report (full snapshot, not a delta).
	MsgTelemetrySnapshot = "peer.telemetry.snapshot"
)

// Env is the shared environment a peer joins: the message network, the
// bootstrap peer, the overlay coordinator, the cloud provider, and the
// optionally mounted MapReduce cluster.
type Env struct {
	Net       *pnet.Network
	Bootstrap *bootstrap.Peer
	Overlay   *baton.Overlay
	Provider  *cloud.SimProvider
	MR        *mapreduce.Cluster
	Rates     vtime.Rates
	// Clock is the network's logical timestamp source for Definition 2
	// query semantics; nil disables snapshot checking.
	Clock *pnet.LogicalClock
}

// Peer is one normal peer.
type Peer struct {
	id  string
	env Env

	ep   *pnet.Endpoint
	node *baton.Node
	db   *sqldb.DB
	ix   *indexer.Indexer
	lc   *indexer.Locator

	priv ed25519.PrivateKey
	info bootstrap.NetworkInfo

	// snapshotTS is the logical time of the database's current snapshot
	// (Definition 2); loader refreshes advance it.
	snapshotTS atomic.Uint64

	mu      sync.RWMutex
	schemas map[string]*sqldb.Schema
	acl     *accesscontrol.Registry
	load    *loader.Loader

	// Monitoring plane: the peer's private metrics registry, the
	// slow-query ring, and the reporter's delta baseline.
	pm   *peerMetrics
	slow *slowLog
	rep  reporterState
}

// Join launches a cloud instance for the peer, admits it to the
// corporate network through the bootstrap peer, and attaches it to the
// overlay (paper §3.1). The returned peer is ready to load and share
// data.
func Join(id string, env Env) (*Peer, error) {
	if _, err := env.Provider.Launch(id, cloud.M1Small); err != nil {
		return nil, fmt.Errorf("peer: launching instance: %w", err)
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	p := &Peer{
		id:      id,
		env:     env,
		priv:    priv,
		db:      sqldb.NewDB(),
		schemas: make(map[string]*sqldb.Schema),
		acl:     accesscontrol.NewRegistry(),
	}
	p.ep = env.Net.Join(id)
	p.node = baton.NewNode(p.ep)
	p.ix = indexer.New(p.node, id)
	p.lc = indexer.NewLocator(p.node)
	p.registerHandlers()
	p.initTelemetry()

	info, err := env.Bootstrap.Join(id, id, pub)
	if err != nil {
		return nil, err
	}
	p.applyNetworkInfo(info)
	if err := env.Overlay.AddNode(p.node); err != nil {
		return nil, err
	}
	return p, nil
}

// applyNetworkInfo installs the metadata the bootstrap handed over:
// global schema, role definitions, and the user directory.
func (p *Peer) applyNetworkInfo(info bootstrap.NetworkInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.info = info
	for _, s := range info.GlobalSchema {
		p.schemas[s.Table] = s
	}
	for _, name := range info.Roles {
		if r := p.env.Bootstrap.Roles().Role(name); r != nil {
			p.acl.DefineRole(r)
		}
	}
	for user, role := range p.env.Bootstrap.Users() {
		_ = p.acl.AssignUser(user, role)
	}
}

// registerHandlers wires the peer's message handlers. Pure reads and
// pure compute (subquery fetch, join tasks, probes, telemetry pulls,
// cache invalidation) register idempotent so the hardened transport
// may re-send them after transport failures; directory mutations
// (user creation) stay at-most-once.
func (p *Peer) registerHandlers() {
	p.ep.HandleIdempotent(MsgSubQuery, p.handleSubQuery)
	p.ep.HandleIdempotent(MsgJoinTask, p.handleJoinTask)
	p.ep.HandleIdempotent(MsgMembership, func(pnet.Message) (pnet.Message, error) {
		p.lc.Invalidate()
		return pnet.Message{}, nil
	})
	p.ep.HandleIdempotent(MsgHasTable, func(msg pnet.Message) (pnet.Message, error) {
		table := msg.Payload.(string)
		t := p.db.Table(table)
		entry := indexer.TableEntry{Table: table, Peer: p.id}
		if t != nil {
			entry.Rows = int64(t.NumRows())
			entry.Bytes = t.DataBytes()
		}
		return pnet.Message{Payload: entry, Size: 32}, nil
	})
	p.ep.Handle(MsgUserNew, func(msg pnet.Message) (pnet.Message, error) {
		pair := msg.Payload.([2]string)
		p.mu.Lock()
		defer p.mu.Unlock()
		_ = p.acl.AssignUser(pair[0], pair[1])
		return pnet.Message{}, nil
	})
	p.ep.HandleIdempotent(MsgTelemetry, func(pnet.Message) (pnet.Message, error) {
		// The exposition text of the process-wide registry, served over
		// the same substrate every other verb uses (and relayed to other
		// processes by the bpremote TCP surface).
		text := telemetry.Default.Text()
		return pnet.Message{Payload: text, Size: int64(len(text))}, nil
	})
	p.ep.HandleIdempotent(MsgTelemetrySnapshot, func(pnet.Message) (pnet.Message, error) {
		// The peer's private registry as a full (non-delta) serialized
		// snapshot — the bpremote -all merge surface.
		rep := telemetry.Report{Peer: p.id}
		if p.pm != nil {
			rep.Delta = p.pm.reg.Export()
		}
		return pnet.Message{Payload: rep, Size: int64(64 + 48*len(rep.Delta.Points))}, nil
	})
	p.ep.HandleIdempotent(MsgSlowLog, p.handleSlowLog)
	p.ep.HandleIdempotent(MsgExplain, p.handleExplain)
	// The query-serving verbs are pure compute over the in-memory
	// database and the membership/probe verbs are pure reads: none of
	// them can wait on anything outside this transport, so in-process
	// delivery runs them on the caller's goroutine instead of paying a
	// guard goroutine + timer per call (the deadline exists to unwedge
	// callers from handlers that block; abandoning compute would not
	// stop it anyway). Over TCP the connection deadline still applies.
	p.ep.Network().MarkInline(MsgSubQuery, MsgJoinTask, MsgMembership, MsgHasTable)
}

// ID returns the peer's network identity.
func (p *Peer) ID() string { return p.id }

// DB exposes the peer's local database (data loading, tests, tools).
func (p *Peer) DB() *sqldb.DB { return p.db }

// Node returns the peer's overlay node.
func (p *Peer) Node() *baton.Node { return p.node }

// Locator returns the peer's index locator.
func (p *Peer) Locator() *indexer.Locator { return p.lc }

// ACL returns the peer's local access-control registry. The local
// administrator defines derived roles and assigns users here.
func (p *Peer) ACL() *accesscontrol.Registry { return p.acl }

// Certificate returns the peer's bootstrap-issued certificate.
func (p *Peer) Certificate() bootstrap.Certificate { return p.info.Certificate }

// AttachProduction connects a production system through a schema
// mapping (§4.1, §4.2). Subsequent SyncData calls extract snapshots and
// apply deltas.
func (p *Peer) AttachProduction(sys *erp.System, mapping *schemamap.Mapping) error {
	l, err := loader.New(sys, mapping, p.db, p.GlobalSchema)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.load = l
	p.mu.Unlock()
	return nil
}

// SyncData runs one loader pass (initial load or refresh) and advances
// the database snapshot's timestamp (Definition 2).
func (p *Peer) SyncData() (loader.Delta, error) {
	p.mu.RLock()
	l := p.load
	p.mu.RUnlock()
	if l == nil {
		return loader.Delta{}, fmt.Errorf("peer %s: no production system attached", p.id)
	}
	d, err := l.Run()
	if err != nil {
		return d, err
	}
	p.MarkRefreshed()
	return d, nil
}

// MarkRefreshed stamps the database with a fresh snapshot timestamp.
// The loader calls it after every pass; tools loading data directly
// (generators, restores) call it explicitly.
func (p *Peer) MarkRefreshed() {
	if p.env.Clock != nil {
		p.snapshotTS.Store(p.env.Clock.Tick())
	}
}

// SnapshotTS returns the database snapshot's logical timestamp.
func (p *Peer) SnapshotTS() uint64 { return p.snapshotTS.Load() }

// GlobalSchema resolves a global table's schema.
func (p *Peer) GlobalSchema(table string) *sqldb.Schema {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for name, s := range p.schemas {
		if name == table {
			return s
		}
	}
	// Case-insensitive fallback.
	for _, s := range p.schemas {
		if equalFold(s.Table, table) {
			return s
		}
	}
	return nil
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// PublishIndexes publishes the peer's index entries for every local
// table: I_T and I_C always, and I_D for the listed range columns
// (§4.3).
func (p *Peer) PublishIndexes(rangeColumns map[string][]string) error {
	return p.ix.PublishDB(p.db, rangeColumns)
}

// Backup snapshots the peer's database to the cloud provider's backup
// store (the paper's asynchronous EBS backup, §2.1).
func (p *Peer) Backup() error {
	return p.env.Provider.Backup(p.id, cloud.Snapshot{Data: DumpDB(p.db)})
}

// ReportHealth publishes a CloudWatch-style health sample for the
// bootstrap's monitoring daemon.
func (p *Peer) ReportHealth(cpu float64, storageGB float64) {
	p.env.Provider.ReportMetrics(p.id, cloud.Metrics{
		CPUUtilization: cpu, StorageUsedGB: storageGB, Healthy: true,
	})
}

// Leave departs gracefully: indexes are withdrawn, the overlay slot is
// handed over, and the bootstrap blacklists the peer (§3.1).
func (p *Peer) Leave() error {
	tables := p.db.TableNames()
	colSet := map[string]bool{}
	for _, t := range tables {
		for _, c := range p.db.Table(t).Schema().Columns {
			colSet[c.Name] = true
		}
	}
	var cols []string
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	if err := p.ix.UnpublishAll(tables, cols); err != nil {
		return err
	}
	if err := p.env.Overlay.RemoveNode(p.id); err != nil {
		return err
	}
	if err := p.env.Bootstrap.Leave(p.id); err != nil {
		return err
	}
	p.env.Net.Leave(p.id)
	return nil
}

// DBDump is a serializable snapshot of a database: schemas plus rows,
// the payload of cloud backups.
type DBDump struct {
	Schemas []*sqldb.Schema
	Rows    map[string][]sqlval.Row
	Indexes map[string][]string // secondary indexes per table
}

// DumpDB snapshots a database.
func DumpDB(db *sqldb.DB) *DBDump {
	d := &DBDump{Rows: make(map[string][]sqlval.Row), Indexes: make(map[string][]string)}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		d.Schemas = append(d.Schemas, t.Schema())
		var rows []sqlval.Row
		t.Scan(func(_ int, row sqlval.Row) bool {
			rows = append(rows, row.Clone())
			return true
		})
		d.Rows[name] = rows
		for _, idx := range t.Indexes() {
			if idx.Name == "primary" {
				continue
			}
			d.Indexes[name] = append(d.Indexes[name], idx.Column)
		}
	}
	return d
}

// RestoreDB rebuilds a database from a dump.
func RestoreDB(d *DBDump) (*sqldb.DB, error) {
	db := sqldb.NewDB()
	for _, s := range d.Schemas {
		t, err := db.CreateTable(s)
		if err != nil {
			return nil, err
		}
		for _, row := range d.Rows[s.Table] {
			if _, err := t.Insert(row); err != nil {
				return nil, err
			}
		}
		for i, col := range d.Indexes[s.Table] {
			if err := t.CreateIndex(fmt.Sprintf("idx_restored_%d", i), col, false); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// Recover builds a replacement peer for a crashed one: a fresh instance
// is launched, the database restored from the latest cloud backup, the
// overlay position taken over (restoring overlay items from the
// adjacent replica), and indexes republished under the new identity.
func Recover(failedID, newID string, env Env, rangeColumns map[string][]string) (*Peer, ed25519.PublicKey, error) {
	snap, ok := env.Provider.Restore(failedID)
	if !ok {
		return nil, nil, fmt.Errorf("peer: no backup for %s", failedID)
	}
	dump, ok := snap.Data.(*DBDump)
	if !ok {
		return nil, nil, fmt.Errorf("peer: backup of %s has unexpected payload %T", failedID, snap.Data)
	}
	db, err := RestoreDB(dump)
	if err != nil {
		return nil, nil, err
	}
	if _, err := env.Provider.Launch(newID, cloud.M1Small); err != nil {
		return nil, nil, err
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, nil, err
	}
	p := &Peer{
		id:      newID,
		env:     env,
		priv:    priv,
		db:      db,
		schemas: make(map[string]*sqldb.Schema),
		acl:     accesscontrol.NewRegistry(),
	}
	p.ep = env.Net.Join(newID)
	p.node = baton.NewNode(p.ep)
	p.ix = indexer.New(p.node, newID)
	p.lc = indexer.NewLocator(p.node)
	p.registerHandlers()
	p.initTelemetry()
	if err := env.Overlay.Recover(failedID, p.node); err != nil {
		return nil, nil, err
	}
	// The failed peer's index entries name it as owner; withdraw them
	// and republish under the new identity.
	old := indexer.New(p.node, failedID)
	tables := db.TableNames()
	colSet := map[string]bool{}
	for _, t := range tables {
		for _, c := range db.Table(t).Schema().Columns {
			colSet[c.Name] = true
		}
	}
	var cols []string
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	if err := old.UnpublishAll(tables, cols); err != nil {
		return nil, nil, err
	}
	if err := p.PublishIndexes(rangeColumns); err != nil {
		return nil, nil, err
	}
	// Metadata comes from the bootstrap as usual.
	for _, s := range env.Bootstrap.GlobalSchemas() {
		p.mu.Lock()
		p.schemas[s.Table] = s
		p.mu.Unlock()
	}
	for _, name := range env.Bootstrap.Roles().Roles() {
		if r := env.Bootstrap.Roles().Role(name); r != nil {
			p.acl.DefineRole(r)
		}
	}
	for user, role := range env.Bootstrap.Users() {
		_ = p.acl.AssignUser(user, role)
	}
	return p, pub, nil
}

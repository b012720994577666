// Package bestpeer is the public API of this BestPeer++ reproduction:
// a peer-to-peer based large-scale data processing platform for
// corporate networks (Chen, Hu, Jiang, Lu, Tan, Vo, Wu — ICDE 2012 /
// TKDE 2014).
//
// A Network assembles the full system the paper describes: a simulated
// elastic cloud provider (internal/cloud), the bootstrap peer with its
// certificate authority and maintenance daemon (internal/bootstrap), a
// BATON structured overlay (internal/baton), and any number of normal
// peers (internal/peer), each hosting an embedded relational database
// (internal/sqldb), a data loader fed from production systems
// (internal/loader, internal/erp), distributed role-based access
// control (internal/accesscontrol), and the pay-as-you-go query
// engines (internal/engine). An HDFS-like store plus MapReduce service
// (internal/dfs, internal/mapreduce) is mounted for analytical jobs.
//
// Quick start:
//
//	net, err := bestpeer.NewNetwork(bestpeer.Config{NumPeers: 4})
//	...
//	res, err := net.Query(0, "SELECT COUNT(*) FROM lineitem", bestpeer.QueryOptions{})
//
// See examples/ for complete programs and bench_test.go for the
// benchmarks regenerating the paper's figures.
package bestpeer

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/baton"
	"bestpeer/internal/bootstrap"
	"bestpeer/internal/cloud"
	"bestpeer/internal/dfs"
	"bestpeer/internal/engine"
	"bestpeer/internal/mapreduce"
	"bestpeer/internal/peer"
	"bestpeer/internal/pnet"
	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/tpch"
	"bestpeer/internal/vtime"
)

// Config sizes a new corporate network.
type Config struct {
	// NumPeers is the number of normal peers launched initially.
	NumPeers int
	// PeerPrefix names peers "<prefix>-NN" (default "peer").
	PeerPrefix string
	// Rates calibrates the virtual-time cost model; the zero value uses
	// the paper-calibrated defaults.
	Rates vtime.Rates
	// DisableMapReduce skips mounting the DFS + MapReduce service.
	DisableMapReduce bool
	// RangeIndexColumns selects the columns each peer publishes range
	// indexes for (table -> columns).
	RangeIndexColumns map[string][]string
	// GlobalSchema seeds the shared schema at the bootstrap. Nil means
	// the standard TPC-H schema.
	GlobalSchema []*sqldb.Schema
}

// QueryOptions controls one query execution.
type QueryOptions struct {
	// User is the submitting account ("" = benchmark full-access user).
	User string
	// Strategy picks the engine (default basic, per §6.1.2).
	Strategy peer.Strategy
	// Engine ablation switches.
	Engine engine.Options
}

// Network is a running BestPeer++ corporate network.
type Network struct {
	Net       *pnet.Network
	Provider  *cloud.SimProvider
	Bootstrap *bootstrap.Peer
	Overlay   *baton.Overlay
	MRCluster *mapreduce.Cluster
	FS        *dfs.FileSystem
	Clock     *pnet.LogicalClock

	cfg Config
	env peer.Env

	// mu guards the peer topology below. Readers are everywhere — the
	// serving tier calls ClusterTableVersions from handler goroutines on
	// every cacheable query — while failover and AddPeer mutate under
	// load, so every access goes through it.
	mu        sync.RWMutex
	peers     []*peer.Peer
	peersByID map[string]*peer.Peer
	nextRepl  int

	servingCfg serving.Config
	servers    map[string]*serving.Server // peer ID -> tier; nil until EnableServing
}

// NewNetwork builds and starts a network with cfg.NumPeers peers.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.NumPeers < 0 {
		return nil, fmt.Errorf("bestpeer: negative peer count")
	}
	if cfg.PeerPrefix == "" {
		cfg.PeerPrefix = "peer"
	}
	if cfg.Rates == (vtime.Rates{}) {
		cfg.Rates = vtime.DefaultRates()
	}
	if cfg.GlobalSchema == nil {
		cfg.GlobalSchema = tpch.Schemas(false)
	}
	if cfg.RangeIndexColumns == nil {
		cfg.RangeIndexColumns = map[string][]string{}
	}

	n := &Network{
		Net:       pnet.NewNetwork(),
		Provider:  cloud.NewSimProvider(),
		cfg:       cfg,
		peersByID: make(map[string]*peer.Peer),
	}
	var err error
	n.Bootstrap, err = bootstrap.New(n.Net, "bootstrap", n.Provider)
	if err != nil {
		return nil, err
	}
	n.Overlay = baton.NewOverlay(n.Net, "bootstrap/overlay")
	for _, s := range cfg.GlobalSchema {
		n.Bootstrap.DefineGlobalSchema(s)
	}

	if !cfg.DisableMapReduce {
		var datanodes []string
		for i := 0; i < maxPeers(cfg.NumPeers); i++ {
			datanodes = append(datanodes, peerID(cfg.PeerPrefix, i))
		}
		fsCfg := dfs.DefaultConfig(datanodes)
		n.FS, err = dfs.New(fsCfg)
		if err != nil {
			return nil, err
		}
		n.MRCluster, err = mapreduce.NewCluster(n.FS, maxPeers(cfg.NumPeers), cfg.Rates)
		if err != nil {
			return nil, err
		}
	}

	n.Clock = &pnet.LogicalClock{}
	n.env = peer.Env{
		Net:       n.Net,
		Bootstrap: n.Bootstrap,
		Overlay:   n.Overlay,
		Provider:  n.Provider,
		MR:        n.MRCluster,
		Rates:     cfg.Rates,
		Clock:     n.Clock,
	}
	n.Bootstrap.SetFailoverHandler(bootstrap.FailoverFunc(n.failover))

	for i := 0; i < cfg.NumPeers; i++ {
		if _, err := n.AddPeer(peerID(cfg.PeerPrefix, i)); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func maxPeers(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func peerID(prefix string, i int) string { return fmt.Sprintf("%s-%02d", prefix, i) }

// AddPeer admits one more normal peer into the network.
func (n *Network) AddPeer(id string) (*peer.Peer, error) {
	p, err := peer.Join(id, n.env)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append(n.peers, p)
	n.peersByID[id] = p
	if n.servers != nil {
		n.servers[id] = p.StartServing(n.servingCfg)
	}
	return p, nil
}

// Peers returns a snapshot of the live normal peers in join order
// (replaced peers appear under their replacement identity).
func (n *Network) Peers() []*peer.Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]*peer.Peer(nil), n.peers...)
}

// Peer returns the i-th peer.
func (n *Network) Peer(i int) *peer.Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peers[i]
}

// PeerByID resolves a peer by identity.
func (n *Network) PeerByID(id string) *peer.Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peersByID[id]
}

// LoadTPCH loads a deterministic TPC-H partition into every peer
// (scale factor per whole network), builds the Table 4 indexes,
// publishes index entries into the overlay, and takes an initial cloud
// backup of every peer — the paper's §6.1.5 loading process.
func (n *Network) LoadTPCH(sf float64) error {
	peers := n.Peers()
	for i, p := range peers {
		sc := tpch.Scale{ScaleFactor: sf, Peer: i, NumPeers: len(peers), NationKey: -1}
		if err := tpch.Generate(p.DB(), sc); err != nil {
			return err
		}
		if err := p.PublishIndexes(n.cfg.RangeIndexColumns); err != nil {
			return err
		}
		if err := p.Backup(); err != nil {
			return err
		}
		p.MarkRefreshed()
	}
	return nil
}

// Query submits a SQL query at the i-th peer.
func (n *Network) Query(i int, sql string, opts QueryOptions) (*engine.QueryResult, error) {
	n.mu.RLock()
	if i < 0 || i >= len(n.peers) {
		n.mu.RUnlock()
		return nil, fmt.Errorf("bestpeer: no peer %d", i)
	}
	p := n.peers[i]
	n.mu.RUnlock()
	return p.Query(sql, opts.User, opts.Strategy, opts.Engine)
}

// EnableServing attaches a serving tier (session multiplexing, weighted
// admission, versioned result cache) to every current peer with the
// given config; peers joining or replacing failed ones later inherit
// it. Without this call no serving verb is registered and nothing in
// the query path changes.
func (n *Network) EnableServing(cfg serving.Config) {
	if cfg.TableVersions == nil {
		// Queries fan out across peers, so a cached result is stamped
		// with per-table version vectors summed across the cluster: DML
		// at any data owner invalidates, not just at the serving peer,
		// and DML against one table leaves results over other tables
		// cached.
		cfg.TableVersions = n.ClusterTableVersions
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servingCfg = cfg
	n.servers = make(map[string]*serving.Server, len(n.peers))
	for _, p := range n.peers {
		n.servers[p.ID()] = p.StartServing(cfg)
	}
}

// ServingServer returns the serving tier attached at the peer with this
// identity (nil before EnableServing or for unknown peers).
func (n *Network) ServingServer(id string) *serving.Server {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.servers[id]
}

// ServingClient joins a fresh client endpoint named name into the
// message substrate and binds a session client to the i-th peer's
// serving tier. The caller still has to Open the session.
func (n *Network) ServingClient(name string, i int) *serving.Client {
	return serving.NewClient(n.Net.Join(name), n.Peer(i).ID())
}

// ClusterTableVersions sums, across every peer, the schema version and
// the per-table data versions of exactly the given tables. The serving
// result cache stamps entries with this vector so DML against one table
// only invalidates results that actually read it. Serving handler
// goroutines call this on every cacheable query, concurrently with
// failover and AddPeer — it reads a snapshot of the topology, never the
// live slice.
func (n *Network) ClusterTableVersions(tables []string) (schema uint64, data []uint64) {
	data = make([]uint64, len(tables))
	for _, p := range n.Peers() {
		s, vec := p.DB().VersionVector(tables)
		schema += s
		for i, v := range vec {
			data[i] += v
		}
	}
	return schema, data
}

// SetLocatorCache flips every current peer's index-entry cache. The
// rebalance chaos test disables it so each query's index lookups walk
// the overlay its balancing passes are mutating; production leaves it
// on.
func (n *Network) SetLocatorCache(enabled bool) {
	for _, p := range n.Peers() {
		p.Locator().SetCache(enabled)
	}
}

// CrashPeer injects a crash: the cloud instance stops responding and
// the peer becomes unreachable, exactly what the bootstrap's monitoring
// daemon detects.
func (n *Network) CrashPeer(id string) error {
	if err := n.Provider.Crash(id); err != nil {
		return err
	}
	n.Net.SetDown(id, true)
	return nil
}

// ReportTelemetry pushes one telemetry delta report from every live
// peer to the bootstrap's collector. Unreachable peers are skipped —
// their silence is itself the signal (last-report age grows and other
// peers' sender-side RPC stats report the failures).
func (n *Network) ReportTelemetry() {
	for _, p := range n.Peers() {
		_ = p.ReportTelemetry()
	}
}

// StartTelemetryReporters launches every peer's epoch reporter loop and
// returns a single stop function for all of them.
func (n *Network) StartTelemetryReporters(interval time.Duration) (stop func()) {
	peers := n.Peers()
	stops := make([]func(), 0, len(peers))
	for _, p := range peers {
		stops = append(stops, p.StartTelemetryReporter(interval))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// RunMaintenance executes one epoch of the bootstrap's Algorithm 1
// daemon (monitoring, fail-over, auto-scaling, resource release,
// notifications), advancing the cloud's virtual clock.
func (n *Network) RunMaintenance(epoch time.Duration) error {
	n.Provider.AdvanceClock(epoch)
	return n.Bootstrap.RunMaintenanceEpoch(epoch)
}

// failover is the bootstrap's fail-over hook: launch a replacement
// instance, restore the database from the latest backup, take over the
// overlay position, and republish indexes.
func (n *Network) failover(failedID string) (string, ed25519.PublicKey, error) {
	n.mu.Lock()
	n.nextRepl++
	newID := fmt.Sprintf("%s-r%d", failedID, n.nextRepl)
	n.mu.Unlock()
	p, pub, err := peer.Recover(failedID, newID, n.env, n.cfg.RangeIndexColumns)
	if err != nil {
		return "", nil, err
	}
	n.mu.Lock()
	for i, old := range n.peers {
		if old.ID() == failedID {
			n.peers[i] = p
			break
		}
	}
	delete(n.peersByID, failedID)
	n.peersByID[newID] = p
	var oldSrv *serving.Server
	var tiers []*serving.Server
	if n.servers != nil {
		// The failed tier's sessions die with its endpoint; attach a
		// fresh tier at the replacement.
		oldSrv = n.servers[failedID]
		delete(n.servers, failedID)
		n.servers[newID] = p.StartServing(n.servingCfg)
		for _, s := range n.servers {
			tiers = append(tiers, s)
		}
	}
	n.mu.Unlock()
	// Close and invalidate outside the lock: both take serving-tier
	// locks that handler goroutines hold while serving queries. A
	// restore can rewind the data version sum (the backup predates
	// recent mutations), which the lazy per-lookup version check cannot
	// detect — drop every cached result on every peer eagerly instead.
	if oldSrv != nil {
		oldSrv.Close()
	}
	for _, s := range tiers {
		s.InvalidateCache()
	}
	return newID, pub, nil
}

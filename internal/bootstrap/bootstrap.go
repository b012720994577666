package bootstrap

import (
	"crypto/ed25519"
	"fmt"
	"sort"
	"sync"
	"time"

	"bestpeer/internal/accesscontrol"
	"bestpeer/internal/cloud"
	"bestpeer/internal/pnet"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
)

func init() {
	// SetHelp attaches to an existing family, so each (unlabeled, fixed)
	// family is created eagerly first — also pre-registering it in the
	// exposition, Prometheus-style.
	d := telemetry.Default
	for name, help := range map[string]string{
		"bootstrap_telemetry_reports_total":  "Peer telemetry delta reports the bootstrap absorbed.",
		"bootstrap_maintenance_epochs_total": "Algorithm 1 maintenance epochs executed.",
		"bootstrap_failovers_total":          "Fail-overs triggered by cloud metrics or aggregated telemetry.",
		"bootstrap_scaleups_total":           "Auto-scaling actions triggered by CPU, storage, or p99 latency.",
	} {
		d.Counter(name)
		d.SetHelp(name, help)
	}
	d.Gauge("bootstrap_peers_online")
	d.SetHelp("bootstrap_peers_online", "Normal peers currently online.")
}

// PeerStatus is a normal peer's state as seen by the bootstrap.
type PeerStatus string

// Peer states tracked by the bootstrap.
const (
	StatusOnline     PeerStatus = "online"
	StatusRecovering PeerStatus = "recovering"
)

// PeerRecord is one entry of the bootstrap's peer list.
type PeerRecord struct {
	ID         string
	InstanceID string
	Cert       Certificate
	Status     PeerStatus
}

// NetworkInfo is what a newly admitted peer receives: the corporate
// network's current state (§3.1).
type NetworkInfo struct {
	Participants []string
	GlobalSchema []*sqldb.Schema
	Roles        []string
	Certificate  Certificate
	CAKey        ed25519.PublicKey
}

// FailoverHandler re-creates a failed peer. The network assembly
// implements it: launch a replacement instance through the cloud
// adapter, restore the database from the latest backup, and rejoin the
// overlay. It returns the replacement peer's ID and public key (for the
// fresh certificate the bootstrap issues it).
type FailoverHandler interface {
	Failover(failedID string) (string, ed25519.PublicKey, error)
}

// FailoverFunc adapts a function to FailoverHandler.
type FailoverFunc func(failedID string) (string, ed25519.PublicKey, error)

// Failover implements FailoverHandler.
func (f FailoverFunc) Failover(failedID string) (string, ed25519.PublicKey, error) {
	return f(failedID)
}

// Event is one entry of the bootstrap's administrative log.
type Event struct {
	At   time.Duration
	Kind string // "join", "leave", "failover", "scaleup", "release", "notify"
	Peer string
	Note string
}

// Thresholds configure the Algorithm 1 daemon. The first two come from
// the cloud sim (the paper's CloudWatch); the rest act on the
// collector's aggregated peer telemetry and only fire for peers that
// have actually reported — a network without reporters behaves exactly
// as before.
type Thresholds struct {
	// CPUHigh triggers auto-scaling when a peer's CPU utilization
	// exceeds it.
	CPUHigh float64
	// StorageHighFraction triggers auto-scaling when used storage
	// exceeds this fraction of allocated storage.
	StorageHighFraction float64
	// RPCFailureRateHigh triggers fail-over when the windowed rate of
	// failed calls to a peer (as observed by every other peer's sender
	// side) reaches it. A cloud-healthy instance whose peer process
	// stopped answering is caught here.
	RPCFailureRateHigh float64
	// MinRPCCalls is the minimum observed-call count before
	// RPCFailureRateHigh is trusted (a single failed probe is not an
	// outage).
	MinRPCCalls int64
	// QueryP99High triggers auto-scaling when a peer's windowed p99
	// query wall time reaches it (0 disables the latency signal).
	QueryP99High time.Duration
}

// DefaultThresholds returns sensible monitor thresholds.
func DefaultThresholds() Thresholds {
	return Thresholds{
		CPUHigh:             0.85,
		StorageHighFraction: 0.85,
		RPCFailureRateHigh:  0.5,
		MinRPCCalls:         8,
		QueryP99High:        2 * time.Second,
	}
}

// Peer is the bootstrap peer: the single service-provider-run instance
// of a BestPeer++ network.
type Peer struct {
	ep        *pnet.Endpoint
	provider  *cloud.SimProvider
	ca        *CertAuthority
	failover  FailoverHandler
	thresh    Thresholds
	collector *Collector

	mu        sync.Mutex
	peers     map[string]*PeerRecord
	blacklist map[string]Certificate // peerID -> revoked cert, resources pending release
	schemas   map[string]*sqldb.Schema
	stats     map[string]StatsDomainRecord
	roles     *accesscontrol.Registry
	users     map[string]string // user -> role, network-wide directory
	events    []Event
	clock     time.Duration
}

// New creates a bootstrap peer attached to the network.
func New(net *pnet.Network, id string, provider *cloud.SimProvider) (*Peer, error) {
	b := &Peer{
		ep:        net.Join(id),
		provider:  provider,
		thresh:    DefaultThresholds(),
		collector: NewCollector(),
		peers:     make(map[string]*PeerRecord),
		blacklist: make(map[string]Certificate),
		schemas:   make(map[string]*sqldb.Schema),
		stats:     make(map[string]StatsDomainRecord),
		roles:     accesscontrol.NewRegistry(),
		users:     make(map[string]string),
	}
	ca, err := NewCertAuthority(func() time.Duration {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.clock
	})
	if err != nil {
		return nil, err
	}
	b.ca = ca
	b.ep.Handle("bootstrap.user.created", b.handleUserCreated)
	// telemetry.report is retry-safe because the collector dedups by
	// report sequence number; the peer-list read is naturally so.
	b.ep.HandleIdempotent(MsgTelemetryReport, b.handleTelemetryReport)
	b.ep.HandleIdempotent(MsgListPeers, b.handleListPeers)
	return b, nil
}

// MsgListPeers returns the bootstrap's online peer IDs ([]string) — the
// discovery verb remote tooling (bpremote -all) uses to enumerate the
// cluster before fanning out.
const MsgListPeers = "bootstrap.peers"

// handleTelemetryReport absorbs one peer's delta report.
func (b *Peer) handleTelemetryReport(msg pnet.Message) (pnet.Message, error) {
	rep, ok := msg.Payload.(telemetry.Report)
	if !ok {
		return pnet.Message{}, fmt.Errorf("bootstrap: telemetry report payload %T", msg.Payload)
	}
	telemetry.Default.Counter("bootstrap_telemetry_reports_total").Inc()
	if err := b.collector.Absorb(rep); err != nil {
		return pnet.Message{}, err
	}
	return pnet.Message{}, nil
}

// handleListPeers serves the online peer list.
func (b *Peer) handleListPeers(pnet.Message) (pnet.Message, error) {
	b.mu.Lock()
	out := make([]string, 0, len(b.peers))
	var size int64
	for id, rec := range b.peers {
		if rec.Status == StatusOnline {
			out = append(out, id)
			size += int64(len(id))
		}
	}
	b.mu.Unlock()
	sort.Strings(out)
	return pnet.Message{Payload: out, Size: size}, nil
}

// Collector returns the bootstrap's telemetry collector.
func (b *Peer) Collector() *Collector { return b.collector }

// ID returns the bootstrap's peer ID.
func (b *Peer) ID() string { return b.ep.ID() }

// CA returns the certificate authority.
func (b *Peer) CA() *CertAuthority { return b.ca }

// SetFailoverHandler installs the network assembly's fail-over hook.
func (b *Peer) SetFailoverHandler(h FailoverHandler) { b.failover = h }

// SetThresholds overrides the monitoring thresholds.
func (b *Peer) SetThresholds(t Thresholds) { b.thresh = t }

// DefineGlobalSchema installs one table of the corporate network's
// shared global schema.
func (b *Peer) DefineGlobalSchema(s *sqldb.Schema) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.schemas[s.Table] = s
}

// GlobalSchema returns a global table's schema, or nil.
func (b *Peer) GlobalSchema(table string) *sqldb.Schema {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.schemas[table]
}

// GlobalSchemas returns all global tables, sorted by name.
func (b *Peer) GlobalSchemas() []*sqldb.Schema {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*sqldb.Schema, 0, len(b.schemas))
	for _, s := range b.schemas {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// StatsDomainRecord is the network-agreed histogram configuration of
// one global table (paper §5.1): which columns the multi-dimensional
// histograms cover and their value domain, which also parameterizes the
// iDistance mapping every publisher and reader must share.
type StatsDomainRecord struct {
	Columns []string
	Lo, Hi  []float64
}

// DefineStatsDomain registers a table's histogram configuration.
func (b *Peer) DefineStatsDomain(table string, d StatsDomainRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats[table] = d
}

// StatsDomainRec returns a table's histogram configuration.
func (b *Peer) StatsDomainRec(table string) (StatsDomainRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.stats[table]
	return d, ok
}

// Roles returns the network's standard role registry (§4.4: "when
// setting up a new corporate network, the service provider defines a
// standard set of roles").
func (b *Peer) Roles() *accesscontrol.Registry { return b.roles }

// Join admits a normal peer: it is added to the peer list, issued a
// certificate, and handed the network metadata (§3.1). instanceID names
// the cloud instance backing the peer, monitored by the daemon.
func (b *Peer) Join(peerID, instanceID string, peerPub ed25519.PublicKey) (NetworkInfo, error) {
	b.mu.Lock()
	if _, ok := b.peers[peerID]; ok {
		b.mu.Unlock()
		return NetworkInfo{}, fmt.Errorf("bootstrap: peer %s already joined", peerID)
	}
	b.mu.Unlock()

	cert := b.ca.Issue(peerID, peerPub)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.peers[peerID] = &PeerRecord{ID: peerID, InstanceID: instanceID, Cert: cert, Status: StatusOnline}
	b.logEvent("join", peerID, "")
	info := NetworkInfo{Certificate: cert, CAKey: b.ca.PublicKey()}
	for id := range b.peers {
		info.Participants = append(info.Participants, id)
	}
	sort.Strings(info.Participants)
	for _, s := range b.schemas {
		info.GlobalSchema = append(info.GlobalSchema, s)
	}
	sort.Slice(info.GlobalSchema, func(i, j int) bool { return info.GlobalSchema[i].Table < info.GlobalSchema[j].Table })
	info.Roles = b.roles.Roles()
	return info, nil
}

// Leave processes a graceful departure: the peer moves to the black
// list, its certificate is revoked, and its resources are reclaimed at
// the end of the next maintenance epoch (§3.1).
func (b *Peer) Leave(peerID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.peers[peerID]
	if !ok {
		return fmt.Errorf("bootstrap: unknown peer %s", peerID)
	}
	b.ca.Revoke(rec.Cert.Serial)
	b.blacklist[peerID] = rec.Cert
	delete(b.peers, peerID)
	b.logEvent("leave", peerID, "")
	return nil
}

// Peers returns the current participant IDs, sorted.
func (b *Peer) Peers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.peers))
	for id := range b.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Record returns a peer's record.
func (b *Peer) Record(peerID string) (PeerRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.peers[peerID]
	if !ok {
		return PeerRecord{}, false
	}
	return *rec, true
}

// Online reports whether every listed peer is online — the strong
// consistency gate (§3.2): queries touching a recovering peer's data
// must block until fail-over completes.
func (b *Peer) Online(peerIDs ...string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range peerIDs {
		rec, ok := b.peers[id]
		if !ok || rec.Status != StatusOnline {
			return false
		}
	}
	return true
}

// Blacklist returns the peers whose resources await release.
func (b *Peer) Blacklist() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.blacklist))
	for id := range b.blacklist {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Events returns a copy of the administrative event log.
func (b *Peer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// logEvent appends to the log. Callers hold b.mu.
func (b *Peer) logEvent(kind, peer, note string) {
	b.events = append(b.events, Event{At: b.clock, Kind: kind, Peer: peer, Note: note})
}

// CreateUser registers a user account created at one peer and
// broadcasts it network-wide (§4.4), so every peer's local administrator
// can define access control for any user.
func (b *Peer) CreateUser(user, role string) error {
	b.mu.Lock()
	if _, ok := b.users[user]; ok {
		b.mu.Unlock()
		return fmt.Errorf("bootstrap: user %s already exists", user)
	}
	b.users[user] = role
	peers := make([]string, 0, len(b.peers))
	for id := range b.peers {
		peers = append(peers, id)
	}
	b.mu.Unlock()
	for _, id := range peers {
		// Best effort: unreachable peers learn the user on rejoin.
		_, _ = b.ep.Call(id, "peer.user.created", [2]string{user, role}, int64(len(user)+len(role)))
	}
	return nil
}

// Users returns the network-wide user directory.
func (b *Peer) Users() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.users))
	for u, r := range b.users {
		out[u] = r
	}
	return out
}

// handleUserCreated receives user-creation forwards from normal peers.
func (b *Peer) handleUserCreated(msg pnet.Message) (pnet.Message, error) {
	pair := msg.Payload.([2]string)
	if err := b.CreateUser(pair[0], pair[1]); err != nil {
		return pnet.Message{}, err
	}
	return pnet.Message{}, nil
}

// RunMaintenanceEpoch executes one round of Algorithm 1: collect
// metrics from every peer's instance; trigger fail-over for failed
// peers and auto-scaling for overloaded ones; then release blacklisted
// resources and notify participants of membership changes. advance is
// the epoch length on the bootstrap's virtual clock.
func (b *Peer) RunMaintenanceEpoch(advance time.Duration) error {
	telemetry.Default.Counter("bootstrap_maintenance_epochs_total").Inc()
	b.mu.Lock()
	b.clock += advance
	type target struct {
		id       string
		instance string
	}
	var targets []target
	for id, rec := range b.peers {
		if rec.Status == StatusOnline {
			targets = append(targets, target{id: id, instance: rec.InstanceID})
		}
	}
	b.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	changed := false
	for _, tg := range targets {
		metrics, ok := b.provider.Metrics(tg.instance)
		if !ok || !metrics.Healthy {
			// Fail-over (Algorithm 1 lines 6-10): launch a replacement,
			// restore from backup, blacklist the failed peer.
			telemetry.Default.Counter("bootstrap_failovers_total").Inc()
			reason := "cloud: metrics missing"
			if ok {
				reason = "cloud: healthy=false"
			}
			if err := b.doFailover(tg.id, reason); err != nil {
				return err
			}
			changed = true
			continue
		}

		// Aggregated-telemetry fail-over: the instance looks fine to the
		// cloud, but the collector's windows say nobody can call the
		// peer — the process is wedged even though the VM is up.
		health, reported := b.collector.Health(tg.id)
		minCalls := b.thresh.MinRPCCalls
		if minCalls < 1 {
			minCalls = 1
		}
		if reported && b.thresh.RPCFailureRateHigh > 0 &&
			health.RPCCalls >= minCalls && health.RPCFailureRate >= b.thresh.RPCFailureRateHigh {
			telemetry.Default.Counter("bootstrap_failovers_total").Inc()
			if err := b.doFailover(tg.id, fmt.Sprintf("telemetry: rpc_failure_rate=%.2f over %d calls",
				health.RPCFailureRate, health.RPCCalls)); err != nil {
				return err
			}
			changed = true
			continue
		}

		inst, ok := b.provider.Instance(tg.instance)
		if !ok {
			continue
		}
		overCPU := metrics.CPUUtilization > b.thresh.CPUHigh
		overStorage := metrics.StorageUsedGB > b.thresh.StorageHighFraction*float64(inst.Type.StorageGB)
		overP99 := reported && b.thresh.QueryP99High > 0 &&
			health.P99QuerySeconds >= b.thresh.QueryP99High.Seconds()
		if overCPU || overStorage || overP99 {
			// Auto-scaling (lines 12-17). The event notes which signal
			// fired: the cloud sim's CPU/storage, or the collector's
			// windowed p99 query latency.
			newType, err := b.provider.ScaleUp(tg.instance)
			if err != nil {
				return err
			}
			telemetry.Default.Counter("bootstrap_scaleups_total").Inc()
			note := newType.Name
			switch {
			case overCPU:
				note += fmt.Sprintf(" (cloud: cpu=%.2f)", metrics.CPUUtilization)
			case overStorage:
				note += fmt.Sprintf(" (cloud: storage=%.1f/%dGB)", metrics.StorageUsedGB, inst.Type.StorageGB)
			default:
				note += fmt.Sprintf(" (telemetry: p99=%.3fs)", health.P99QuerySeconds)
			}
			b.mu.Lock()
			b.logEvent("scaleup", tg.id, note)
			b.mu.Unlock()
		}
	}

	// Release blacklisted resources (line 18).
	b.mu.Lock()
	released := make([]string, 0, len(b.blacklist))
	for id := range b.blacklist {
		released = append(released, id)
	}
	b.blacklist = make(map[string]Certificate)
	for _, id := range released {
		b.logEvent("release", id, "")
	}
	notify := changed || len(released) > 0
	peers := make([]string, 0, len(b.peers))
	online := 0
	for id, rec := range b.peers {
		peers = append(peers, id)
		if rec.Status == StatusOnline {
			online++
		}
	}
	b.mu.Unlock()
	telemetry.Default.Gauge("bootstrap_peers_online").Set(int64(online))
	sort.Strings(released)
	for _, id := range released {
		// Terminate the departed/failed peer's instance if it is still
		// allocated. Failed instances may already be gone.
		_ = b.provider.Terminate(instanceIDFor(id))
	}

	// Notify participants of changes (line 20).
	if notify {
		sort.Strings(peers)
		for _, id := range peers {
			_, _ = b.ep.Call(id, "peer.membership.changed", nil, 8)
		}
		b.mu.Lock()
		b.logEvent("notify", "", fmt.Sprintf("%d peers", len(peers)))
		b.mu.Unlock()
	}
	return nil
}

// instanceIDFor derives the cloud instance ID for a peer. The network
// assembly launches instances under the peer's own ID.
func instanceIDFor(peerID string) string { return peerID }

// doFailover performs one peer's fail-over through the installed
// handler. reason names the signal that fired (cloud metrics or an
// aggregated telemetry threshold) and lands in the event log.
func (b *Peer) doFailover(failedID, reason string) error {
	b.mu.Lock()
	rec, ok := b.peers[failedID]
	if !ok {
		b.mu.Unlock()
		return nil
	}
	rec.Status = StatusRecovering
	b.logEvent("failover", failedID, "begin: "+reason)
	handler := b.failover
	b.mu.Unlock()

	if handler == nil {
		return fmt.Errorf("bootstrap: no failover handler installed for %s", failedID)
	}
	newID, newPub, err := handler.Failover(failedID)
	if err != nil {
		return fmt.Errorf("bootstrap: failover of %s: %w", failedID, err)
	}
	cert := b.ca.Issue(newID, newPub)

	// The dead identity's telemetry window must not keep dragging
	// scores; the replacement starts a fresh one under its new ID.
	b.collector.Drop(failedID)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.ca.Revoke(rec.Cert.Serial)
	b.blacklist[failedID] = rec.Cert
	delete(b.peers, failedID)
	b.peers[newID] = &PeerRecord{ID: newID, InstanceID: newID, Cert: cert, Status: StatusOnline}
	b.logEvent("failover", failedID, "recovered as "+newID)
	return nil
}

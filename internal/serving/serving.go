// Package serving is the front door of a BestPeer++ normal peer: the
// serving tier the paper's throughput experiments presuppose (§6.2
// drives each peer with a bank of 20 fetch threads serving a stream of
// independent clients) but the reproduction previously lacked — queries
// arrived one at a time through library calls.
//
// The tier layers three mechanisms over peer.Query:
//
//   - A session layer multiplexing many logical client sessions over
//     the hardened pnet transport (session.open/query/close verbs with
//     per-session state: user, admission class, engine strategy).
//   - A weighted admission queue with interactive and batch classes,
//     bounded depth, and telemetry-driven load shedding: when the
//     recent queue-wait p95/p99 blows the configured budget, new
//     arrivals are rejected with the typed ErrOverloaded instead of
//     queuing toward a timeout (batch sheds at half the interactive
//     budget).
//   - A versioned result cache keyed by the session user plus the
//     normalized statement text, stamped with the schema version and the
//     data versions of exactly the tables the statement reads, so a
//     cached result is never served across a DDL bump or DML on those
//     tables — and never across accounts, because data owners apply
//     per-role access checks and row masking, making results
//     user-dependent. Per-query CacheMode selects use/refresh/bypass.
//
// The tier is attached per peer (peer.StartServing / Network
// .EnableServing); with it unattached, nothing changes anywhere.
package serving

import (
	"fmt"
	"sync"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
)

// Backend executes one admitted query. peer.Peer adapts its Query
// method to this; tests plug in stubs.
type Backend interface {
	ServeQuery(sql, user, strategy string) (Executed, error)
}

// Executed is a backend execution's outcome.
type Executed struct {
	Result *sqldb.Result
	Engine string
	VTime  time.Duration
}

// Config sizes one peer's serving tier. Zero values select defaults.
type Config struct {
	// Workers bounds concurrently executing queries (default 20 — the
	// paper's per-peer fetch thread count, §6.1.2).
	Workers int
	// QueueDepth bounds each class's admission queue (default 256).
	QueueDepth int
	// InteractiveWeight : BatchWeight is the stride-scheduling grant
	// ratio under contention (defaults 4 : 1).
	InteractiveWeight int
	BatchWeight       int
	// ShedP95/ShedP99 are the interactive queue-wait budgets; arrivals
	// are shed while the recent window's quantile exceeds them (batch
	// sheds at half). Defaults 250ms / 1s.
	ShedP95 time.Duration
	ShedP99 time.Duration
	// ShedWindow is the quantile window's epoch (default 1s; the view
	// spans one to two epochs).
	ShedWindow time.Duration
	// MinShedSamples gates quantile shedding until the window holds
	// this many waits (default 16), so an idle tier never sheds.
	MinShedSamples int
	// MaxSessions bounds the session table (default 4096).
	MaxSessions int
	// CacheEntries bounds the result cache (default 512).
	CacheEntries int
	// CacheMaxResultBytes bounds one cached result (default 1 MiB).
	CacheMaxResultBytes int64
	// TableVersions supplies the schema version plus a per-table
	// data-version vector for exactly the (sorted) tables a statement
	// reads, which scopes invalidation: DML against unrelated tables
	// keeps entries servable. Nil disables the result cache.
	TableVersions func(tables []string) (schema uint64, data []uint64)
	// Registry, when set, receives the peer-scoped serving series
	// (peer_serving_*) the telemetry reporter ships to the bootstrap
	// collector. Process-wide serving_* series always go to
	// telemetry.Default.
	Registry *telemetry.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = 4
	}
	if c.BatchWeight <= 0 {
		c.BatchWeight = 1
	}
	if c.ShedP95 == 0 {
		c.ShedP95 = 250 * time.Millisecond
	}
	if c.ShedP99 == 0 {
		c.ShedP99 = time.Second
	}
	if c.ShedWindow <= 0 {
		c.ShedWindow = time.Second
	}
	if c.MinShedSamples <= 0 {
		c.MinShedSamples = 16
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.CacheMaxResultBytes <= 0 {
		c.CacheMaxResultBytes = 1 << 20
	}
	return c
}

// metrics caches the tier's telemetry handles: process-wide serving_*
// series on telemetry.Default (bptop's summary line) plus optional
// peer_serving_* mirrors on the peer's private registry (the reporter →
// collector health path).
type metrics struct {
	sessionsOpen  *telemetry.Gauge
	sessionsTotal *telemetry.Counter
	admitted      [numClasses]*telemetry.Counter
	shed          [numClasses]*telemetry.Counter
	queueWait     *telemetry.Histogram
	queueDepth    [numClasses]*telemetry.Gauge

	cacheHits          *telemetry.Counter
	cacheMisses        *telemetry.Counter
	cacheBypass        *telemetry.Counter
	cacheInvalidations *telemetry.Counter
	cacheEvictions     *telemetry.Counter
	cacheOversize      *telemetry.Counter
	cacheEntries       *telemetry.Gauge
	cacheBytes         *telemetry.Gauge

	peerQueueWait *telemetry.Histogram // nil without a peer registry
	peerAdmitted  *telemetry.Counter
	peerShed      *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	d := telemetry.Default
	m := &metrics{
		sessionsOpen:       d.Gauge("serving_sessions_open"),
		sessionsTotal:      d.Counter("serving_sessions_opened_total"),
		queueWait:          d.Histogram("serving_queue_wait_seconds", nil),
		cacheHits:          d.Counter("serving_cache_hits_total"),
		cacheMisses:        d.Counter("serving_cache_misses_total"),
		cacheBypass:        d.Counter("serving_cache_bypass_total"),
		cacheInvalidations: d.Counter("serving_cache_invalidations_total"),
		cacheEvictions:     d.Counter("serving_cache_evictions_total"),
		cacheOversize:      d.Counter("serving_cache_oversize_total"),
		cacheEntries:       d.Gauge("serving_cache_entries"),
		cacheBytes:         d.Gauge("serving_cache_bytes"),
	}
	for i := range classNames {
		m.admitted[i] = d.Counter("serving_admitted_total", telemetry.L("class", classNames[i]))
		m.shed[i] = d.Counter("serving_shed_total", telemetry.L("class", classNames[i]))
		m.queueDepth[i] = d.Gauge("serving_queue_depth", telemetry.L("class", classNames[i]))
	}
	d.SetHelp("serving_sessions_open", "Client sessions currently open on this frontend.")
	d.SetHelp("serving_sessions_opened_total", "Client sessions opened since start.")
	d.SetHelp("serving_queue_wait_seconds", "Admission queue wait for admitted statements.")
	d.SetHelp("serving_cache_hits_total", "Result-cache lookups served from cache.")
	d.SetHelp("serving_cache_misses_total", "Result-cache lookups that went to execution.")
	d.SetHelp("serving_cache_bypass_total", "Statements that skipped the result cache.")
	d.SetHelp("serving_cache_invalidations_total", "Cache entries dropped by version bumps.")
	d.SetHelp("serving_cache_evictions_total", "Cache entries evicted by capacity pressure.")
	d.SetHelp("serving_cache_oversize_total", "Results too large to cache.")
	d.SetHelp("serving_cache_entries", "Result-cache entries resident.")
	d.SetHelp("serving_cache_bytes", "Result-cache bytes resident.")
	d.SetHelp("serving_admitted_total", "Statements admitted, by workload class.")
	d.SetHelp("serving_shed_total", "Statements shed at admission, by workload class.")
	d.SetHelp("serving_queue_depth", "Admission queue depth, by workload class.")
	if reg != nil {
		m.peerQueueWait = reg.Histogram("peer_serving_queue_seconds", nil)
		m.peerAdmitted = reg.Counter("peer_serving_admitted_total")
		m.peerShed = reg.Counter("peer_serving_shed_total")
		reg.SetHelp("peer_serving_queue_seconds", "Admission queue wait on this peer's frontend.")
		reg.SetHelp("peer_serving_admitted_total", "Statements admitted on this peer's frontend.")
		reg.SetHelp("peer_serving_shed_total", "Statements shed on this peer's frontend.")
	}
	return m
}

// observeQueueWait feeds one admitted wait into both registries. The
// class shed counters mirror into the peer registry via recordShed.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.queueWait.ObserveDuration(d)
	if m.peerQueueWait != nil {
		m.peerQueueWait.ObserveDuration(d)
	}
	if m.peerAdmitted != nil {
		m.peerAdmitted.Inc()
	}
}

// session is one logical client's per-session state.
type session struct {
	id       string
	user     string
	class    int
	strategy string
	opened   time.Time
	queries  int64 // guarded by the server mutex
}

// Server is one peer's serving tier.
type Server struct {
	cfg   Config
	be    Backend
	id    string
	adm   *admitter
	cache *resultCache // nil when caching is disabled
	m     *metrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	closed   bool
}

// Attach builds a Server over backend and registers the session verbs
// on ep. session.query is idempotent (read-only) so the transport's
// retry policy applies; open/close are at-most-once.
func Attach(ep *pnet.Endpoint, backend Backend, cfg Config) *Server {
	s := New(ep.ID(), backend, cfg)
	ep.Handle(MsgOpen, s.handleOpen)
	ep.HandleIdempotent(MsgQuery, s.handleQuery)
	ep.Handle(MsgClose, s.handleClose)
	return s
}

// New builds a Server without registering transport verbs (tests, or
// callers wiring handlers themselves). id scopes session identifiers.
func New(id string, backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics(cfg.Registry)
	s := &Server{
		cfg:      cfg,
		be:       backend,
		id:       id,
		adm:      newAdmitter(cfg, m),
		m:        m,
		sessions: make(map[string]*session),
	}
	if cfg.TableVersions != nil {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheMaxResultBytes, m)
	}
	return s
}

// Close sheds every queued waiter, fails future opens and queries fast,
// and forgets all sessions. Registered verbs stay bound (pnet has no
// unregister) but answer ErrOverloaded/ErrUnknownSession.
func (s *Server) Close() {
	s.mu.Lock()
	n := int64(len(s.sessions))
	s.sessions = make(map[string]*session)
	s.closed = true
	s.mu.Unlock()
	s.m.sessionsOpen.Add(-n)
	s.adm.close()
}

// InvalidateCache eagerly drops every cached result (failover hook).
func (s *Server) InvalidateCache() {
	if s.cache != nil {
		s.cache.invalidateAll()
	}
}

// Sessions reports the open session count.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// stamp captures the freshness stamp for a statement reading the given
// tables (zero when the cache is off).
func (s *Server) stamp(tables []string) (schemaV uint64, dataVec []uint64) {
	if s.cache == nil {
		return 0, nil
	}
	return s.cfg.TableVersions(tables)
}

func (s *Server) handleOpen(msg pnet.Message) (pnet.Message, error) {
	req, ok := msg.Payload.(OpenRequest)
	if !ok {
		return pnet.Message{}, fmt.Errorf("serving: bad open payload %T", msg.Payload)
	}
	class, err := classIndex(req.Class)
	if err != nil {
		return pnet.Message{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return pnet.Message{}, fmt.Errorf("%w: serving tier closed", ErrOverloaded)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.m.shed[class].Inc()
		s.recordShed()
		return pnet.Message{}, fmt.Errorf("%w: session table full (%d open)", ErrOverloaded, s.cfg.MaxSessions)
	}
	s.nextID++
	sess := &session{
		id:       fmt.Sprintf("%s/s%08d", s.id, s.nextID),
		user:     req.User,
		class:    class,
		strategy: req.Strategy,
		opened:   time.Now(),
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.m.sessionsOpen.Add(1)
	s.m.sessionsTotal.Inc()
	return pnet.Message{Payload: OpenReply{SessionID: sess.id}, Size: int64(len(sess.id) + 16)}, nil
}

// recordShed mirrors one shed event into the peer registry.
func (s *Server) recordShed() {
	if s.m.peerShed != nil {
		s.m.peerShed.Inc()
	}
}

// session resolves a live session.
func (s *Server) session(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	sess.queries++
	return sess, nil
}

func (s *Server) handleQuery(msg pnet.Message) (pnet.Message, error) {
	req, ok := msg.Payload.(QueryRequest)
	if !ok {
		return pnet.Message{}, fmt.Errorf("serving: bad query payload %T", msg.Payload)
	}
	sess, err := s.session(req.SessionID)
	if err != nil {
		return pnet.Message{}, err
	}

	// Cache interaction happens before admission: a hit costs no worker
	// slot and no queue wait, which is exactly the serving-capacity win
	// the cache exists for.
	key, tables, cacheable := normalizeSQL(req.SQL)
	key = cacheKey(sess.user, key)
	cacheable = cacheable && s.cache != nil
	switch {
	case !cacheable || req.Cache == CacheBypass:
		s.m.cacheBypass.Inc()
	case req.Cache == CacheUse:
		schemaV, dataVec := s.stamp(tables)
		if e := s.cache.lookup(key, schemaV, dataVec); e != nil {
			s.m.cacheHits.Inc()
			rep := QueryReply{Result: e.res, Engine: e.engine, VTime: e.vtime, CacheHit: true}
			return pnet.Message{Payload: rep, Size: e.bytes}, nil
		}
		s.m.cacheMisses.Inc()
	case req.Cache == CacheRefresh:
		s.m.cacheMisses.Inc()
	}

	wait, release, err := s.adm.admit(sess.class)
	if err != nil {
		if Overloaded(err) {
			s.recordShed()
		}
		return pnet.Message{}, err
	}
	defer release()

	// Version capture precedes execution: a mutation racing the query
	// lands the entry under a version the next lookup rejects — the
	// conservative side.
	schemaV, dataVec := s.stamp(tables)
	ex, err := s.be.ServeQuery(req.SQL, sess.user, sess.strategy)
	if err != nil {
		return pnet.Message{}, err
	}
	bytes := resultBytes(ex.Result)
	if cacheable && req.Cache != CacheBypass {
		s.cache.store(&cacheEntry{
			key: key, res: ex.Result, engine: ex.Engine, vtime: ex.VTime,
			schemaV: schemaV, dataVec: dataVec, bytes: bytes,
		})
	}
	rep := QueryReply{Result: ex.Result, Engine: ex.Engine, VTime: ex.VTime, QueueWait: wait}
	return pnet.Message{Payload: rep, Size: bytes}, nil
}

func (s *Server) handleClose(msg pnet.Message) (pnet.Message, error) {
	req, ok := msg.Payload.(CloseRequest)
	if !ok {
		return pnet.Message{}, fmt.Errorf("serving: bad close payload %T", msg.Payload)
	}
	s.mu.Lock()
	sess := s.sessions[req.SessionID]
	if sess == nil {
		s.mu.Unlock()
		return pnet.Message{}, fmt.Errorf("%w: %q", ErrUnknownSession, req.SessionID)
	}
	delete(s.sessions, req.SessionID)
	queries := sess.queries
	s.mu.Unlock()
	s.m.sessionsOpen.Add(-1)
	return pnet.Message{Payload: CloseReply{Queries: queries}, Size: 16}, nil
}

// normalizeSQL renders a SELECT into its canonical form and lists the
// tables it reads (sorted, deduped); non-SELECT or unparsable text is
// uncacheable (the backend surfaces the error).
func normalizeSQL(sql string) (string, []string, bool) {
	stmt, err := sqldb.ParseSelect(sql)
	if err != nil {
		return "", nil, false
	}
	return stmt.String(), sqldb.ReferencedTables(stmt), true
}

// cacheKey scopes a normalized statement to the session user. Results
// are user-dependent — data owners enforce per-role access checks and
// row masking (peer.handleSubQuery) — so an entry cached for one
// account must never satisfy another's lookup: serving a full-access
// user's rows to a restricted user would bypass access control.
func cacheKey(user, normalized string) string {
	return user + "\x00" + normalized
}

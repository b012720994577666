package peer

import (
	"sync"
	"time"

	"bestpeer/internal/pnet"
	"bestpeer/internal/telemetry"
)

// Slow-query log: any Peer.Query whose wall-clock time exceeds the
// threshold captures its rendered trace tree into a bounded ring
// buffer. The peer.slowlog verb (and bpsql's .slowlog) retrieves the
// entries, so a stalled round is inspectable after the fact without
// having had -trace on.

// MsgSlowLog retrieves a peer's slow-query entries.
const MsgSlowLog = "peer.slowlog"

// DefaultSlowQueryThreshold is the capture threshold until
// SetSlowQueryThreshold overrides it.
const DefaultSlowQueryThreshold = 250 * time.Millisecond

// slowLogCapacity bounds the ring buffer.
const slowLogCapacity = 64

// SlowQueryEntry is one captured slow query. Trace holds the rendered
// span tree (already a string so entries ship over pnet without
// carrying live trace structures).
type SlowQueryEntry struct {
	At            time.Time
	Peer          string
	SQL           string
	User          string
	Engine        string
	Wall          time.Duration
	VTime         time.Duration
	Peers         int
	Resubmissions int
	Err           string
	Trace         string
	// OpenSpans lists spans still unfinished when the entry was captured
	// (after Query returned — so anything here is a span leak).
	OpenSpans []string
	// TraceID links the entry to the latency histogram's tail exemplars:
	// a p99 overrun's exemplar trace ID finds its slow-log entry here.
	TraceID uint64
}

// slowLog is the bounded ring holding the most recent entries.
type slowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	entries   []SlowQueryEntry
	next      int
	wrapped   bool
}

func newSlowLog(threshold time.Duration) *slowLog {
	return &slowLog{threshold: threshold, entries: make([]SlowQueryEntry, slowLogCapacity)}
}

func (l *slowLog) setThreshold(d time.Duration) {
	l.mu.Lock()
	l.threshold = d
	l.mu.Unlock()
}

func (l *slowLog) maybeCapture(peer, sql, user string, wall time.Duration, res *queryOutcome, err error, root *telemetry.Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	threshold := l.threshold
	l.mu.Unlock()
	if threshold <= 0 || wall < threshold {
		return
	}
	e := SlowQueryEntry{At: time.Now(), Peer: peer, SQL: sql, User: user, Wall: wall}
	if res != nil {
		e.Engine = res.engine
		e.VTime = res.vtime
		e.Peers = res.peers
		e.Resubmissions = res.resubmissions
	}
	e.TraceID = root.Context().TraceID
	if err != nil {
		e.Err = err.Error()
	}
	if tr := root.Trace(); tr != nil {
		e.Trace = tr.Render()
		e.OpenSpans = tr.OpenSpans()
	}
	l.mu.Lock()
	l.entries[l.next] = e
	l.next = (l.next + 1) % len(l.entries)
	if l.next == 0 {
		l.wrapped = true
	}
	l.mu.Unlock()
}

// list returns the captured entries oldest-first.
func (l *slowLog) list() []SlowQueryEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []SlowQueryEntry
	if l.wrapped {
		out = append(out, l.entries[l.next:]...)
	}
	out = append(out, l.entries[:l.next]...)
	return out
}

// SetSlowQueryThreshold sets the wall-time capture threshold (0 or
// negative disables capture).
func (p *Peer) SetSlowQueryThreshold(d time.Duration) {
	if p.slow != nil {
		p.slow.setThreshold(d)
	}
}

// SlowQueries returns this peer's captured slow queries, oldest first.
func (p *Peer) SlowQueries() []SlowQueryEntry {
	if p.slow == nil {
		return nil
	}
	return p.slow.list()
}

// FetchSlowLog retrieves another peer's slow-query log over the verb
// surface (target may be this peer's own ID; the call still goes
// through pnet like any other verb).
func (p *Peer) FetchSlowLog(target string) ([]SlowQueryEntry, error) {
	reply, err := p.ep.Call(target, MsgSlowLog, nil, 8)
	if err != nil {
		return nil, err
	}
	entries, _ := reply.Payload.([]SlowQueryEntry)
	return entries, nil
}

func (p *Peer) handleSlowLog(pnet.Message) (pnet.Message, error) {
	entries := p.SlowQueries()
	var size int64
	for _, e := range entries {
		size += int64(len(e.SQL) + len(e.Trace) + 64)
	}
	return pnet.Message{Payload: entries, Size: size}, nil
}

package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Query tracing. Peer.Query mints a trace; every engine round, every
// pnet delivery, and every remote handler opens a span under it. The
// context travels across peers inside pnet.Message, so a data owner's
// subquery execution nests under the submitting peer's round span.
// Spans record wall-clock time and, where the engines charge one, the
// virtual-time cost of the same work — rendered side by side so a
// stalled round is attributable to a real peer, not just a simulated
// one.

// SpanContext is the propagated identity of a span: enough to parent
// remote work under it. It crosses peers as two uint64s inside
// pnet.Message and SubQueryRequest.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context identifies a live span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Span is one timed region of a trace. All methods are nil-safe: a nil
// span records nothing, so instrumented layers call unconditionally.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	end    time.Time
	vtime  time.Duration
	hasVT  bool
	// attrs aliases attrsBuf until it overflows, so the common span
	// (a few labels set at start plus one or two recorded at end) never
	// allocates attribute storage; SetAttr's append spills to the heap
	// only past len(attrsBuf) labels.
	attrs    []Label
	attrsBuf [4]Label
}

// Trace is one query's collected span tree. Spans live in fixed-size
// chunks: one allocation covers spanChunkSize spans, and because a
// chunk's backing array never grows, the *Span handles given out stay
// valid for the life of the trace. A typical query's full tree fits in
// one chunk, so tracing costs the garbage collector one object instead
// of one per span.
type Trace struct {
	ID uint64

	mu     sync.Mutex
	chunks [][]Span
}

// spanChunkSize is the spans-per-allocation granularity.
const spanChunkSize = 16

// ids hands out process-unique trace and span IDs.
var ids atomic.Uint64

func init() { ids.Store(uint64(time.Now().UnixNano()) | 1) }

func nextID() uint64 { return ids.Add(1) }

// collector retains the most recent traces so that remote spans opened
// by another peer in the same process land in the caller's trace. It is
// bounded: old traces fall out once maxTraces newer ones started.
const maxTraces = 256

var collector = struct {
	sync.Mutex
	traces map[uint64]*Trace
	order  []uint64
}{traces: make(map[uint64]*Trace)}

func collect(t *Trace) {
	collector.Lock()
	defer collector.Unlock()
	collector.traces[t.ID] = t
	collector.order = append(collector.order, t.ID)
	for len(collector.order) > maxTraces {
		delete(collector.traces, collector.order[0])
		collector.order = collector.order[1:]
	}
}

func lookupTrace(id uint64) *Trace {
	collector.Lock()
	defer collector.Unlock()
	return collector.traces[id]
}

// StartTrace mints a new trace and returns its root span.
func StartTrace(name string, attrs ...Label) *Span {
	t := &Trace{ID: nextID()}
	collect(t)
	return t.newSpan(0, name, attrs)
}

// StartSpan opens a span under a propagated context — the receiving
// side of cross-peer propagation. When the trace is not resident in
// this process (the caller lives across a TCP transport), a local
// trace is created under the caller's ID so this process still keeps
// its half of the tree.
func StartSpan(ctx SpanContext, name string, attrs ...Label) *Span {
	if !ctx.Valid() {
		return nil
	}
	t := lookupTrace(ctx.TraceID)
	if t == nil {
		t = &Trace{ID: ctx.TraceID}
		collect(t)
	}
	return t.newSpan(ctx.SpanID, name, attrs)
}

func (t *Trace) newSpan(parent uint64, name string, attrs []Label) *Span {
	t.mu.Lock()
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]Span, 0, spanChunkSize))
		last++
	}
	t.chunks[last] = append(t.chunks[last], Span{
		tr: t, id: nextID(), parent: parent, name: name, start: time.Now(),
	})
	s := &t.chunks[last][len(t.chunks[last])-1]
	if len(attrs) <= len(s.attrsBuf) {
		s.attrs = s.attrsBuf[:copy(s.attrsBuf[:], attrs)]
	} else {
		s.attrs = attrs
	}
	t.mu.Unlock()
	return s
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.ID, SpanID: s.id}
}

// StartChild opens a child span in the same trace.
func (s *Span) StartChild(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s.id, name, attrs)
}

// End closes the span (idempotent: the first End wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetVTime records the virtual-time cost charged for the span's work.
func (s *Span) SetVTime(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.vtime, s.hasVT = d, true
	s.tr.mu.Unlock()
}

// SetAttr attaches (or appends) one attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetError records the error as an attribute (nil error is a no-op).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetAttr("error", err.Error())
}

// Trace returns the trace the span belongs to.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// SpanInfo is one span flattened for inspection (tests, rendering).
type SpanInfo struct {
	ID, Parent uint64
	Name       string
	Attrs      []Label
	Start      time.Time
	Wall       time.Duration
	VTime      time.Duration
	HasVTime   bool
	// Finished is false for a span still open when the snapshot was
	// taken — after a query returns, an unfinished span is a leak.
	Finished bool
}

// Spans returns a consistent flat snapshot of the trace's spans in
// start order. Unfinished spans report wall time up to now.
func (t *Trace) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	total := 0
	for _, c := range t.chunks {
		total += len(c)
	}
	out := make([]SpanInfo, 0, total)
	for _, c := range t.chunks {
		for i := range c {
			s := &c[i]
			end := s.end
			if end.IsZero() {
				end = now
			}
			out = append(out, SpanInfo{
				ID: s.id, Parent: s.parent, Name: s.name,
				Attrs: append([]Label(nil), s.attrs...),
				Start: s.start, Wall: end.Sub(s.start),
				VTime: s.vtime, HasVTime: s.hasVT,
				Finished: !s.end.IsZero(),
			})
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// OpenSpans returns the names of spans not yet ended — the span-leak
// detector. After a query (successful or failed) has fully returned,
// every span in its trace must be finished; anything still open was
// leaked by an error path.
func (t *Trace) OpenSpans() []string {
	var open []string
	for _, s := range t.Spans() {
		if !s.Finished {
			open = append(open, s.Name)
		}
	}
	return open
}

// Render draws the span tree with wall-clock and virtual time side by
// side. Spans whose parent is not resident (cross-process callers)
// attach at the root level.
func (t *Trace) Render() string {
	if t == nil {
		return "(no trace)\n"
	}
	spans := t.Spans()
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	children := make(map[uint64][]SpanInfo)
	var roots []SpanInfo
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %016x (%d spans)\n", t.ID, len(spans))
	var walk func(s SpanInfo, depth int)
	walk = func(s SpanInfo, depth int) {
		label := s.Name
		if len(s.Attrs) > 0 {
			parts := make([]string, len(s.Attrs))
			for i, a := range s.Attrs {
				parts[i] = a.Key + "=" + a.Value
			}
			label += " {" + strings.Join(parts, " ") + "}"
		}
		vt := "-"
		if s.HasVTime {
			vt = s.VTime.String()
		}
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&sb, "%-64s wall=%-12s vtime=%s\n", indent+label, s.Wall.Round(time.Microsecond), vt)
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}
	return sb.String()
}

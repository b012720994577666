// Package telemetry is the observability substrate of this BestPeer++
// reproduction: a metrics registry (counters, gauges, streaming
// histograms with quantile estimation, Prometheus-style text
// exposition) and a cross-peer query tracer (trace IDs minted at
// Peer.Query, spans propagated through pnet so remote subquery
// execution nests under the caller's span).
//
// The paper's pay-as-you-go model (§5) and the bootstrap peer's
// monitor → fail-over → auto-scale loop (Algorithm 1) both presuppose
// that every peer can account for what it spent and where time went;
// this package records the real counterpart of what the virtual-time
// model simulates. It is stdlib-only and cheap enough for hot paths:
// metric handles are looked up once and cached by the instrumented
// layers, increments are single atomic adds, and the fast path
// allocates nothing.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name dimension of a metric ("peer" -> "peer-03").
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are dropped: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind tags a family for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance inside a family.
type child struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups every labeled instance of one metric name.
type family struct {
	name string
	help string
	kind metricKind

	mu       sync.Mutex
	children map[string]*child // by label signature
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry, or use the package Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every instrumented layer records
// into. Peers in one process share it — the telemetry verb exposes the
// process view, like one node's /metrics endpoint in a real deployment.
var Default = NewRegistry()

// signature renders labels into a canonical map key (sorted by key).
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels) == 1 {
		// Hot-path shortcut: one label needs no copy or sort.
		return labels[0].Key + "=" + labels[0].Value
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// getFamily resolves (or creates) the family for a name, checking kind
// consistency. Registering the same name with a different kind panics:
// that is a programming error, caught by the package's own tests.
func (r *Registry) getFamily(name string, kind metricKind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, children: make(map[string]*child)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic("telemetry: metric " + name + " registered as " + f.kind.String() + " and " + kind.String())
	}
	return f
}

// getChild resolves (or creates) the labeled instance inside a family.
func (f *family) getChild(labels []Label) *child {
	sig := signature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[sig]
	if c == nil {
		c = &child{labels: append([]Label(nil), labels...)}
		switch f.kind {
		case kindCounter:
			c.ctr = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		}
		f.children[sig] = c
	}
	return c
}

// SetHelp attaches the one-line help text emitted with the family.
func (r *Registry) SetHelp(name, help string) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil {
		f.mu.Lock()
		f.help = help
		f.mu.Unlock()
	}
}

// Counter returns the counter for name+labels, creating it on first
// use. The returned handle is stable: look it up once, cache it, and
// increment it from hot paths without further registry traffic.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.getFamily(name, kindCounter).getChild(labels).ctr
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.getFamily(name, kindGauge).getChild(labels).gauge
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given bucket upper bounds (nil selects DurationBuckets,
// the latency default). Bounds are fixed at creation; later calls with
// different bounds return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	f := r.getFamily(name, kindHistogram)
	sig := signature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[sig]
	if c == nil {
		c = &child{labels: append([]Label(nil), labels...), hist: newHistogram(bounds)}
		f.children[sig] = c
	}
	return c.hist
}

// Point is one metric sample in a Snapshot.
type Point struct {
	Name   string
	Labels []Label
	Kind   string // "counter", "gauge", "histogram"
	// Value is the counter/gauge value, or the histogram observation
	// count.
	Value float64
	// Hist is set for histogram points.
	Hist *Histogram
}

// Snapshot returns every metric in the registry, sorted by name then
// label signature — the programmatic twin of WriteText.
func (r *Registry) Snapshot() []Point {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)

	var out []Point
	for _, name := range names {
		f := fams[name]
		f.mu.Lock()
		sigs := make([]string, 0, len(f.children))
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			c := f.children[sig]
			p := Point{Name: name, Labels: c.labels, Kind: f.kind.String()}
			switch f.kind {
			case kindCounter:
				p.Value = float64(c.ctr.Value())
			case kindGauge:
				p.Value = float64(c.gauge.Value())
			case kindHistogram:
				p.Value = float64(c.hist.Count())
				p.Hist = c.hist
			}
			out = append(out, p)
		}
		f.mu.Unlock()
	}
	return out
}

// Reset drops every family (benchmark isolation; not for hot paths —
// cached handles in instrumented layers keep recording into the old
// metrics after a Reset, so only use it around whole-process runs).
func (r *Registry) Reset() {
	r.mu.Lock()
	r.families = make(map[string]*family)
	r.mu.Unlock()
}

// inf is the implicit last histogram bucket bound.
var inf = math.Inf(1)

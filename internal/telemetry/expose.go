package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders the registry in the Prometheus plain-text
// exposition format (text/plain; version=0.0.4): one # TYPE line per
// family, one sample line per labeled instance, histograms expanded
// into cumulative _bucket{le=...} series plus _sum and _count. Families
// and label sets are emitted in sorted order so successive scrapes
// diff cleanly.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		f := fams[name]
		f.mu.Lock()
		help := f.help
		sigs := make([]string, 0, len(f.children))
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		children := make([]*child, 0, len(sigs))
		sort.Strings(sigs)
		for _, sig := range sigs {
			children = append(children, f.children[sig])
		}
		f.mu.Unlock()

		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, c := range children {
			if err := writeChild(w, name, f.kind, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, name string, kind metricKind, c *child) error {
	switch kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(c.labels, "", 0), c.ctr.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(c.labels, "", 0), c.gauge.Value())
		return err
	}
	h := c.hist
	counts := h.BucketCounts()
	bounds := h.Bounds()
	exemplars := h.Exemplars()
	var cum int64
	for i, cnt := range counts {
		cum += cnt
		le := inf
		if i < len(bounds) {
			le = bounds[i]
		}
		// Traced observations append an OpenMetrics-style exemplar to
		// their bucket line: the trace ID that paid this latency class.
		suffix := ""
		if i < len(exemplars) && exemplars[i] != nil {
			suffix = fmt.Sprintf(" # {trace_id=\"%016x\"} %s", exemplars[i].TraceID, formatFloat(exemplars[i].Value))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, renderLabels(c.labels, "le", le), cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(c.labels, "", 0), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(c.labels, "", 0), h.Count())
	return err
}

// MissingHelp scans a text exposition and returns every family that has
// a # TYPE line but no # HELP line — the guard tests use it to keep
// every exported metric documented.
func MissingHelp(exposition string) []string {
	helped := map[string]bool{}
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		if fields[0] != "#" {
			continue
		}
		switch fields[1] {
		case "HELP":
			helped[fields[2]] = true
		case "TYPE":
			if !helped[fields[2]] {
				out = append(out, fields[2])
			}
		}
	}
	return out
}

// renderLabels renders {k="v",...}, appending an le bound when leKey is
// non-empty. Labels are sorted by key; values are escaped per the
// exposition format.
func renderLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	if leKey != "" {
		if len(ls) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(leKey)
		sb.WriteString(`="`)
		sb.WriteString(formatFloat(le))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(f float64) string {
	if f == inf {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Text renders the registry to a string (the telemetry verb's payload).
func (r *Registry) Text() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}

package telemetry

import (
	"strings"
	"testing"
)

func TestExpositionRendersExemplars(t *testing.T) {
	r := NewRegistry()
	r.Histogram("q_seconds", []float64{1}).ObserveExemplar(0.5, 0xbeef)
	text := r.Text()
	want := `# {trace_id="000000000000beef"} 0.5`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing exemplar %q:\n%s", want, text)
	}
}

func TestMissingHelp(t *testing.T) {
	r := NewRegistry()
	r.Counter("documented_total").Inc()
	r.SetHelp("documented_total", "Has help.")
	r.Counter("naked_total").Inc()
	missing := MissingHelp(r.Text())
	if len(missing) != 1 || missing[0] != "naked_total" {
		t.Fatalf("missing = %v, want [naked_total]", missing)
	}
	r.SetHelp("naked_total", "Now documented.")
	if missing := MissingHelp(r.Text()); len(missing) != 0 {
		t.Fatalf("missing after SetHelp = %v", missing)
	}
}

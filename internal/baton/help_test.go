package baton

import (
	"strings"
	"testing"

	"bestpeer/internal/telemetry"
)

// TestEveryBatonMetricHasHelp exercises the overlay enough to create
// every baton_* family — the adjacent-replica push counters via
// inserts — then fails if any renders without a # HELP line.
func TestEveryBatonMetricHasHelp(t *testing.T) {
	_, nodes, _ := testOverlay(t, 4)
	name := "help:doc"
	key := StringKey(name)
	if _, err := nodes["peer-00"].Insert(Item{Key: key, Name: name, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nodes["peer-03"].Lookup(name); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes["peer-01"].Insert(Item{Key: key, Name: "help:doc2", Size: 8}); err != nil {
		t.Fatal(err)
	}

	for _, family := range telemetry.MissingHelp(telemetry.Default.Text()) {
		if strings.HasPrefix(family, "baton_") {
			t.Errorf("baton family %q has no HELP text", family)
		}
	}
}

package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast while exercising every code path.
func tinyConfig() Config {
	return Config{Nodes: []int{2, 4}, PerNodeSF: 0.0004, TargetPerNodeBytes: 1e9, Seed: 1}
}

func parseSeconds(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

func TestPerformanceHarnessShapes(t *testing.T) {
	cfg := tinyConfig()
	for _, run := range []struct {
		name string
		fn   func(Config) (*Table, error)
	}{
		{"Fig6", Fig6}, {"Fig7", Fig7},
	} {
		tab, err := run.fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(tab.Rows) != len(cfg.Nodes) {
			t.Fatalf("%s rows = %d", run.name, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			bp := parseSeconds(t, row[1])
			hdb := parseSeconds(t, row[2])
			if bp <= 0 || hdb <= 0 {
				t.Errorf("%s: non-positive latencies %v", run.name, row)
			}
			// Short queries: HadoopDB's startup floor keeps it well above
			// BestPeer++ at any scale.
			if hdb < 5*bp {
				t.Errorf("%s: hdb %v not >> bp %v", run.name, hdb, bp)
			}
			if hdb < 10 {
				t.Errorf("%s: hdb %v below the startup floor", run.name, hdb)
			}
		}
	}
}

func TestFig11AdaptiveTracksWinner(t *testing.T) {
	tab, err := Fig11(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		p2p := parseSeconds(t, row[1])
		mr := parseSeconds(t, row[2])
		ad := parseSeconds(t, row[3])
		best := p2p
		if mr < best {
			best = mr
		}
		if ad > best*1.05+0.2 {
			t.Errorf("adaptive %v not tracking min(%v, %v) at %s nodes", ad, p2p, mr, row[0])
		}
		if !strings.HasPrefix(row[4], "adaptive(") {
			t.Errorf("choice = %q", row[4])
		}
	}
}

func TestFig12LinearScaling(t *testing.T) {
	cfg := tinyConfig()
	cfg.Nodes = []int{4, 8}
	tab, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s1 := parseSeconds(t, tab.Rows[0][3])
	s2 := parseSeconds(t, tab.Rows[1][3])
	if r := s2 / s1; r < 1.6 || r > 2.4 {
		t.Errorf("supplier scaling 4->8 peers = %vx, want ~2x", r)
	}
}

func TestCurvesMonotone(t *testing.T) {
	cfg := tinyConfig()
	for _, run := range []func(Config) (*Table, error){Fig13, Fig14} {
		tab, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prev float64
		for i, row := range tab.Rows {
			lat := parseSeconds(t, row[2])
			if lat < prev {
				t.Errorf("%s: latency decreased at row %d", tab.ID, i)
			}
			prev = lat
		}
		first := parseSeconds(t, tab.Rows[0][2])
		last := parseSeconds(t, tab.Rows[len(tab.Rows)-1][2])
		if last < 3*first {
			t.Errorf("%s: no saturation hockey stick (%v -> %v)", tab.ID, first, last)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tinyConfig()
	tab, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	// Bloom join must reduce bytes.
	on := parseSeconds(t, tab.Rows[0][2])
	off := parseSeconds(t, tab.Rows[0][3])
	if on >= off {
		t.Errorf("bloom on %v >= off %v", on, off)
	}
	// The index cache can only save overlay hops, never add latency.
	if on, off := parseSeconds(t, tab.Rows[1][2]), parseSeconds(t, tab.Rows[1][3]); on > off {
		t.Errorf("index cache on %v > off %v", on, off)
	}
	// Push transfers skip the MapReduce-style pull delay.
	if push, pull := parseSeconds(t, tab.Rows[2][2]), parseSeconds(t, tab.Rows[2][3]); push >= pull {
		t.Errorf("push %v >= pull %v", push, pull)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "longcolumn"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Format()
	if !strings.Contains(out, "X — demo") || !strings.Contains(out, "longcolumn") {
		t.Errorf("format = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %d", len(lines))
	}
}

func TestScaledRatesTargetVolume(t *testing.T) {
	cfg := tinyConfig()
	r, err := cfg.scaledRates(2)
	if err != nil {
		t.Fatal(err)
	}
	// Scaling down the rates by ~1GB/partition makes them much smaller
	// than the defaults.
	if r.DiskBytesPerSec >= 90e6 {
		t.Errorf("disk rate not scaled: %v", r.DiskBytesPerSec)
	}
	// Disabling the target keeps defaults.
	cfg.TargetPerNodeBytes = 0
	r, err = cfg.scaledRates(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.DiskBytesPerSec != 90e6 {
		t.Errorf("unscaled disk rate = %v", r.DiskBytesPerSec)
	}
}

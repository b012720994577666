package telemetry

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestStartDebugServer binds :0 and checks both the pprof index and the
// /metrics exposition answer — the CLI tools' -pprof flag end to end.
func TestStartDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug_probe_total").Inc()
	addr, closeSrv, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "debug_probe_total 1") {
		t.Fatalf("/metrics missing probe counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", body)
	}
}

// TestPprofFlag checks the shared -pprof flag: unset it starts nothing,
// set it serves (and stops), and an unusable address is an error.
func TestPprofFlag(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-pprof", "127.0.0.1:0"}, false},
		{[]string{"-pprof", "not-an-address"}, true},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		start := PprofFlag(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		stop, err := start()
		if (err != nil) != tc.wantErr {
			t.Errorf("args %q: err = %v, want error %v", tc.args, err, tc.wantErr)
		}
		stop()
	}
}

package telemetry

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// PprofFlag registers the CLI tools' -pprof flag on fs. Call the
// returned start after fs is parsed: when the flag names an address it
// runs StartDebugServer there over the Default registry and prints the
// bound address to standard error; when the flag is empty it does
// nothing. The stop it returns is never nil.
func PprofFlag(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	addr := fs.String("pprof", "", "serve net/http/pprof and /metrics on this address")
	return func() (func(), error) {
		if *addr == "" {
			return func() {}, nil
		}
		bound, closeSrv, err := StartDebugServer(*addr, nil)
		if err != nil {
			return func() {}, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof+metrics on http://%s/debug/pprof/\n", bound)
		return func() { _ = closeSrv() }, nil
	}
}

// StartDebugServer serves live profiling and metrics over HTTP for the
// CLI tools' -pprof flag: net/http/pprof under /debug/pprof/ (CPU and
// heap profiles pulled mid-bench) and the registry's text exposition
// under /metrics. It uses an explicit mux so nothing leaks onto
// http.DefaultServeMux. The returned address is the bound listen
// address (useful with ":0"); close shuts the listener down.
func StartDebugServer(addr string, reg *Registry) (boundAddr string, close func() error, err error) {
	if reg == nil {
		reg = Default
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WriteText(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// Command bpremote demonstrates BestPeer++'s TCP transport across OS
// processes: one process serves a loaded corporate network's peers on a
// TCP address; another process ships subqueries to them over the wire.
//
// Terminal 1:
//
//	bpremote -serve 127.0.0.1:7420 -peers 4 -sf 0.01
//
// Terminal 2:
//
//	bpremote -connect 127.0.0.1:7420 -peer peer-00 \
//	    -query "SELECT COUNT(*) FROM lineitem"
//
// With -telemetry, the client fetches the serving process's telemetry
// registry (Prometheus-style text exposition) over the same TCP verb
// surface instead of shipping a query:
//
//	bpremote -connect 127.0.0.1:7420 -peer peer-00 -telemetry
//
// Adding -all fans the telemetry fetch out to every online peer (the
// bootstrap's bootstrap.peers verb lists them) and prints one merged
// exposition with each series labeled by its peer:
//
//	bpremote -connect 127.0.0.1:7420 -telemetry -all
//
// With -session, the client opens a serving-tier session at the target
// peer instead of shipping a raw subquery: the query goes through
// admission control and the result cache, and typed rejections
// (serving.ErrOverloaded) survive the wire. -repeat N issues the query
// N times in the session, showing the cache hit on the repeats:
//
//	bpremote -connect 127.0.0.1:7420 -peer peer-00 -session \
//	    -class interactive -repeat 3 -query "SELECT COUNT(*) FROM lineitem"
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"bestpeer"
	"bestpeer/internal/bootstrap"
	"bestpeer/internal/engine"
	"bestpeer/internal/peer"
	"bestpeer/internal/pnet"
	"bestpeer/internal/serving"
	"bestpeer/internal/sqldb"
	"bestpeer/internal/telemetry"
	"bestpeer/internal/tpch"
)

func main() {
	serve := flag.String("serve", "", "serve a network's peers on this TCP address")
	peers := flag.Int("peers", 4, "peers in the served network")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the served network")
	connect := flag.String("connect", "", "address of a serving bpremote process")
	target := flag.String("peer", "peer-00", "data owner peer to query")
	query := flag.String("query", "SELECT COUNT(*) FROM lineitem", "single-table subquery to ship")
	telemetryMode := flag.Bool("telemetry", false, "fetch the remote process's telemetry exposition instead of querying")
	all := flag.Bool("all", false, "with -telemetry: merge every online peer's registry snapshot")
	sessionMode := flag.Bool("session", false, "query through a serving-tier session instead of a raw subquery")
	class := flag.String("class", "interactive", "admission class for -session (interactive|batch)")
	repeat := flag.Int("repeat", 1, "with -session: issue the query this many times")
	startPprof := telemetry.PprofFlag(flag.CommandLine)
	flag.Parse()

	stopPprof, err := startPprof()
	if err != nil {
		fatal(err)
	}
	defer stopPprof()

	switch {
	case *serve != "":
		runServer(*serve, *peers, *sf)
	case *connect != "" && *telemetryMode && *all:
		runTelemetryAll(*connect)
	case *connect != "" && *telemetryMode:
		runTelemetry(*connect, *target)
	case *connect != "" && *sessionMode:
		runSession(*connect, *target, *query, *class, *repeat)
	case *connect != "":
		runClient(*connect, *target, *query)
	default:
		fmt.Fprintln(os.Stderr, "bpremote: pass -serve ADDR or -connect ADDR")
		os.Exit(2)
	}
}

func runServer(addr string, peers int, sf float64) {
	net, err := bestpeer.NewNetwork(bestpeer.Config{
		NumPeers:          peers,
		RangeIndexColumns: map[string][]string{tpch.LineItem: {"l_shipdate"}},
	})
	if err != nil {
		fatal(err)
	}
	if err := net.LoadTPCH(sf); err != nil {
		fatal(err)
	}
	// Attach the serving tier so remote -session clients have a front
	// door; raw subquery and telemetry verbs keep working beside it.
	net.EnableServing(serving.Config{})
	ln, err := net.Net.ListenTCP(addr)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	var ids []string
	for _, p := range net.Peers() {
		ids = append(ids, p.ID())
	}
	fmt.Printf("serving %d peers (%s) on %s\n", peers, strings.Join(ids, ", "), ln.Addr())
	fmt.Println("ctrl-c to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func runClient(addr, target, query string) {
	stmt, err := sqldb.ParseSelect(query)
	if err != nil {
		fatal(err)
	}
	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer(target, addr)
	client := clientNet.Join("bpremote-client")

	reply, err := client.Call(target, peer.MsgSubQuery,
		engine.SubQueryRequest{Stmt: stmt}, int64(len(query)))
	if err != nil {
		fatal(err)
	}
	res := reply.Payload.(*sqldb.Result)
	fmt.Println(strings.Join(res.Columns, " | "))
	const maxRows = 20
	for i, row := range res.Rows {
		if i >= maxRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("-- %d rows from %s over TCP (%d bytes scanned remotely)\n",
		len(res.Rows), target, res.Stats.BytesScanned)
}

// runSession opens a serving-tier session at the target peer over TCP
// and issues the query repeat times, printing each round's cache and
// queue-wait outcome. A shed query surfaces the typed overload error.
func runSession(addr, target, query, class string, repeat int) {
	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer(target, addr)
	cl := serving.NewClient(clientNet.Join("bpremote-client"), target)
	if err := cl.Open("", class, ""); err != nil {
		fatal(err)
	}
	fmt.Printf("session %s open at %s (class=%s)\n", cl.SessionID(), target, class)
	for i := 0; i < repeat; i++ {
		out, err := cl.Query(query, serving.CacheUse)
		if err != nil {
			if serving.Overloaded(err) {
				fmt.Printf("round %d: shed by admission control: %v\n", i+1, err)
				continue
			}
			fatal(err)
		}
		hit := "miss"
		if out.CacheHit {
			hit = "hit"
		}
		fmt.Printf("round %d: %d rows, engine=%s, cache=%s, queue wait=%v, virtual latency=%v\n",
			i+1, len(out.Result.Rows), out.Engine, hit, out.QueueWait, out.VTime)
	}
	n, err := cl.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("session closed after %d queries\n", n)
}

// runTelemetry asks the serving process for its metrics registry via
// the peer.telemetry verb — the serving process answers with its
// process-wide exposition text, so one fetch covers every peer it
// hosts.
func runTelemetry(addr, target string) {
	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer(target, addr)
	client := clientNet.Join("bpremote-client")

	reply, err := client.Call(target, peer.MsgTelemetry, nil, 8)
	if err != nil {
		fatal(err)
	}
	fmt.Print(reply.Payload.(string))
}

// runTelemetryAll asks the bootstrap for the online peer list, fetches
// every peer's full registry snapshot over peer.telemetry.snapshot, and
// merges them into one registry under peer=<id> labels. The exposition
// is deterministically ordered (sorted family names, sorted label
// signatures), so two runs against an idle server print byte-identical
// tables.
func runTelemetryAll(addr string) {
	clientNet := pnet.NewNetwork()
	clientNet.AddRemotePeer("bootstrap", addr)
	client := clientNet.Join("bpremote-client")

	reply, err := client.Call("bootstrap", bootstrap.MsgListPeers, nil, 8)
	if err != nil {
		fatal(err)
	}
	ids := reply.Payload.([]string)
	cluster := telemetry.NewRegistry()
	fetched := 0
	for _, id := range ids {
		clientNet.AddRemotePeer(id, addr)
		rep, err := client.Call(id, peer.MsgTelemetrySnapshot, nil, 8)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpremote: %s: %v (skipped)\n", id, err)
			continue
		}
		snap := rep.Payload.(telemetry.Report)
		if err := cluster.Merge(snap.Delta, telemetry.L("peer", snap.Peer)); err != nil {
			fatal(err)
		}
		fetched++
	}
	fmt.Printf("# merged %d/%d peer snapshots from %s\n", fetched, len(ids), addr)
	fmt.Print(cluster.Text())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpremote:", err)
	os.Exit(1)
}

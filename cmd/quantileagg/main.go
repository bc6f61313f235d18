// Command quantileagg is the aggregator node of the distributed tier
// (internal/cluster): it periodically pulls the binary snapshot of every
// configured quantileserver peer, merges them under the COMBINE rule
// (eps_new = max over peers — distribution adds no error), and serves the
// globally merged read API.
//
// Default (single-stream) mode pulls GET /v1/snapshot of each peer, with
// incremental delta snapshots negotiated by default (-delta=false forces
// full payloads):
//
//	GET  /v1/quantile  ?phi=0.5&phi=0.99  global quantiles over all peers
//	GET  /v1/rank      ?q=1.5             global rank estimate
//	GET  /v1/cdf       ?q=1&q=2           global CDF points
//	GET  /v1/stats                        merged-view size + per-peer pull health
//	                                      (wire bytes, delta fetches, tree state)
//	GET  /v1/snapshot                     merged view re-exported as a wire
//	                                      payload (aggregators compose into trees)
//	POST /v1/pull                         force a pull round now
//
// With -keyed it pulls GET /v1/store/snapshot (the multi-key container of
// the keyed store tier) instead and merges *per key* — a key held by several
// peers gets their summaries COMBINE-merged, a key held by one passes
// through — serving /v1/k/{key}/quantile, /v1/k/{key}/rank,
// /v1/k/{key}/cdf, /v1/keys, /v1/stats, /v1/store/snapshot, and
// POST /v1/pull.
//
// Tree mode (-tree-height ≥ 2) turns the aggregator into a combiner in a
// hierarchical aggregation tree: children are validated against the
// per-level error budget eps/height, the merged view is pruned before
// re-export, and -round-timeout sheds slow children to stale serving (see
// internal/cluster/tree.go for the error accounting). A height-2 tree:
//
//	quantileserver -addr :8081 -eps 0.01 &   # leaves at eps/height = 0.02/2
//	quantileserver -addr :8082 -eps 0.01 &
//	quantileagg -addr :8080 -tree-eps 0.02 -tree-height 2 -tree-level 2 \
//	    -peers http://localhost:8081,http://localhost:8082
//
// Children that cannot be pulled (NAT, strict firewalls) can push instead:
// name them in -children and have each child run with -parent and -name, and
// they will POST their snapshots to this combiner's
// /v1/child/{name}/snapshot route every -interval.
//
// A peer that cannot be reached keeps contributing its last successful
// snapshot; its error shows up in /v1/stats until it recovers. SIGINT or
// SIGTERM shuts the aggregator down gracefully: in-flight requests finish,
// the pull loop stops, and the process exits 0.
//
// Example (flat, keyed):
//
//	quantileserver -addr :8081 & quantileserver -addr :8082 & quantileserver -addr :8083 &
//	quantileagg -addr :8080 -keyed -peers http://localhost:8081,http://localhost:8082,http://localhost:8083
//	curl -s 'localhost:8080/v1/k/checkout.latency/quantile?phi=0.99'
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quantilelb/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		peers    = flag.String("peers", "", "comma-separated peer base URLs (e.g. http://host:8081,http://host:8082)")
		interval = flag.Duration("interval", 2*time.Second, "pull interval (and push interval with -parent)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-pull HTTP timeout")
		keyed    = flag.Bool("keyed", false, "aggregate the keyed store tier (pull /v1/store/snapshot, merge per key)")
		delta    = flag.Bool("delta", true, "negotiate incremental delta snapshots on pulls")

		treeEps      = flag.Float64("tree-eps", 0, "end-to-end error budget of the aggregation tree (0 = flat aggregation)")
		treeHeight   = flag.Int("tree-height", 0, "tree height, counting leaf servers as level 1")
		treeLevel    = flag.Int("tree-level", 0, "this combiner's level, 2..height (defaults to height: the root)")
		roundTimeout = flag.Duration("round-timeout", 0, "tree mode: shed children that miss this per-round deadline (0 = no deadline)")

		children = flag.String("children", "", "tree mode: comma-separated names of push-fed children (they POST /v1/child/{name}/snapshot)")
		parent   = flag.String("parent", "", "push this combiner's merged snapshot to a parent combiner's base URL every -interval")
		name     = flag.String("name", "", "child name to push under (required with -parent)")
	)
	flag.Parse()

	urls := splitList(*peers)
	childNames := splitList(*children)
	treeMode := *treeHeight != 0 || *treeEps != 0 || *treeLevel != 0
	if len(urls) == 0 && len(childNames) == 0 {
		log.Fatal("quantileagg: -peers (or tree-mode -children) is required")
	}
	if *parent != "" && *name == "" {
		log.Fatal("quantileagg: -parent requires -name")
	}
	if treeMode && *keyed {
		log.Fatal("quantileagg: -keyed and -tree-* are mutually exclusive (trees aggregate the single-stream tier)")
	}
	if !treeMode && len(childNames) > 0 {
		log.Fatal("quantileagg: -children requires tree mode (-tree-eps and -tree-height)")
	}
	client := &http.Client{Timeout: *timeout}

	var (
		handler  http.Handler
		pullOnce func(context.Context) error
		start    func(time.Duration) func()
		snapshot func() []byte
	)
	switch {
	case treeMode:
		if *treeLevel == 0 {
			*treeLevel = *treeHeight
		}
		cfg := cluster.TreeConfig{
			Eps:          *treeEps,
			Height:       *treeHeight,
			Level:        *treeLevel,
			RoundTimeout: *roundTimeout,
		}
		var srcs []cluster.Source
		for _, u := range urls {
			srcs = append(srcs, &cluster.HTTPSource{URL: u, Client: client, Delta: *delta})
		}
		push := make([]*cluster.PushSource, len(childNames))
		for i, n := range childNames {
			push[i] = cluster.NewPushSource(n)
			srcs = append(srcs, push[i])
		}
		agg, err := cluster.NewTree(cfg, srcs...)
		if err != nil {
			log.Fatalf("quantileagg: %v", err)
		}
		handler, pullOnce, start = cluster.NewTreeAggregatorHandler(agg, push...), agg.PullOnce, agg.Start
		snapshot = func() []byte { p, _, _ := agg.SnapshotPayload(); return p }
	case *keyed:
		srcs := make([]cluster.Source, len(urls))
		for i, u := range urls {
			srcs[i] = &cluster.HTTPSource{URL: u, Client: client, Path: "/v1/store/snapshot", Delta: *delta}
		}
		agg := cluster.NewKeyed(srcs...)
		handler, pullOnce, start = cluster.NewKeyedAggregatorHandler(agg), agg.PullOnce, agg.Start
	default:
		srcs := make([]cluster.Source, len(urls))
		for i, u := range urls {
			srcs[i] = &cluster.HTTPSource{URL: u, Client: client, Delta: *delta}
		}
		agg := cluster.New(srcs...)
		handler, pullOnce, start = cluster.NewAggregatorHandler(agg), agg.PullOnce, agg.Start
		snapshot = func() []byte { p, _, _ := agg.SnapshotPayload(); return p }
	}

	if err := pullOnce(context.Background()); err != nil {
		// Partial failures are expected at startup (peers may still be
		// coming up); the pull loop keeps retrying.
		log.Printf("quantileagg: initial pull: %v", err)
	}
	stop := start(*interval)

	if *parent != "" {
		if snapshot == nil {
			log.Fatal("quantileagg: -parent is not supported with -keyed")
		}
		go pushLoop(client, *parent, *name, *interval, snapshot)
	}

	log.Printf("quantileagg listening on %s (%d peers, %d push children, keyed=%v, tree=%v, delta=%v, pull every %s)",
		*addr, len(urls), len(childNames), *keyed, treeMode, *delta, *interval)
	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	if err := serve(srv, stop); err != nil {
		log.Fatal(err)
	}
}

// Server timeouts: a client gets readHeaderTimeout to send its request
// headers, and a graceful shutdown waits up to shutdownTimeout for the
// requests in flight.
const (
	readHeaderTimeout = 10 * time.Second
	shutdownTimeout   = 10 * time.Second
)

// serve runs srv until SIGINT or SIGTERM, then shuts it down gracefully and
// runs stop, which ends the pull loop. It returns the listener's error if
// serving fails first (after running stop as well).
func serve(srv *http.Server, stop func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	failed := make(chan error, 1)
	go func() { failed <- srv.ListenAndServe() }()
	var err error
	select {
	case err = <-failed:
	case s := <-sig:
		log.Printf("quantileagg: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		err = srv.Shutdown(ctx)
		cancel()
	}
	stop()
	return err
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// pushLoop POSTs the merged snapshot to the parent combiner's push route
// every interval, skipping rounds where the local view is still empty.
// Push replaces the parent's retained copy (idempotent), so re-pushing an
// unchanged snapshot is wasteful but harmless.
func pushLoop(client *http.Client, parentURL, childName string, interval time.Duration, snapshot func() []byte) {
	url := fmt.Sprintf("%s/v1/child/%s/snapshot", strings.TrimRight(parentURL, "/"), childName)
	for range time.Tick(interval) {
		payload := snapshot()
		if payload == nil {
			continue
		}
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			log.Printf("quantileagg: pushing to parent: %v", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			log.Printf("quantileagg: parent rejected push: %s: %s", resp.Status, body)
		}
		resp.Body.Close()
	}
}

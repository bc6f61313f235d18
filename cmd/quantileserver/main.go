// Command quantileserver exposes a sharded concurrent quantile summary — and
// a multi-tenant keyed store of summaries — over HTTP: one writer node of
// the distributed tier in internal/cluster. Every request handler goroutine
// is a writer or reader of the same summaries, with no coordination beyond
// the sharded ingestion layer and the keyed store's lock striping.
//
// The summary family is selected with -family (biased, fo, gk, kll, mrl,
// mlq, req, reservoir); it applies to both the single-stream summary and the
// keyed store's per-key factory. Pick req for sharp high tails (p99.9+),
// biased for relative error at low ranks, mlq for the fastest ingest, gk for
// the deterministic baseline, fo for the smallest memory at tight eps (a
// randomized summary: answers carry a failure probability δ, seeded by
// -seed); README.md has the full choosing guide. Unknown family names fail
// startup with a structured error on stderr.
//
// With -store-dir the keyed store is crash-safe: it checkpoints atomically
// every -store-checkpoint and appends each update to a write-ahead log that
// is replayed on restart (disable with -store-no-wal; -store-wal-sync trades
// throughput for fsync'd durability). SIGINT or SIGTERM shuts the server down
// gracefully: in-flight requests finish, then the store writes its final
// checkpoint, and the process exits 0.
//
// Single-stream endpoints (served by cluster.NewServerHandler; see its doc
// comment for the full contract):
//
//	POST /v1/update    ingest a batch: whitespace/comma-separated float64s, a
//	                   JSON array of numbers (Content-Type: application/json),
//	                   a weighted JSON array of {"v": value, "w": count}
//	                   objects (each value counts w times; error ≤ ε·W), or
//	                   single items as ?x= query parameters
//	GET  /v1/quantile  ?phi=0.5&phi=0.99  -> {"results":[{"phi":0.5,"value":...},...]}
//	GET  /v1/rank      ?q=1.5             -> {"q":1.5,"rank":...,"n":...}
//	GET  /v1/cdf       ?q=1&q=2&q=3       -> {"points":[{"q":1,"p":...},...]}
//	GET  /v1/stats                        -> shards, counts, snapshot freshness
//	GET  /v1/snapshot                     -> binary wire payload of the merged
//	                                         view, ETag'd by content hash;
//	                                         ?mode=delta&base=<etag> negotiates
//	                                         an incremental KindDelta payload
//	POST /v1/merge                        -> ingest a peer's wire payload
//
// Keyed endpoints (served by cluster.NewKeyedServerHandler; one summary per
// metric/tenant key, created lazily, evicted LRU under -store-budget and
// after -store-ttl idle):
//
//	POST /v1/k/{key}/update    ingest a batch into one key (same body formats,
//	                           weighted {v,w} batches included)
//	GET  /v1/k/{key}/quantile  per-key quantiles (same JSON shapes as above)
//	GET  /v1/k/{key}/rank      per-key rank estimate
//	GET  /v1/k/{key}/cdf       per-key CDF points
//	GET  /v1/keys              list live keys
//	GET  /v1/store/stats       key count, retained bytes vs budget, evictions
//	GET  /v1/store/snapshot    the whole store as one binary container payload
//	POST /v1/store/merge       ingest a peer's keyed container, merged per key
//
// Example session:
//
//	quantileserver -addr :8080 -family req -eps 0.01 -shards 16 &
//	seq 1 100000 | shuf | curl -s --data-binary @- localhost:8080/v1/update
//	curl -s -H 'Content-Type: application/json' -d '[1.5,2.5,3.5]' localhost:8080/v1/k/checkout.latency/update
//	curl -s 'localhost:8080/v1/k/checkout.latency/quantile?phi=0.99'
//	curl -s localhost:8080/v1/keys
//
// Run several of these and point cmd/quantileagg at them to serve globally
// merged quantiles — flat, per key with -keyed, or as an aggregation tree
// with the -tree-* flags (README.md has quickstarts for all three tiers).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	quantilelb "quantilelb"
	"quantilelb/internal/cluster"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
)

// nodeConfig carries the flag values every family build shares.
type nodeConfig struct {
	eps             float64
	shards          int
	refresh         int
	interval        time.Duration
	storeBudget     int64
	storeTTL        time.Duration
	storeSweep      time.Duration
	storePromote    int
	storeDir        string
	storeCheckpoint time.Duration
	storeNoWAL      bool
	storeWALSync    int
	seed            int64
	maxN            int
}

// build assembles the writer node for one concrete summary type: the
// sharded single-stream summary, the keyed store with a matching per-key
// factory, and the combined HTTP handler. The returned stop function shuts
// down the background refresher and janitor.
func build[S sharded.Mergeable[float64, S]](cfg nodeConfig, factory func() S, perKey func(eps float64) store.Summary) (http.Handler, func()) {
	s := quantilelb.NewSharded(factory, cfg.shards, quantilelb.WithRefreshEvery(cfg.refresh))
	var stops []func()
	if cfg.interval > 0 {
		stops = append(stops, s.AutoRefresh(cfg.interval))
	}
	st, err := quantilelb.OpenStore(quantilelb.StoreConfig{
		Eps:              cfg.eps,
		Factory:          perKey,
		MaxRetainedBytes: cfg.storeBudget,
		IdleTTL:          cfg.storeTTL,
		PromoteItems:     cfg.storePromote,
		Dir:              cfg.storeDir,
		DisableWAL:       cfg.storeNoWAL,
		WALSyncEvery:     cfg.storeWALSync,
	})
	if err != nil {
		startupError("opening keyed store in %q: %v", cfg.storeDir, err)
	}
	if cfg.storeSweep > 0 {
		stops = append(stops, st.StartJanitor(cfg.storeSweep))
	}
	if cfg.storeDir != "" && cfg.storeCheckpoint > 0 {
		tick := time.NewTicker(cfg.storeCheckpoint)
		done, exited := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(exited)
			for {
				select {
				case <-tick.C:
					if err := st.Checkpoint(); err != nil {
						log.Printf("store checkpoint: %v", err)
					}
				case <-done:
					return
				}
			}
		}()
		// Wait for the ticker goroutine, so no timed checkpoint follows Close.
		stops = append(stops, func() { tick.Stop(); close(done); <-exited })
	}
	return cluster.NewStoreServerHandler(s, st), func() {
		for _, stop := range stops {
			stop()
		}
		// Final checkpoint + WAL close; a no-op without -store-dir.
		if err := st.Close(); err != nil {
			log.Printf("store close: %v", err)
		}
	}
}

// families maps each -family name to its node builder. Reservoir sampling is
// configured at (eps, delta=0.01): a randomized sketch, included for
// completeness — the comparison-based families are the paper's subject.
var families = map[string]func(nodeConfig) (http.Handler, func()){
	"gk": func(c nodeConfig) (http.Handler, func()) {
		return build(c, quantilelb.GKFactory(c.eps), nil)
	},
	"kll": func(c nodeConfig) (http.Handler, func()) {
		f := quantilelb.KLLFactory(c.eps, c.seed)
		return build(c, f, func(float64) store.Summary { return f() })
	},
	"mrl": func(c nodeConfig) (http.Handler, func()) {
		return build(c, quantilelb.MRLFactory(c.eps, c.maxN),
			func(eps float64) store.Summary { return quantilelb.MRLFactory(eps, c.maxN)() })
	},
	"mlq": func(c nodeConfig) (http.Handler, func()) {
		return build(c, quantilelb.MLQFactory(c.eps),
			func(eps float64) store.Summary { return quantilelb.MLQFactory(eps)() })
	},
	"req": func(c nodeConfig) (http.Handler, func()) {
		return build(c, quantilelb.REQFactory(c.eps),
			func(eps float64) store.Summary { return quantilelb.REQFactory(eps)() })
	},
	"fo": func(c nodeConfig) (http.Handler, func()) {
		f := quantilelb.FOFactory(c.eps, 0.01, c.seed)
		return build(c, f, func(float64) store.Summary { return f() })
	},
	"reservoir": func(c nodeConfig) (http.Handler, func()) {
		f := quantilelb.ReservoirFactory(c.eps, 0.01, c.seed)
		return build(c, f, func(float64) store.Summary { return f() })
	},
	"biased": func(c nodeConfig) (http.Handler, func()) {
		return build(c, quantilelb.BiasedFactory(c.eps),
			func(eps float64) store.Summary { return quantilelb.NewBiased(eps) })
	},
}

// familyNames returns the supported -family values in sorted order.
func familyNames() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// startupError prints a structured JSON error (the same envelope shape the
// HTTP tier uses for 400s) to stderr and exits non-zero, so orchestrators
// parsing process output see machine-readable failures.
func startupError(format string, args ...any) {
	msg, _ := json.Marshal(map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  "bad_request",
	})
	fmt.Fprintln(os.Stderr, string(msg))
	os.Exit(2)
}

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		family          = flag.String("family", "gk", "summary family: biased, fo, gk, kll, mlq, mrl, req, or reservoir")
		eps             = flag.Float64("eps", 0.01, "summary accuracy epsilon (single-stream and per-key default)")
		shards          = flag.Int("shards", 16, "number of lock-striped shards")
		refresh         = flag.Int("refresh", 4096, "snapshot staleness budget in updates")
		interval        = flag.Duration("interval", time.Second, "background snapshot refresh interval (0 disables)")
		storeBudget     = flag.Int64("store-budget", 256<<20, "keyed store retained-bytes budget; LRU-evicts beyond it (0 = unbounded)")
		storeTTL        = flag.Duration("store-ttl", 0, "evict keys idle for this long (0 disables)")
		storeSweep      = flag.Duration("store-sweep", 10*time.Second, "keyed store janitor interval (0 disables)")
		storePromote    = flag.Int("store-promote", 0, "exact-buffer items before a key promotes to a sketch (0 = default 128, negative disables buffering)")
		storeDir        = flag.String("store-dir", "", "keyed store persistence directory: checkpoint + write-ahead log (empty = in-memory only)")
		storeCheckpoint = flag.Duration("store-checkpoint", time.Minute, "checkpoint interval when -store-dir is set (0 = checkpoint only on shutdown)")
		storeNoWAL      = flag.Bool("store-no-wal", false, "persist checkpoints only, skipping the per-update write-ahead log")
		storeWALSync    = flag.Int("store-wal-sync", 0, "fsync the WAL every N records (0 = rely on OS page cache)")
		seed            = flag.Int64("seed", 1, "RNG seed for the randomized families (fo, kll, reservoir)")
		maxN            = flag.Int("max-n", 100_000_000, "stream-length bound for the mrl family")
	)
	flag.Parse()

	buildFamily, ok := families[*family]
	if !ok {
		startupError("unknown summary family %q: want one of %v", *family, familyNames())
	}
	if !(*eps > 0 && *eps < 1) {
		startupError("eps %v must be in (0, 1)", *eps)
	}

	handler, stop := buildFamily(nodeConfig{
		eps:             *eps,
		shards:          *shards,
		refresh:         *refresh,
		interval:        *interval,
		storeBudget:     *storeBudget,
		storeTTL:        *storeTTL,
		storeSweep:      *storeSweep,
		storePromote:    *storePromote,
		storeDir:        *storeDir,
		storeCheckpoint: *storeCheckpoint,
		storeNoWAL:      *storeNoWAL,
		storeWALSync:    *storeWALSync,
		seed:            *seed,
		maxN:            *maxN,
	})

	log.Printf("quantileserver listening on %s (family=%s eps=%g shards=%d store-budget=%d)",
		*addr, *family, *eps, *shards, *storeBudget)
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
// runs stop, which writes the store's final checkpoint. It returns the
// listener's error if serving fails first (after running stop as well).
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
		log.Printf("quantileserver: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		err = srv.Shutdown(ctx)
		cancel()
	}
	stop()
	return err
}

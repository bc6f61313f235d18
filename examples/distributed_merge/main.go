// Distributed aggregation on the real tier: the "balancing parallel
// computations" use case from Section 1 of the paper, run end to end through
// internal/cluster — the same code paths cmd/quantileserver and
// cmd/quantileagg serve in production, wired up in-process with httptest so
// the example is self-contained.
//
// Three writer nodes (sharded GK summaries behind the real HTTP handler)
// ingest differently skewed slices of the key space, as happens when the
// upstream data is range- or time-partitioned. An aggregator pulls each
// node's binary /v1/snapshot (ETag'd, so an idle node ships zero bytes) and
// merges them under the COMBINE rule eps_global = max_i eps_i — distribution
// adds no error. The globally merged summary then drives range partitioning
// for the next stage: each partition receives an approximately equal share
// of the data, computed from a few hundred shipped items instead of a
// shuffle of the raw data.
//
// The node-to-node push path is shown too: a worker that finishes a local
// batch PRUNEs its summary to cap the message size and POSTs it to a node's
// /v1/merge endpoint.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"

	quantilelb "quantilelb"
	"quantilelb/internal/cluster"
)

func main() {
	const (
		nodes     = 3
		workers   = 15 // producers, spread over the nodes
		perWorker = 100_000
		eps       = 0.01
		parts     = 8
	)

	// Start the writer tier: three real quantileserver handlers.
	urls := make([]string, nodes)
	sources := make([]cluster.Source, nodes)
	for i := range urls {
		s := quantilelb.NewSharded(quantilelb.GKFactory(eps), 8)
		srv := httptest.NewServer(cluster.NewServerHandler(s))
		defer srv.Close()
		urls[i] = srv.URL
		// Fresh pulls keep the example deterministic; production aggregators
		// rely on each node's AutoRefresh instead.
		sources[i] = &cluster.HTTPSource{URL: srv.URL, Fresh: true}
	}

	// Each worker sees a differently skewed slice of the key space and ships
	// batches to its node over HTTP.
	var all []float64
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		batch := make([]float64, perWorker)
		for i := range batch {
			batch[i] = float64(w*100) + rng.ExpFloat64()*50
		}
		all = append(all, batch...)
		postBatch(urls[w%nodes], batch)
	}

	// One more producer pushes a pre-built summary instead of raw items:
	// PRUNE caps the shipped message at b+1 tuples for an extra 1/(2b) of
	// error (b = 1/(2eps) keeps the budget growth at exactly eps).
	local := quantilelb.NewGK(eps)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < perWorker; i++ {
		x := 1500 + rng.ExpFloat64()*50
		local.Update(x)
		all = append(all, x)
	}
	local.Prune(int(1 / (2 * eps)))
	payload, err := quantilelb.Snapshot(local)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(urls[0]+"/v1/merge", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("POST /v1/merge: status %s", resp.Status))
	}
	fmt.Printf("pushed a pruned %d-tuple summary of %d items to node 0 via POST /v1/merge (%d bytes)\n",
		local.StoredCount(), perWorker, len(payload))

	// The aggregation tier: pull every node's snapshot and merge.
	agg := cluster.New(sources...)
	if err := agg.PullOnce(context.Background()); err != nil {
		panic(err)
	}
	total := (workers + 1) * perWorker
	fmt.Printf("%d nodes x pulled snapshots = %d items covered globally (ingested %d)\n",
		nodes, agg.Count(), total)
	fmt.Printf("global view retains %d items (%.4f%% of the data)\n\n",
		agg.StoredCount(), 100*float64(agg.StoredCount())/float64(total))

	// A second pull without new writes moves no bytes: every node answers
	// 304 off the ETag.
	if err := agg.PullOnce(context.Background()); err != nil {
		panic(err)
	}
	for _, st := range agg.Status() {
		fmt.Printf("peer %-28s healthy=%-5t kind=%s n=%-7d payload=%dB fetches=%d 304s=%d\n",
			st.Name, st.Healthy, st.Kind, st.N, st.PayloadBytes, st.Fetches, st.NotModified)
	}

	// Choose partition boundaries at the i/parts quantiles of the global view.
	boundaries := make([]float64, 0, parts-1)
	for i := 1; i < parts; i++ {
		b, _ := agg.Query(float64(i) / float64(parts))
		boundaries = append(boundaries, b)
	}
	fmt.Printf("\npartition boundaries: %.1f\n\n", boundaries)

	// Verify balance against the raw data.
	sort.Float64s(all)
	prev := 0
	fmt.Printf("%-12s %-12s %-10s\n", "partition", "items", "share")
	for i := 0; i <= len(boundaries); i++ {
		hi := len(all)
		if i < len(boundaries) {
			hi = sort.SearchFloat64s(all, boundaries[i])
		}
		count := hi - prev
		fmt.Printf("%-12d %-12d %-10.2f%%\n", i, count, 100*float64(count)/float64(len(all)))
		prev = hi
	}
	fmt.Println("\neach partition receives close to an equal share, so the next parallel stage")
	fmt.Println("is balanced — computed from pulled wire snapshots instead of a shuffle of the raw data.")
}

// postBatch ships one JSON batch to a node's /v1/update endpoint.
func postBatch(url string, batch []float64) {
	body, err := json.Marshal(batch)
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("POST /v1/update: status %s", resp.Status))
	}
}

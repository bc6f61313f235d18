package main

// Boot tests for the randomized fo family over the /v1 API: the sharded
// single-stream path, the keyed store, the snapshot/merge wire round trip,
// and crash-safe persistence (keyed updates survive a stop + reboot from the
// same -store-dir, since the KindFO payload carries the generator state).

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func foConfig(dir string) nodeConfig {
	cfg := testConfig()
	cfg.storeDir = dir
	return cfg
}

func postText(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s status = %d: %s", url, resp.StatusCode, msg)
	}
}

func getMedian(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Value float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results from %s: %+v", url, out.Results)
	}
	return out.Results[0].Value
}

// TestFOServerPersistenceAcrossReboot ingests into the keyed store of an fo
// node backed by a persistence directory, shuts the node down, boots a fresh
// node on the same directory, and requires the restored key to answer with
// the same accuracy — the full checkpoint/WAL/KindFO-decode path end to end.
func TestFOServerPersistenceAcrossReboot(t *testing.T) {
	dir := t.TempDir()

	handler, stop := families["fo"](foConfig(dir))
	srv := httptest.NewServer(handler)
	var batch strings.Builder
	for i := 1; i <= 5000; i++ {
		batch.WriteString(strconv.Itoa(i))
		batch.WriteByte(' ')
	}
	postText(t, srv.URL+"/v1/update", batch.String())
	if v := getMedian(t, srv.URL+"/v1/quantile?phi=0.5&fresh=1"); v < 2200 || v > 2800 {
		t.Fatalf("single-stream median = %v, want ~2500", v)
	}
	postText(t, srv.URL+"/v1/k/latency/update", batch.String())
	before := getMedian(t, srv.URL+"/v1/k/latency/quantile?phi=0.5")
	if before < 2200 || before > 2800 {
		t.Fatalf("keyed median = %v, want ~2500", before)
	}
	srv.Close()
	stop() // final checkpoint + WAL close

	handler2, stop2 := families["fo"](foConfig(dir))
	defer stop2()
	srv2 := httptest.NewServer(handler2)
	defer srv2.Close()
	after := getMedian(t, srv2.URL+"/v1/k/latency/quantile?phi=0.5")
	if after < 2200 || after > 2800 {
		t.Fatalf("restored keyed median = %v, want ~2500", after)
	}
	// The restored summary keeps ingesting: push the distribution upward and
	// require the median to move (the resumed sampler is live, not a husk).
	var more strings.Builder
	for i := 10_001; i <= 20_000; i++ {
		more.WriteString(strconv.Itoa(i))
		more.WriteByte(' ')
	}
	postText(t, srv2.URL+"/v1/k/latency/update", more.String())
	moved := getMedian(t, srv2.URL+"/v1/k/latency/quantile?phi=0.5")
	if moved <= after {
		t.Fatalf("median did not move after post-restore ingest: %v -> %v", after, moved)
	}
}

// TestFOServerSnapshotMerge round-trips the single-stream KindFO payload
// between two fo nodes through GET /v1/snapshot and POST /v1/merge — the
// distributed tier's fan-in path.
func TestFOServerSnapshotMerge(t *testing.T) {
	handlerA, stopA := families["fo"](testConfig())
	defer stopA()
	srvA := httptest.NewServer(handlerA)
	defer srvA.Close()
	handlerB, stopB := families["fo"](testConfig())
	defer stopB()
	srvB := httptest.NewServer(handlerB)
	defer srvB.Close()

	var batch strings.Builder
	for i := 1; i <= 3000; i++ {
		batch.WriteString(strconv.Itoa(i))
		batch.WriteByte(' ')
	}
	postText(t, srvA.URL+"/v1/update", batch.String())

	resp, err := http.Get(srvA.URL + "/v1/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(payload) == 0 {
		t.Fatalf("snapshot status = %d, %d bytes", resp.StatusCode, len(payload))
	}

	resp, err = http.Post(srvB.URL+"/v1/merge", "application/octet-stream", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status = %d", resp.StatusCode)
	}
	if v := getMedian(t, srvB.URL+"/v1/quantile?phi=0.5&fresh=1"); v < 1200 || v > 1800 {
		t.Fatalf("merged median = %v, want ~1500", v)
	}
}

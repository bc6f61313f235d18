package main

// Graceful shutdown: this test binary, re-executed as the server, is sent
// SIGTERM after acknowledged updates. It must exit 0 with the store's final
// checkpoint written, so the directory reopens with every update counted
// once and no update record left in store.wal to replay.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"quantilelb/internal/store"
)

// serverMainEnv, when set, makes the test binary run main with the
// variable's value as its flags instead of running tests.
const serverMainEnv = "QUANTILESERVER_TEST_MAIN"

func TestMain(m *testing.M) {
	if args := os.Getenv(serverMainEnv); args != "" {
		os.Args = append([]string{"quantileserver"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSIGTERMWritesFinalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	// -store-checkpoint 0 checkpoints only at shutdown, so a skipped final
	// checkpoint would leave every update in store.wal.
	cmd.Env = append(os.Environ(), serverMainEnv+"=-addr "+addr+" -store-dir "+dir+
		" -store-checkpoint 0 -interval 0 -store-sweep 0")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(base + "/v1/store/stats")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("server never answered: %v\n%s", err, logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	want := map[string]int{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i%5)
		resp, err := http.Post(base+"/v1/k/"+key+"/update", "text/plain", strings.NewReader("1,2,3"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
		want[key] += 3
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exit after SIGTERM: %v\n%s", err, logs.String())
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range want {
		if got := st.Count(k); got != n {
			t.Errorf("key %q counts %d after restart, want %d", k, got, n)
		}
	}
	if n := st.Stats().WALReplayed; n != 0 {
		t.Errorf("store.wal held %d update records: the final checkpoint did not run", n)
	}
}

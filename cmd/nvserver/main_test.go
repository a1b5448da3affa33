package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServeAndLoad runs serve mode with a -serve-for limit in-process,
// round-trips a PUT and a GET through a client, and checks the server
// stops on its own and shuts down cleanly.
func TestServeAndLoad(t *testing.T) {
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	var serveOut strings.Builder
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-listen", addr, "-serve-for", "1s",
			"-kind", "skiplist", "-shards", "2", "-size", "2048"}, &serveOut)
	}()
	// Wait for the socket to appear.
	sockPath := strings.TrimPrefix(addr, "unix:")
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := os.Stat(sockPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server socket never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(42, 4242); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, ok, err := cl.Get(42); err != nil || !ok || v != 4242 {
		t.Fatalf("get: %d %v %v", v, ok, err)
	}
	cl.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
	if !strings.HasSuffix(serveOut.String(), "shut down cleanly\n") {
		t.Fatalf("serve output:\n%s", serveOut.String())
	}
}

// mustRefuse runs nvserver with args in serve mode and fails the test
// unless it returns an error before it starts serving.
func mustRefuse(t *testing.T, args ...string) error {
	t.Helper()
	sock := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	var out strings.Builder
	err := run(append([]string{"-listen", sock, "-serve-for", "1ms"}, args...), &out)
	if err == nil {
		t.Fatalf("args %v accepted", args)
	}
	if strings.Contains(out.String(), "serving") {
		t.Fatalf("args %v refused only after the server listened:\n%s", args, out.String())
	}
	return err
}

// TestBadFlags pins flag validation: bad store settings fail before the
// server listens, and the modes nvserver no longer has are unknown flags,
// not ignored ones.
func TestBadFlags(t *testing.T) {
	mustRefuse(t, "-policy", "bogus")
	mustRefuse(t, "-policy", "none") // not durable: the server acks writes as durable
	mustRefuse(t, "-profile", "bogus")
	mustRefuse(t, "-kind", "bogus")
	mustRefuse(t, "-shards", "0") // the engine has at least one shard
	mustRefuse(t, "-sync")
	mustRefuse(t, "-ckpt-bytes", "4096")
	for _, gone := range []string{"-load", "-selftest", "-crashsmoke", "-rate", "-maxdelay"} {
		err := mustRefuse(t, gone, "1")
		if !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: %v, want an undefined-flag error", gone, err)
		}
	}
}

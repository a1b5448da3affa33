package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// serveInProcess runs serve mode in-process with args and a 1 s -serve-for
// limit, and returns a client on its socket, the run's result channel and
// its output. It dials until the server answers: the socket file exists
// from bind on, but connections are refused until listen.
func serveInProcess(t *testing.T, args ...string) (*server.Client, chan error, *strings.Builder) {
	t.Helper()
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	serveOut := &strings.Builder{}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run(append([]string{"-listen", addr, "-serve-for", "1s"}, args...), serveOut)
	}()
	deadline := time.Now().Add(3 * time.Second)
	for {
		cl, err := server.Dial(addr)
		if err == nil {
			return cl, serveErr, serveOut
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never answered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAndLoad runs serve mode with a -serve-for limit in-process,
// round-trips a PUT and a GET through a client, and checks the server
// stops on its own and shuts down cleanly.
func TestServeAndLoad(t *testing.T) {
	cl, serveErr, serveOut := serveInProcess(t, "-kind", "skiplist", "-shards", "2", "-size", "2048")
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

// TestWaitFlagReachesPrimary: -wait 1 with no replica attached makes every
// write fail typed once -wait-timeout passes, and STATS reports the quorum
// — the flag reaches the replication primary through the store's config.
func TestWaitFlagReachesPrimary(t *testing.T) {
	cl, serveErr, serveOut := serveInProcess(t, "-wait", "1", "-wait-timeout", "50ms")
	if err := cl.Put(1, 1); !errors.Is(err, server.ErrWait) {
		t.Fatalf("PUT with no replica under -wait 1: %v, want server.ErrWait", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["repl_wait_k"] != 1 {
		t.Fatalf("repl_wait_k %d, want 1", st["repl_wait_k"])
	}
	cl.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
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
	for _, gone := range []string{"-load", "-selftest", "-crashsmoke", "-rate", "-maxdelay", "-maxbatch"} {
		err := mustRefuse(t, gone, "1")
		if !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: %v, want an undefined-flag error", gone, err)
		}
	}
}

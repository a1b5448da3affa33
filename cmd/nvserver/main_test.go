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

// TestReadsAppendNoWAL: on a -data -sync server that has taken a PUT load,
// a window of GETs, MGETs and a whole-range SCAN leaves STATS wal_bytes and
// wal_records where the PUTs left them — a read appends nothing to the log.
// The reads take well under the 2 s the server runs for.
func TestReadsAppendNoWAL(t *testing.T) {
	const keys = 2048
	for _, kind := range []string{"hash", "skiplist"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			cl, serveErr, serveOut := serveInProcess(t, "-kind", kind, "-data", t.TempDir(), "-sync", "-serve-for", "2s")
			// Pipelined rounds of up to 100 requests, well inside the
			// server's per-connection window.
			round := func(send func(k uint64) error, check func(k uint64, r server.Reply)) {
				for lo := uint64(1); lo <= keys; lo += 100 {
					hi := min(lo+99, keys)
					for k := lo; k <= hi; k++ {
						if err := send(k); err != nil {
							t.Fatal(err)
						}
					}
					if err := cl.Flush(); err != nil {
						t.Fatal(err)
					}
					for k := lo; k <= hi; k++ {
						r, err := cl.ReadReply()
						if err != nil || r.IsErr() {
							t.Fatalf("key %d: %v %s", k, err, r.Err)
						}
						check(k, r)
					}
				}
			}
			round(func(k uint64) error { return cl.SendPut(k, k*3) }, func(uint64, server.Reply) {})
			round(func(k uint64) error {
				if k%7 != 0 {
					return cl.SendGet(k)
				}
				return cl.SendPut(k, k*3)
			}, func(uint64, server.Reply) {})
			wal := func() (bytes, records uint64) {
				st, err := cl.Stats()
				if err != nil {
					t.Fatal(err)
				}
				return st["wal_bytes"], st["wal_records"]
			}
			b0, r0 := wal()
			if b0 == 0 || r0 == 0 {
				t.Fatalf("the PUT load logged %d bytes in %d records", b0, r0)
			}

			round(cl.SendGet, func(k uint64, r server.Reply) {
				if !r.Found || r.Value != k*3 {
					t.Fatalf("GET %d = (%d, %v), want (%d, true)", k, r.Value, r.Found, k*3)
				}
			})
			round(func(k uint64) error { return cl.SendMGet([]uint64{k, k + keys}) }, func(k uint64, r server.Reply) {
				if len(r.Array) != 2 {
					t.Fatalf("MGET %d: %d replies, want 2", k, len(r.Array))
				}
			})
			ks, vs, err := cl.Scan(1, 1<<61-1, keys)
			if err != nil {
				t.Fatal(err)
			}
			if len(ks) != keys {
				t.Fatalf("SCAN returned %d pairs, want %d", len(ks), keys)
			}
			for i, k := range ks {
				if vs[i] != k*3 {
					t.Fatalf("SCAN: key %d = %d, want %d", k, vs[i], k*3)
				}
			}
			if b, r := wal(); b != b0 || r != r0 {
				t.Fatalf("the read window appended %d WAL bytes in %d records, want 0 and 0", b-b0, r-r0)
			}
			cl.Close()
			if err := <-serveErr; err != nil {
				t.Fatalf("serve: %v\n%s", err, serveOut.String())
			}
		})
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

package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSelfTest runs the full serve+load self-test in-process.
func TestSelfTest(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-selftest", "-conns", "2", "-pipeline", "4",
		"-ops", "2000", "-range", "1024", "-shards", "4"}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "selftest: ok") {
		t.Fatalf("unexpected output:\n%s", sb.String())
	}
}

// TestSelfTestJSON writes the load result as a BenchDoc.
func TestSelfTestJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	var sb strings.Builder
	err := run([]string{"-selftest", "-conns", "2", "-pipeline", "4",
		"-ops", "1000", "-range", "512", "-json", path, "-label", "test"}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"srv-load"`, `"p99_us"`, `"label": "test"`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("doc missing %s:\n%s", want, buf)
		}
	}
}

// TestServeAndLoad exercises the two-process shape in one process: serve
// mode with a time limit, load mode against it.
func TestServeAndLoad(t *testing.T) {
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	var serveOut strings.Builder
	var wg sync.WaitGroup
	wg.Add(1)
	serveErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		serveErr <- run([]string{"-listen", addr, "-serve-for", "2s",
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
			t.Fatalf("server socket never appeared\n%s", serveOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var loadOut strings.Builder
	if err := run([]string{"-load", "-connect", addr, "-conns", "2",
		"-pipeline", "4", "-ops", "1500", "-workload", "E", "-range", "1024",
		"-prefill"}, &loadOut); err != nil {
		t.Fatalf("load: %v\n%s", err, loadOut.String())
	}
	if !strings.Contains(loadOut.String(), "0 errors") {
		t.Fatalf("load output:\n%s", loadOut.String())
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
	if !strings.Contains(serveOut.String(), "shut down cleanly") {
		t.Fatalf("serve output:\n%s", serveOut.String())
	}
}

// TestBadFlags pins flag validation.
func TestBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-selftest", "-policy", "bogus"}, &sb); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run([]string{"-selftest", "-policy", "none", "-ops", "10"}, &sb); err == nil {
		t.Fatal("non-durable policy accepted for serving")
	}
	if err := run([]string{"-selftest", "-profile", "bogus"}, &sb); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"-selftest", "-load"}, &sb); err == nil {
		t.Fatal("-selftest -load accepted")
	}
	if err := run([]string{"-selftest", "-kind", "bogus", "-ops", "10"}, &sb); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Group commit has no clock: the flag that set one is gone, not ignored.
	if err := run([]string{"-selftest", "-maxdelay", "1ms", "-ops", "10"}, &sb); err == nil {
		t.Fatal("-maxdelay accepted")
	}
}

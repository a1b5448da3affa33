package server

// End-to-end degraded-mode serving: a disk fault under the store must
// surface to network clients as a typed ERR DEGRADED refusal — never a
// silent OK — while reads, STATS, and existing connections keep working.
// Plus the connection-hygiene satellites: server idle/write deadlines and
// client-side timeouts.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
	"repro/internal/store"
	"repro/internal/wire"
)

// startFaultServer is startServer over a durable store whose filesystem
// runs the given errfs schedule.
func startFaultServer(t *testing.T, schedule string, scfg Config) (string, *Server) {
	t.Helper()
	if scfg.MaxConns == 0 {
		scfg.MaxConns = 8
	}
	efs, err := vfs.NewErrFS(vfs.OS, schedule, 1)
	if err != nil {
		t.Fatalf("NewErrFS(%q): %v", schedule, err)
	}
	st, err := store.Open(store.Config{
		Kind: core.KindSkiplist, Profile: pmem.ProfileZero,
		SizeHint: 1 << 12, MaxSessions: scfg.MaxConns + 8,
		Dir: t.TempDir(), SyncFence: true, FS: efs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // runs after the server's cleanup
	return serveStore(t, st, scfg)
}

func dialVariant(t *testing.T, addr string, bin bool) *Client {
	t.Helper()
	var opts []DialOption
	if bin {
		opts = append(opts, WithBinaryProto())
	}
	cl, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestServerDegradedOnDiskFault drives writes over the wire until the
// injected fsync failure bites, on both protocols.
func TestServerDegradedOnDiskFault(t *testing.T) {
	for _, bin := range []bool{false, true} {
		name := "text"
		if bin {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			addr, srv := startFaultServer(t, "sync~wal@8=eio", Config{})
			cl := dialVariant(t, addr, bin)

			var acked uint64
			var derr error
			for k := uint64(1); k <= 500; k++ {
				if err := cl.Put(k, k*10); err != nil {
					derr = err
					break
				}
				acked = k
			}
			if derr == nil {
				t.Fatal("disk fault never surfaced: 500 puts all acked")
			}
			if !errors.Is(derr, ErrDegraded) {
				t.Fatalf("refusal is %v, want ErrDegraded", derr)
			}
			if acked == 0 {
				t.Fatal("no put acked before the fault")
			}
			if srv.DegradedErr() == nil {
				t.Fatal("server does not report degradation")
			}

			// Same connection keeps serving reads...
			if v, ok, err := cl.Get(1); err != nil || !ok || v != 10 {
				t.Fatalf("read on degraded server: %d %v %v", v, ok, err)
			}
			// ...refuses further writes with the same typed error...
			if err := cl.Put(9999, 1); !errors.Is(err, ErrDegraded) {
				t.Fatalf("write after degradation: %v, want ErrDegraded", err)
			}
			// ...and exposes the state in STATS (text protocol only).
			if !bin {
				stats, err := cl.Stats()
				if err != nil {
					t.Fatalf("stats: %v", err)
				}
				if stats["degraded"] != 1 {
					t.Fatalf("stats degraded = %d, want 1", stats["degraded"])
				}
			}
			// A fresh connection is refused writes too: degradation is a
			// store condition, not per-connection state.
			cl2 := dialVariant(t, addr, bin)
			if err := cl2.Put(4242, 1); !errors.Is(err, ErrDegraded) {
				t.Fatalf("write on fresh conn: %v, want ErrDegraded", err)
			}
		})
	}
}

// TestServerIdleTimeout: a connection that stops sending requests is
// closed once the idle clock runs out, and an active one is not.
func TestServerIdleTimeout(t *testing.T) {
	addr, _, _ := startServer(t, core.KindSkiplist, 0, Config{IdleTimeout: 100 * time.Millisecond})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Activity re-arms the clock: several pings spaced under the limit.
	for i := 0; i < 3; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		time.Sleep(40 * time.Millisecond)
	}
	// Go idle past the limit: the server hangs up.
	time.Sleep(300 * time.Millisecond)
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded on a connection the server should have closed")
	}
}

// TestClientTimeout: a stalled server (accepts, reads, never replies)
// must not hang the client — WithDialTimeout bounds the read and surfaces the
// typed ErrTimeout.
func TestClientTimeout(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "stall.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()

	cl, err := Dial("unix:"+sock, WithDialTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping against stalled server: %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// countConn counts deadline updates and socket writes on the server's end
// of a connection.
type countConn struct {
	net.Conn
	readArms, writeArms, writes atomic.Int32
}

func (c *countConn) SetReadDeadline(t time.Time) error {
	c.readArms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *countConn) SetWriteDeadline(t time.Time) error {
	c.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestDeadlinesPerBurst: the idle clock is re-armed when the server is
// about to wait on the socket, not per request — 64 pipelined requests
// delivered in one write cost at most two read-deadline updates (one would
// do; the bound leaves room for the burst's tail arriving separately) —
// and the write deadline is armed once per socket write, not per reply.
func TestDeadlinesPerBurst(t *testing.T) {
	const n = 64
	for _, bin := range []bool{false, true} {
		_, srv, _ := startServer(t, core.KindHash, 4, Config{
			IdleTimeout: time.Minute, WriteTimeout: time.Minute,
		})
		client, server := net.Pipe()
		cc := &countConn{Conn: server}
		done := make(chan struct{})
		go func() {
			srv.handle(cc)
			close(done)
		}()

		var burst []byte
		replyLen := len("+OK\r\n")
		if bin {
			burst = append(burst, wire.Preamble...)
		}
		for k := uint64(1); k <= n; k++ {
			if bin {
				burst = binary.LittleEndian.AppendUint32(burst, 17)
				burst = append(burst, binOpPut)
				burst = binary.LittleEndian.AppendUint64(burst, k)
				burst = binary.LittleEndian.AppendUint64(burst, k*3)
			} else {
				burst = fmt.Appendf(burst, "PUT %d %d\r\n", k, k*3)
			}
		}
		if _, err := client.Write(burst); err != nil {
			t.Fatal(err)
		}
		replies := make([]byte, n*replyLen)
		if _, err := io.ReadFull(client, replies); err != nil {
			t.Fatalf("bin=%v: reading %d replies: %v", bin, n, err)
		}
		if bin {
			for i := 0; i < n; i++ {
				if r := replies[i*5 : i*5+5]; r[0] != 1 || r[4] != binTagOK {
					t.Fatalf("bin reply %d = % x, want an OK frame", i, r)
				}
			}
		} else if want := strings.Repeat("+OK\r\n", n); string(replies) != want {
			t.Fatalf("text replies %q", replies)
		}
		if arms := cc.readArms.Load(); arms < 1 || arms > 2 {
			t.Errorf("bin=%v: %d read-deadline updates for one burst of %d requests, want 1 or 2", bin, arms, n)
		}
		if arms, writes := cc.writeArms.Load(), cc.writes.Load(); arms != writes || writes > n {
			t.Errorf("bin=%v: %d write-deadline updates for %d socket writes (%d replies), want one per write", bin, arms, writes, n)
		}
		client.Close()
		<-done
	}
}

// TestServerIdleTimeoutPartialFrame: a client that delivers part of a
// request and stalls is cut like one that delivers nothing — buffered
// bytes that do not make a whole frame do not excuse the read from the
// idle clock.
func TestServerIdleTimeoutPartialFrame(t *testing.T) {
	for _, bin := range []bool{false, true} {
		addr, _, _ := startServer(t, core.KindSkiplist, 0, Config{IdleTimeout: 100 * time.Millisecond})
		network, address := wire.SplitAddr(addr)
		c, err := net.Dial(network, address)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// One whole PING and the first bytes of a PUT, in one write.
		msg := []byte("PING\r\nPUT 7 ")
		pong := "+PONG\r\n"
		if bin {
			msg = []byte{wire.Magic, wire.Version, 1, 0, 0, 0, binOpPing, 17, 0, 0, 0, binOpPut, 7, 0}
			pong = "\x01\x00\x00\x00\x00"
		}
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(pong))
		if _, err := io.ReadFull(c, got); err != nil || string(got) != pong {
			t.Fatalf("bin=%v: ping reply %q %v", bin, got, err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(got); err != io.EOF {
			t.Fatalf("bin=%v: read %d bytes, err %v; want EOF from a server that hung up on the stalled frame", bin, n, err)
		}
	}
}

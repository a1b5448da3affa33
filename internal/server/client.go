package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Errors the client classifies out of failed round trips (errors.Is).
var (
	// ErrDegraded reports a write the server refused because its durable
	// backend latched a disk failure (the "-ERR DEGRADED ..." reply): the
	// store is read-only until restarted and recovered, and the write was
	// NOT made durable.
	ErrDegraded = errors.New("server: store degraded")
	// ErrTimeout reports a dial, flush, or reply read that exceeded the
	// client's timeout (WithDialTimeout).
	ErrTimeout = errors.New("server: timeout")
	// ErrWait reports a write the server acknowledged as NOT yet
	// replicated (the "-ERR WAIT ..." reply): the replica quorum did not
	// confirm the write's fence group in time. Unlike ErrDegraded the
	// write IS durable on the primary; retrying after the replicas catch
	// up succeeds.
	ErrWait = errors.New("server: replica quorum not reached")
	// ErrReplica reports a write sent to a read-only replica (the
	// "-ERR REPLICA ..." reply): writes go to the primary.
	ErrReplica = errors.New("server: replica is read-only")
)

// mapErr folds transport deadline expiry into ErrTimeout; other errors
// pass through untouched.
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Client is a pipelining protocol client: Send* methods queue commands in
// the write buffer, Flush pushes them to the wire, and the Read* methods
// consume replies in send order. The synchronous helpers (Put, Get, ...)
// wrap a send+flush+read pair. A Client is not safe for concurrent use
// (but its read and write sides may be driven by one goroutine each).
//
// A Client speaks either the text protocol (the default) or the binary
// frame protocol (WithBinaryProto) through the server's own codec; both
// expose the same surface and parse into the same Reply struct.
type Client struct {
	c     net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	codec codec
	// timeout bounds every Flush and reply read (WithDialTimeout): an
	// operation that stalls longer fails with an error matching ErrTimeout
	// and the connection should be abandoned.
	timeout time.Duration
	// reads, when non-empty, carries the replica connections the
	// synchronous read helpers (Get, Scan, Stats-free reads) rotate
	// through (WithReadFrom); writes always use the primary connection.
	reads    []*Client
	nextRead int
}

// ReadFrom selects where a Client's synchronous read helpers go when
// replica addresses are configured (WithReadFrom + WithReplicaAddrs).
type ReadFrom uint8

const (
	// ReadPrimary sends every operation to the dialed address (the
	// default): reads observe the client's own writes.
	ReadPrimary ReadFrom = iota
	// ReadReplica rotates synchronous reads across the replica
	// addresses — read scaling with the replication stream's staleness
	// contract: a read may lag the primary by the replica's current lag,
	// and read-your-writes holds only per replica connection, not across
	// the fleet.
	ReadReplica
	// ReadNearest routes synchronous reads to the one candidate (the
	// primary or any replica) with the lowest dial-time ping round trip.
	ReadNearest
)

// DialOption configures Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	bin      bool
	timeout  time.Duration
	readFrom ReadFrom
	replicas []string
}

// WithBinaryProto negotiates the length-prefixed binary frame protocol
// instead of the text protocol.
func WithBinaryProto() DialOption {
	return func(c *dialConfig) { c.bin = true }
}

// WithDialTimeout bounds the dial itself and arms the client with the
// same timeout on every Flush and reply read. Either one exceeding d fails
// with an error matching ErrTimeout.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithReadFrom selects the read routing policy. ReadReplica and
// ReadNearest need the replica fleet from WithReplicaAddrs; with no
// replicas configured every policy degenerates to ReadPrimary.
func WithReadFrom(rf ReadFrom) DialOption {
	return func(c *dialConfig) { c.readFrom = rf }
}

// WithReplicaAddrs names the replica fleet for WithReadFrom.
func WithReplicaAddrs(addrs ...string) DialOption {
	return func(c *dialConfig) { c.replicas = append(c.replicas, addrs...) }
}

// Dial connects to a server address ("unix:/path", "tcp:host:port", or
// bare "host:port"). With no options it is the plain text-protocol
// connection it always was; options select the binary protocol, a
// timeout, and read routing across replicas.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	cl, err := dialOne(addr, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.readFrom == ReadPrimary || len(cfg.replicas) == 0 {
		return cl, nil
	}
	var reads []*Client
	for _, raddr := range cfg.replicas {
		rc, err := dialOne(raddr, cfg)
		if err != nil {
			cl.Close()
			for _, c := range reads {
				c.Close()
			}
			return nil, err
		}
		reads = append(reads, rc)
	}
	if cfg.readFrom == ReadNearest {
		// One ping round trip per candidate (the primary included); the
		// winner takes all synchronous reads.
		best, bestRTT := -1, time.Duration(0)
		for i, c := range append([]*Client{cl}, reads...) {
			start := time.Now()
			if c.Ping() != nil {
				continue
			}
			if rtt := time.Since(start); best < 0 || rtt < bestRTT {
				best, bestRTT = i, rtt
			}
		}
		winner := cl
		if best > 0 {
			winner = reads[best-1]
		}
		for _, c := range reads {
			if c != winner {
				c.Close()
			}
		}
		if winner == cl {
			return cl, nil
		}
		reads = []*Client{winner}
	}
	cl.reads = reads
	return cl, nil
}

func dialOne(addr string, cfg dialConfig) (*Client, error) {
	network, address := wire.SplitAddr(addr)
	c, err := net.DialTimeout(network, address, cfg.timeout) // 0: no timeout
	if err != nil {
		return nil, mapErr(err)
	}
	cl := &Client{
		c:       c,
		br:      bufio.NewReaderSize(c, 64<<10),
		bw:      bufio.NewWriterSize(c, 64<<10),
		codec:   &textCodec{},
		timeout: cfg.timeout,
	}
	if cfg.bin {
		// The preamble reaches the server with the first Flush.
		cl.codec = &binCodec{}
		cl.bw.WriteString(wire.Preamble)
	}
	return cl, nil
}

// readClient picks the connection for one synchronous read.
func (cl *Client) readClient() *Client {
	if len(cl.reads) == 0 {
		return cl
	}
	rc := cl.reads[cl.nextRead%len(cl.reads)]
	cl.nextRead++
	return rc
}

func (cl *Client) armRead() {
	if cl.timeout > 0 {
		cl.c.SetReadDeadline(time.Now().Add(cl.timeout))
	}
}

func (cl *Client) armWrite() {
	if cl.timeout > 0 {
		cl.c.SetWriteDeadline(time.Now().Add(cl.timeout))
	}
}

// Close closes the connection (and any replica read connections).
func (cl *Client) Close() error {
	for _, rc := range cl.reads {
		rc.Close()
	}
	return cl.c.Close()
}

// Flush pushes queued commands to the wire.
func (cl *Client) Flush() error {
	cl.armWrite()
	return mapErr(cl.bw.Flush())
}

// send queues one request in the client's protocol.
func (cl *Client) send(r request) error {
	_, err := cl.bw.Write(cl.codec.appendRequest(cl.bw.AvailableBuffer(), r))
	return err
}

// SendGet, SendPut, SendInsert, SendDel, SendUpdate queue point commands
// without allocating, in whichever protocol the client negotiated.
func (cl *Client) SendGet(k uint64) error { return cl.send(request{cmd: cmdGet, key: k}) }
func (cl *Client) SendDel(k uint64) error { return cl.send(request{cmd: cmdDel, key: k}) }
func (cl *Client) SendPut(k, v uint64) error {
	return cl.send(request{cmd: cmdPut, key: k, val: v})
}
func (cl *Client) SendInsert(k, v uint64) error {
	return cl.send(request{cmd: cmdInsert, key: k, val: v})
}
func (cl *Client) SendUpdate(k, v uint64) error {
	return cl.send(request{cmd: cmdUpdate, key: k, val: v})
}

// SendScan queues a SCAN returning at most max pairs (the server caps it
// further); a negative max is refused before anything is sent.
func (cl *Client) SendScan(lo, hi uint64, max int) error {
	if max < 0 {
		return fmt.Errorf("server: SCAN max %d is negative", max)
	}
	return cl.send(request{cmd: cmdScan, key: lo, val: hi, max: max})
}

// SendMGet queues an MGET for a set of keys.
func (cl *Client) SendMGet(keys []uint64) error { return cl.send(request{cmd: cmdMGet, keys: keys}) }

// Reply is one parsed server reply. Exactly one interpretation applies per
// command (see the protocol table in the package comment).
type Reply struct {
	// Status holds "+" replies ("OK", "PONG").
	Status string
	// Value and Found hold "$" replies ($-1 sets Found false).
	Value uint64
	Found bool
	// Int holds ":" replies.
	Int int64
	// Array holds "*" reply payload lines, verbatim without terminators.
	Array []string
	// Err holds "-ERR" replies.
	Err string
}

// IsErr reports whether the reply is a protocol-level error.
func (r Reply) IsErr() bool { return r.Err != "" }

// ReadReply consumes one reply (flushing queued commands first is the
// caller's job; the sync helpers do it). With a timeout set, the whole
// reply — including every array line — must arrive within it.
func (cl *Client) ReadReply() (Reply, error) {
	cl.armRead()
	r, err := cl.codec.readReply(cl.br)
	return r, mapErr(err)
}

// roundTrip flushes and reads one reply, folding protocol errors into err.
func (cl *Client) roundTrip() (Reply, error) {
	if err := cl.Flush(); err != nil {
		return Reply{}, err
	}
	r, err := cl.ReadReply()
	if err != nil {
		return Reply{}, err
	}
	if r.IsErr() {
		for _, t := range typedErrs {
			if msg, ok := strings.CutPrefix(r.Err, t.token); ok {
				return r, fmt.Errorf("%w:%s", t.client, msg)
			}
		}
		return r, errors.New("server: " + r.Err)
	}
	return r, nil
}

// call sends one request and round-trips it.
func (cl *Client) call(r request) (Reply, error) {
	if err := cl.send(r); err != nil {
		return Reply{}, err
	}
	return cl.roundTrip()
}

// Ping round-trips a PING.
func (cl *Client) Ping() error {
	_, err := cl.call(request{cmd: cmdPing})
	return err
}

// Put upserts key to value.
func (cl *Client) Put(k, v uint64) error {
	_, err := cl.call(request{cmd: cmdPut, key: k, val: v})
	return err
}

// Get looks up a key, on a replica connection when read routing says so.
func (cl *Client) Get(k uint64) (uint64, bool, error) {
	r, err := cl.readClient().call(request{cmd: cmdGet, key: k})
	return r.Value, r.Found, err
}

// Insert adds key with value; false if present.
func (cl *Client) Insert(k, v uint64) (bool, error) {
	r, err := cl.call(request{cmd: cmdInsert, key: k, val: v})
	return r.Int == 1, err
}

// Del removes a key; false if absent.
func (cl *Client) Del(k uint64) (bool, error) {
	r, err := cl.call(request{cmd: cmdDel, key: k})
	return r.Int == 1, err
}

// Update sets key to v if present, returning the new value.
func (cl *Client) Update(k, v uint64) (uint64, bool, error) {
	r, err := cl.call(request{cmd: cmdUpdate, key: k, val: v})
	return r.Value, r.Found, err
}

// Scan returns up to max pairs of [lo, hi] in key order, on a replica
// connection when read routing says so.
func (cl *Client) Scan(lo, hi uint64, max int) (keys, vals []uint64, err error) {
	rc := cl.readClient()
	if err := rc.SendScan(lo, hi, max); err != nil {
		return nil, nil, err
	}
	r, err := rc.roundTrip()
	if err != nil {
		return nil, nil, err
	}
	for _, line := range r.Array {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, nil, fmt.Errorf("server: bad scan entry %q", line)
		}
		ku, err1 := strconv.ParseUint(k, 10, 64)
		vu, err2 := strconv.ParseUint(v, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("server: bad scan entry %q", line)
		}
		keys = append(keys, ku)
		vals = append(vals, vu)
	}
	return keys, vals, nil
}

// Promote round-trips a PROMOTE: the server, if a replica, becomes a
// primary (failover). Idempotent on a server that already is one.
func (cl *Client) Promote() error {
	_, err := cl.call(request{cmd: cmdPromote})
	return err
}

// Stats fetches the server's counters (either protocol).
func (cl *Client) Stats() (map[string]uint64, error) {
	r, err := cl.call(request{cmd: cmdStats})
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(r.Array))
	for _, line := range r.Array {
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("server: bad stats entry %q", line)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: bad stats entry %q", line)
		}
		m[name] = n
	}
	return m, nil
}

// Quit sends QUIT and closes.
func (cl *Client) Quit() error {
	if _, err := cl.call(request{cmd: cmdQuit}); err != nil {
		return err
	}
	return cl.Close()
}

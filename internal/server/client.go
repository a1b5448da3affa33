package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

// Errors the client classifies out of failed round trips (errors.Is).
var (
	// ErrDegraded reports a write the server refused because its durable
	// backend latched a disk failure (the "-ERR DEGRADED ..." reply): the
	// store is read-only until restarted and recovered, and the write was
	// NOT made durable.
	ErrDegraded = errors.New("server: store degraded")
	// ErrTimeout reports a dial, flush, or reply read that exceeded the
	// client's timeout (WithDialTimeout / SetTimeout).
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
// (but its read and write sides may be driven by one goroutine each —
// the open-loop load generator does).
//
// A Client speaks either the text protocol (the default) or the binary
// frame protocol (WithBinaryProto / NewClientBin); both expose the same
// surface and parse into the same Reply struct.
type Client struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	bin     bool
	timeout time.Duration
	// reads, when non-empty, carries the replica connections the
	// synchronous read helpers (Get, Scan, Stats-free reads) rotate
	// through (WithReadFrom); writes always use the primary connection.
	reads    []*Client
	nextRead int
	// Frame scratch of the binary protocol, one per side because one
	// goroutine may drive each. A local array would escape through the
	// buffered reader/writer and cost a heap object per frame. wbuf holds a
	// fixed-shape request being queued; rbuf a reply's 5-byte header and a
	// payload of up to 16 bytes (every point reply), so only arrays and
	// error strings get a buffer of their own.
	wbuf [25]byte
	rbuf [5 + 16]byte
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
// same per-round-trip timeout (see SetTimeout). A dial that exceeds d
// fails with an error matching ErrTimeout.
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
	network, address := SplitAddr(addr)
	var c net.Conn
	var err error
	if cfg.timeout > 0 {
		c, err = net.DialTimeout(network, address, cfg.timeout)
	} else {
		c, err = net.Dial(network, address)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	var cl *Client
	if cfg.bin {
		cl = NewClientBin(c)
	} else {
		cl = NewClient(c)
	}
	cl.SetTimeout(cfg.timeout)
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

// DialBin connects like Dial and negotiates the binary frame protocol.
//
// Deprecated: use Dial(addr, WithBinaryProto()).
func DialBin(addr string) (*Client, error) {
	return Dial(addr, WithBinaryProto())
}

// DialTimeout connects like Dial with a dial and round-trip timeout.
//
// Deprecated: use Dial(addr, WithDialTimeout(d)).
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	return Dial(addr, WithDialTimeout(d))
}

// DialBinTimeout is DialTimeout negotiating the binary frame protocol.
//
// Deprecated: use Dial(addr, WithBinaryProto(), WithDialTimeout(d)).
func DialBinTimeout(addr string, d time.Duration) (*Client, error) {
	return Dial(addr, WithBinaryProto(), WithDialTimeout(d))
}

// SetTimeout bounds every subsequent Flush and reply read: an operation
// that stalls longer than d fails with an error matching ErrTimeout and
// the connection should be abandoned (the stream position is unknown).
// Zero restores no limit.
func (cl *Client) SetTimeout(d time.Duration) { cl.timeout = d }

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

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// NewClientBin wraps an established connection and queues the binary magic
// (it reaches the server with the first Flush).
func NewClientBin(c net.Conn) *Client {
	cl := NewClient(c)
	cl.bin = true
	cl.bw.Write([]byte{binMagic, binVersion})
	return cl
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

// Send queues one raw command line (no terminator).
func (cl *Client) Send(line string) error {
	if _, err := cl.bw.WriteString(line); err != nil {
		return err
	}
	_, err := cl.bw.WriteString("\r\n")
	return err
}

// SendGet, SendPut, SendInsert, SendDel, SendUpdate queue point commands
// without allocating the command string, in whichever protocol the client
// negotiated.
func (cl *Client) SendGet(k uint64) error {
	if cl.bin {
		return cl.sendBin1(binOpGet, k)
	}
	return cl.send1("GET", k)
}
func (cl *Client) SendDel(k uint64) error {
	if cl.bin {
		return cl.sendBin1(binOpDel, k)
	}
	return cl.send1("DEL", k)
}
func (cl *Client) SendPut(k, v uint64) error {
	if cl.bin {
		return cl.sendBin2(binOpPut, k, v)
	}
	return cl.send2("PUT", k, v)
}
func (cl *Client) SendInsert(k, v uint64) error {
	if cl.bin {
		return cl.sendBin2(binOpInsert, k, v)
	}
	return cl.send2("INSERT", k, v)
}
func (cl *Client) SendUpdate(k, v uint64) error {
	if cl.bin {
		return cl.sendBin2(binOpUpdate, k, v)
	}
	return cl.send2("UPDATE", k, v)
}

// SendScan queues a SCAN with a result cap.
func (cl *Client) SendScan(lo, hi uint64, max int) error {
	if cl.bin {
		b := cl.wbuf[:]
		binary.LittleEndian.PutUint32(b, 21)
		b[4] = binOpScan
		binary.LittleEndian.PutUint64(b[5:], lo)
		binary.LittleEndian.PutUint64(b[13:], hi)
		binary.LittleEndian.PutUint32(b[21:], uint32(max))
		_, err := cl.bw.Write(b)
		return err
	}
	var buf [96]byte
	b := append(buf[:0], "SCAN "...)
	b = strconv.AppendUint(b, lo, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, hi, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(max), 10)
	b = append(b, '\r', '\n')
	_, err := cl.bw.Write(b)
	return err
}

// SendMGet queues an MGET for a set of keys.
func (cl *Client) SendMGet(keys []uint64) error {
	if cl.bin {
		var hdr [9]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(5+8*len(keys)))
		hdr[4] = binOpMGet
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(keys)))
		if _, err := cl.bw.Write(hdr[:]); err != nil {
			return err
		}
		var kb [8]byte
		for _, k := range keys {
			binary.LittleEndian.PutUint64(kb[:], k)
			if _, err := cl.bw.Write(kb[:]); err != nil {
				return err
			}
		}
		return nil
	}
	var buf [96]byte
	b := append(buf[:0], "MGET"...)
	for _, k := range keys {
		b = append(b, ' ')
		b = strconv.AppendUint(b, k, 10)
	}
	b = append(b, '\r', '\n')
	_, err := cl.bw.Write(b)
	return err
}

// sendBin0, sendBin1, sendBin2 queue fixed-shape binary request frames.
func (cl *Client) sendBin0(op byte) error {
	b := cl.wbuf[:5]
	binary.LittleEndian.PutUint32(b, 1)
	b[4] = op
	_, err := cl.bw.Write(b)
	return err
}

func (cl *Client) sendBin1(op byte, k uint64) error {
	b := cl.wbuf[:13]
	binary.LittleEndian.PutUint32(b, 9)
	b[4] = op
	binary.LittleEndian.PutUint64(b[5:], k)
	_, err := cl.bw.Write(b)
	return err
}

func (cl *Client) sendBin2(op byte, k, v uint64) error {
	b := cl.wbuf[:21]
	binary.LittleEndian.PutUint32(b, 17)
	b[4] = op
	binary.LittleEndian.PutUint64(b[5:], k)
	binary.LittleEndian.PutUint64(b[13:], v)
	_, err := cl.bw.Write(b)
	return err
}

func (cl *Client) send1(cmd string, k uint64) error {
	var buf [64]byte
	b := append(buf[:0], cmd...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, k, 10)
	b = append(b, '\r', '\n')
	_, err := cl.bw.Write(b)
	return err
}

func (cl *Client) send2(cmd string, k, v uint64) error {
	var buf [96]byte
	b := append(buf[:0], cmd...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, k, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '\r', '\n')
	_, err := cl.bw.Write(b)
	return err
}

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
	r, err := cl.readReply()
	return r, mapErr(err)
}

func (cl *Client) readReply() (Reply, error) {
	if cl.bin {
		return cl.readBinReply()
	}
	line, err := cl.readLine()
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, errors.New("server: empty reply line")
	}
	switch line[0] {
	case '+':
		return Reply{Status: line[1:]}, nil
	case '-':
		return Reply{Err: strings.TrimPrefix(line[1:], "ERR ")}, nil
	case ':':
		n, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			return Reply{}, fmt.Errorf("server: bad integer reply %q", line)
		}
		return Reply{Int: n}, nil
	case '$':
		if line == "$-1" {
			return Reply{}, nil
		}
		v, err := strconv.ParseUint(line[1:], 10, 64)
		if err != nil {
			return Reply{}, fmt.Errorf("server: bad value reply %q", line)
		}
		return Reply{Value: v, Found: true}, nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil || n < 0 {
			return Reply{}, fmt.Errorf("server: bad array reply %q", line)
		}
		arr := make([]string, n)
		for i := 0; i < n; i++ {
			if arr[i], err = cl.readLine(); err != nil {
				return Reply{}, err
			}
		}
		return Reply{Array: arr}, nil
	}
	return Reply{}, fmt.Errorf("server: unknown reply %q", line)
}

// readBinReply parses one binary reply frame into the shared Reply shape:
// PAIRS entries render as "k v" lines and MULTI entries as "$v"/"$-1", so
// Scan and array handling work identically across protocols.
func (cl *Client) readBinReply() (Reply, error) {
	hdr, payload := cl.rbuf[:5], cl.rbuf[5:]
	if _, err := io.ReadFull(cl.br, hdr); err != nil {
		return Reply{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxBinFrame {
		return Reply{}, fmt.Errorf("server: bad binary frame length %d", n)
	}
	if int(n-1) <= len(payload) {
		payload = payload[:n-1]
	} else {
		payload = make([]byte, n-1)
	}
	if _, err := io.ReadFull(cl.br, payload); err != nil {
		return Reply{}, err
	}
	switch hdr[4] {
	case binTagOK:
		return Reply{Status: "OK"}, nil
	case binTagValue:
		if len(payload) != 8 {
			return Reply{}, errors.New("server: malformed VALUE frame")
		}
		return Reply{Value: binary.LittleEndian.Uint64(payload), Found: true}, nil
	case binTagNil:
		return Reply{}, nil
	case binTagTrue:
		return Reply{Int: 1}, nil
	case binTagFalse:
		return Reply{Int: 0}, nil
	case binTagPairs:
		if len(payload) < 4 {
			return Reply{}, errors.New("server: malformed PAIRS frame")
		}
		cnt := int(binary.LittleEndian.Uint32(payload))
		if len(payload) != 4+16*cnt {
			return Reply{}, errors.New("server: malformed PAIRS frame")
		}
		arr := make([]string, cnt)
		for i := 0; i < cnt; i++ {
			k := binary.LittleEndian.Uint64(payload[4+16*i:])
			v := binary.LittleEndian.Uint64(payload[12+16*i:])
			arr[i] = strconv.FormatUint(k, 10) + " " + strconv.FormatUint(v, 10)
		}
		return Reply{Array: arr}, nil
	case binTagMulti:
		if len(payload) < 4 {
			return Reply{}, errors.New("server: malformed MULTI frame")
		}
		cnt := int(binary.LittleEndian.Uint32(payload))
		if len(payload) != 4+9*cnt {
			return Reply{}, errors.New("server: malformed MULTI frame")
		}
		arr := make([]string, cnt)
		for i := 0; i < cnt; i++ {
			if payload[4+9*i] == 0 {
				arr[i] = "$-1"
			} else {
				arr[i] = "$" + strconv.FormatUint(binary.LittleEndian.Uint64(payload[5+9*i:]), 10)
			}
		}
		return Reply{Array: arr}, nil
	case binTagErr:
		return Reply{Err: string(payload)}, nil
	case binTagStats:
		// Render as "name value" lines, the text protocol's STATS shape,
		// so Stats() parses both protocols identically.
		if len(payload) < 4 {
			return Reply{}, errors.New("server: malformed STATS frame")
		}
		cnt := int(binary.LittleEndian.Uint32(payload))
		p := payload[4:]
		arr := make([]string, 0, cnt)
		for i := 0; i < cnt; i++ {
			if len(p) < 1 || len(p) < 1+int(p[0])+8 {
				return Reply{}, errors.New("server: malformed STATS frame")
			}
			name := string(p[1 : 1+p[0]])
			v := binary.LittleEndian.Uint64(p[1+p[0]:])
			arr = append(arr, name+" "+strconv.FormatUint(v, 10))
			p = p[1+int(p[0])+8:]
		}
		if len(p) != 0 {
			return Reply{}, errors.New("server: malformed STATS frame")
		}
		return Reply{Array: arr}, nil
	}
	return Reply{}, fmt.Errorf("server: unknown binary reply tag %d", hdr[4])
}

func (cl *Client) readLine() (string, error) {
	line, err := cl.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
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
		if msg, ok := strings.CutPrefix(r.Err, "DEGRADED"); ok {
			return r, fmt.Errorf("%w:%s", ErrDegraded, msg)
		}
		if msg, ok := strings.CutPrefix(r.Err, "WAIT"); ok {
			return r, fmt.Errorf("%w:%s", ErrWait, msg)
		}
		if msg, ok := strings.CutPrefix(r.Err, "REPLICA"); ok {
			return r, fmt.Errorf("%w:%s", ErrReplica, msg)
		}
		return r, errors.New("server: " + r.Err)
	}
	return r, nil
}

// Ping round-trips a PING.
func (cl *Client) Ping() error {
	var err error
	if cl.bin {
		err = cl.sendBin0(binOpPing)
	} else {
		err = cl.Send("PING")
	}
	if err != nil {
		return err
	}
	_, err = cl.roundTrip()
	return err
}

// Put upserts key to value.
func (cl *Client) Put(k, v uint64) error {
	if err := cl.SendPut(k, v); err != nil {
		return err
	}
	_, err := cl.roundTrip()
	return err
}

// Get looks up a key, on a replica connection when read routing says so.
func (cl *Client) Get(k uint64) (uint64, bool, error) {
	rc := cl.readClient()
	if err := rc.SendGet(k); err != nil {
		return 0, false, err
	}
	r, err := rc.roundTrip()
	return r.Value, r.Found, err
}

// Insert adds key with value; false if present.
func (cl *Client) Insert(k, v uint64) (bool, error) {
	if err := cl.SendInsert(k, v); err != nil {
		return false, err
	}
	r, err := cl.roundTrip()
	return r.Int == 1, err
}

// Del removes a key; false if absent.
func (cl *Client) Del(k uint64) (bool, error) {
	if err := cl.SendDel(k); err != nil {
		return false, err
	}
	r, err := cl.roundTrip()
	return r.Int == 1, err
}

// Update sets key to v if present, returning the new value.
func (cl *Client) Update(k, v uint64) (uint64, bool, error) {
	if err := cl.SendUpdate(k, v); err != nil {
		return 0, false, err
	}
	r, err := cl.roundTrip()
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
	var err error
	if cl.bin {
		err = cl.sendBin0(binOpPromote)
	} else {
		err = cl.Send("PROMOTE")
	}
	if err != nil {
		return err
	}
	_, err = cl.roundTrip()
	return err
}

// Stats fetches the server's counters (either protocol).
func (cl *Client) Stats() (map[string]uint64, error) {
	var err error
	if cl.bin {
		err = cl.sendBin0(binOpStats)
	} else {
		err = cl.Send("STATS")
	}
	if err != nil {
		return nil, err
	}
	r, err := cl.roundTrip()
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
	var err error
	if cl.bin {
		err = cl.sendBin0(binOpQuit)
	} else {
		err = cl.Send("QUIT")
	}
	if err != nil {
		return err
	}
	if _, err := cl.roundTrip(); err != nil {
		return err
	}
	return cl.Close()
}

package server

import (
	"bufio"
	"errors"
	"fmt"
	"strings"

	"repro/internal/batcher"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wire"
)

// cmd names a command of the request model both protocols decode into.
type cmd uint8

const (
	cmdBad cmd = iota // a malformed request; request.msg says why
	cmdPing
	cmdGet
	cmdPut
	cmdInsert
	cmdDel
	cmdUpdate
	cmdScan
	cmdMGet
	cmdStats
	cmdQuit
	cmdPromote
	cmdPSync
)

// argShape is a command's argument layout, the same on both protocols.
type argShape uint8

const (
	argNone   argShape = iota // ignores any arguments it is sent
	argKey                    // key
	argKeyVal                 // key value
	argScan                   // lo hi max (text: max optional)
	argKeys                   // key... (binary: u32 count first)
	argRaw                    // opaque payload (binary only)
)

// commands is the command table: each command's text name, binary opcode,
// argument shape and text usage. PSYNC has no text name.
var commands = [...]struct {
	name  string
	op    byte
	args  argShape
	usage string
}{
	cmdPing:    {"PING", binOpPing, argNone, ""},
	cmdGet:     {"GET", binOpGet, argKey, "GET key"},
	cmdPut:     {"PUT", binOpPut, argKeyVal, "PUT key value"},
	cmdInsert:  {"INSERT", binOpInsert, argKeyVal, "INSERT key value"},
	cmdDel:     {"DEL", binOpDel, argKey, "DEL key"},
	cmdUpdate:  {"UPDATE", binOpUpdate, argKeyVal, "UPDATE key value"},
	cmdScan:    {"SCAN", binOpScan, argScan, "SCAN lo hi [max]"},
	cmdMGet:    {"MGET", binOpMGet, argKeys, "MGET key..."},
	cmdStats:   {"STATS", binOpStats, argNone, ""},
	cmdQuit:    {"QUIT", binOpQuit, argNone, ""},
	cmdPromote: {"PROMOTE", binOpPromote, argNone, ""},
	cmdPSync:   {"", repl.OpPSync, argRaw, ""},
}

// byOp maps a binary opcode to its command; cmdBad marks an unknown one.
var byOp = func() (m [256]cmd) {
	for c, d := range commands {
		if d.op != 0 {
			m[d.op] = cmd(c)
		}
	}
	return m
}()

// byName looks a text verb up, case-insensitively; cmdBad if unknown.
func byName(verb string) cmd {
	for c, d := range commands {
		if d.name != "" && strings.EqualFold(verb, d.name) {
			return cmd(c)
		}
	}
	return cmdBad
}

// request is one decoded command, whichever protocol carried it. keys and
// raw alias the decoding codec's scratch until its next readRequest.
type request struct {
	cmd      cmd
	key, val uint64 // SCAN: lo, hi
	max      int    // SCAN's result cap, before the server's own
	keys     []uint64
	raw      []byte // PSYNC's payload
	msg      string // cmdBad: the error to reply
}

func badRequest(msg string) request { return request{cmd: cmdBad, msg: msg} }

// replyKind is the shape of a reply; every codec renders every kind.
type replyKind uint8

const (
	replyOK    replyKind = iota
	replyPong            // text +PONG, binary OK
	replyBool            // INSERT, DEL
	replyValue           // GET, UPDATE
	replyPairs           // SCAN
	replyMulti           // MGET
	replyStats           // STATS
	replyErr
)

// reply is one server reply before a codec renders it.
type reply struct {
	kind  replyKind
	ok    bool // replyBool's verdict; replyValue: found
	v     uint64
	pairs []scanKV
	multi []store.OpResult
	stats []statRow
	msg   string // replyErr
}

// codec is one wire protocol. A server connection decodes requests and
// renders replies with it; a Client encodes requests and parses replies.
// appendReply and appendRequest touch no codec state, so a pool worker
// may render a completion while the connection's reader decodes.
type codec interface {
	// readRequest decodes the next request, calling armIdle before any read
	// that may wait on the connection. A malformed but framed request comes
	// back as cmdBad; an error means the stream cannot continue, and
	// errFraming comes with a cmdBad request to reply before hanging up.
	readRequest(br *bufio.Reader, armIdle func()) (request, error)
	appendReply(dst []byte, r reply) []byte
	appendRequest(dst []byte, r request) []byte
	readReply(br *bufio.Reader) (Reply, error)
}

// errFraming ends a stream that lost its framing.
var errFraming = errors.New("server: framing lost")

// maxScan caps SCAN replies; a request's own limit may lower it.
const maxScan = 4096

// maxMGet is the most keys one MGET may ask for: the binary reply, 4 + 9
// bytes per key after its 5-byte header, must fit one frame.
const maxMGet = (wire.MaxFrame - 5) / 9

var mgetSizeMsg = fmt.Sprintf("MGET takes at most %d keys", maxMGet)

// errReadOnly is a replica's refusal of a write.
var errReadOnly = errors.New("read-only: writes go to the primary")

// typedErrs are the error replies a client classifies: the server writes
// the token ahead of the cause's message (wireErrMsg), the client maps it
// back to its own sentinel (Client.roundTrip).
var typedErrs = [...]struct {
	token  string
	cause  error // as the server sees it
	client error // as Client calls report it
}{
	// The write never became durable.
	{"DEGRADED", batcher.ErrDegraded, ErrDegraded},
	// The write is durable on the primary; only the replica quorum is
	// missing.
	{"WAIT", repl.ErrQuorum, ErrWait},
	{"REPLICA", errReadOnly, ErrReplica},
}

// wireErrMsg renders a failure for an error reply, led by its typed token
// when it has one.
func wireErrMsg(err error) string {
	for _, t := range typedErrs {
		if errors.Is(err, t.cause) {
			return t.token + " " + err.Error()
		}
	}
	return err.Error()
}

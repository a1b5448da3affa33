package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// textCodec is the text protocol (RESP-lite; grammar in the package
// comment): one request per LF-terminated line of space-separated fields,
// decimal uint64 arguments.
type textCodec struct {
	fields [][]byte // readRequest's scratch
	keys   []uint64
}

func (c *textCodec) readRequest(br *bufio.Reader, armIdle func()) (request, error) {
	for {
		// The idle clock re-arms only when the next line is not already
		// wholly buffered, i.e. before a read that may wait on the socket.
		if buffered, _ := br.Peek(br.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
			armIdle()
		}
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return badRequest("request line too long"), errFraming
		}
		if err != nil {
			return request{}, err
		}
		if c.fields = splitFields(line, c.fields[:0]); len(c.fields) > 0 {
			r := parseText(c.fields, c.keys[:0])
			if r.keys != nil {
				c.keys = r.keys
			}
			return r, nil
		}
	}
}

// parseText decodes one request's fields, collecting MGET keys into keys.
func parseText(f [][]byte, keys []uint64) request {
	c := byName(string(f[0]))
	if c == cmdBad {
		return badRequest("unknown command '" + string(f[0]) + "'")
	}
	d, args := &commands[c], f[1:]
	r := request{cmd: c}
	switch d.args {
	case argKey, argKeyVal:
		want := 1
		if d.args == argKeyVal {
			want = 2
		}
		if len(args) != want {
			return usageErr(d.usage)
		}
		var v [2]uint64
		for i, a := range args {
			var ok bool
			if v[i], ok = parseU64(a); !ok {
				return badRequest("arguments must be uint64")
			}
		}
		r.key, r.val = v[0], v[1]
	case argScan:
		if len(args) < 2 || len(args) > 3 {
			return usageErr(d.usage)
		}
		var ok1, ok2 bool
		r.key, ok1 = parseU64(args[0])
		r.val, ok2 = parseU64(args[1])
		if !ok1 || !ok2 {
			return badRequest("SCAN bounds must be uint64")
		}
		r.max = maxScan
		if len(args) == 3 {
			m, err := strconv.Atoi(string(args[2]))
			if err != nil || m < 0 {
				return badRequest("SCAN max must be a non-negative int")
			}
			r.max = m
		}
	case argKeys:
		if len(args) == 0 {
			return usageErr(d.usage)
		}
		for _, a := range args {
			k, ok := parseU64(a)
			if !ok {
				return badRequest("MGET keys must be uint64")
			}
			keys = append(keys, k)
		}
		r.keys = keys
	}
	return r
}

func usageErr(usage string) request { return badRequest("usage: " + usage) }

func parseU64(b []byte) (uint64, bool) {
	v, err := strconv.ParseUint(string(b), 10, 64)
	return v, err == nil
}

// splitFields splits a request line on spaces, dropping the CR/LF
// terminator, into dst (reused scratch).
func splitFields(line []byte, dst [][]byte) [][]byte {
	line = bytes.TrimRight(line, "\r\n")
	for len(line) > 0 {
		var f []byte
		f, line, _ = bytes.Cut(line, []byte{' '})
		if len(f) > 0 {
			dst = append(dst, f)
		}
	}
	return dst
}

func (*textCodec) appendReply(b []byte, r reply) []byte {
	switch r.kind {
	case replyOK:
		return append(b, "+OK\r\n"...)
	case replyPong:
		return append(b, "+PONG\r\n"...)
	case replyBool:
		if r.ok {
			return append(b, ":1\r\n"...)
		}
		return append(b, ":0\r\n"...)
	case replyValue:
		return appendTextValue(b, r.v, r.ok)
	case replyPairs:
		b = appendArrayHeader(b, len(r.pairs))
		for _, p := range r.pairs {
			b = append(strconv.AppendUint(b, p.k, 10), ' ')
			b = appendLine(strconv.AppendUint(b, p.v, 10))
		}
	case replyMulti:
		b = appendArrayHeader(b, len(r.multi))
		for _, m := range r.multi {
			b = appendTextValue(b, m.Value, m.OK)
		}
	case replyStats:
		b = appendArrayHeader(b, len(r.stats))
		for _, s := range r.stats {
			b = append(append(b, s.name...), ' ')
			b = appendLine(strconv.AppendUint(b, s.v, 10))
		}
	default: // replyErr
		b = appendLine(append(append(b, "-ERR "...), r.msg...))
	}
	return b
}

func appendTextValue(b []byte, v uint64, ok bool) []byte {
	if !ok {
		return append(b, "$-1\r\n"...)
	}
	return appendLine(strconv.AppendUint(append(b, '$'), v, 10))
}

func appendArrayHeader(b []byte, n int) []byte {
	return appendLine(strconv.AppendInt(append(b, '*'), int64(n), 10))
}

func appendLine(b []byte) []byte { return append(b, '\r', '\n') }

func (*textCodec) appendRequest(b []byte, r request) []byte {
	d := &commands[r.cmd]
	b = append(b, d.name...)
	arg := func(b []byte, v uint64) []byte { return strconv.AppendUint(append(b, ' '), v, 10) }
	switch d.args {
	case argKey:
		b = arg(b, r.key)
	case argKeyVal:
		b = arg(arg(b, r.key), r.val)
	case argScan:
		b = arg(arg(b, r.key), r.val)
		b = strconv.AppendInt(append(b, ' '), int64(r.max), 10)
	case argKeys:
		for _, k := range r.keys {
			b = arg(b, k)
		}
	}
	return appendLine(b)
}

func (*textCodec) readReply(br *bufio.Reader) (Reply, error) {
	line, err := readLine(br)
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
		for i := range arr {
			if arr[i], err = readLine(br); err != nil {
				return Reply{}, err
			}
		}
		return Reply{Array: arr}, nil
	}
	return Reply{}, fmt.Errorf("server: unknown reply %q", line)
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

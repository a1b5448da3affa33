package server

// Fuzzers of the two server-side request decoders. Each holds three
// properties over arbitrary bytes: decoding never panics; the stream
// decodes into exactly the requests an independent framing oracle finds,
// and ends in errFraming exactly where the oracle says framing is lost;
// and every well-formed request it yields, encoded again by the client
// side of the same codec, decodes to the same request.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/wire"
)

// encodable holds a request of every shape the client codecs encode.
var encodable = []request{
	{cmd: cmdPing},
	{cmd: cmdGet, key: 7},
	{cmd: cmdPut, key: 7, val: 70},
	{cmd: cmdInsert, key: 1, val: math.MaxUint64},
	{cmd: cmdDel, key: math.MaxUint64},
	{cmd: cmdUpdate, key: 8, val: 0},
	{cmd: cmdScan, key: 1, val: 100, max: 10},
	{cmd: cmdScan, key: 0, val: math.MaxUint64, max: 0},
	{cmd: cmdMGet, keys: []uint64{7, 8, 9}},
	{cmd: cmdStats},
	{cmd: cmdQuit},
	{cmd: cmdPromote},
	{cmd: cmdPSync, raw: []byte{1, 2, 3}}, // binary only
}

func reqEqual(a, b request) bool {
	return a.cmd == b.cmd && a.key == b.key && a.val == b.val && a.max == b.max &&
		a.msg == b.msg && slices.Equal(a.keys, b.keys) && bytes.Equal(a.raw, b.raw)
}

// textBuf is the text fuzzer's read buffer: small, so that lines too long
// for it — the text protocol's framing error — are within the fuzzer's
// reach.
const textBuf = 64

// FuzzTextRequest fuzzes textCodec.readRequest.
func FuzzTextRequest(f *testing.F) {
	fuzzDecoder(f, func() codec { return &textCodec{} }, textBuf, func(data []byte) (n int, lost bool) {
		for {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				return n, len(data) >= textBuf
			}
			if i+1 > textBuf {
				return n, true
			}
			if len(bytes.Trim(bytes.TrimRight(data[:i], "\r"), " ")) > 0 {
				n++
			}
			data = data[i+1:]
		}
	})
}

// FuzzBinaryRequest fuzzes binCodec.readRequest.
func FuzzBinaryRequest(f *testing.F) {
	fuzzDecoder(f, func() codec { return &binCodec{} }, 4096, func(data []byte) (n int, lost bool) {
		for {
			if len(data) < 5 {
				return n, false
			}
			l := binary.LittleEndian.Uint32(data)
			if l < 1 || l > wire.MaxFrame {
				return n, true
			}
			if len(data) < 4+int(l) {
				return n, false
			}
			data, n = data[4+l:], n+1
		}
	})
}

// fuzzDecoder seeds the fuzzer with every encodable request alone and all
// of them in one stream, then checks the properties in the file comment.
// oracle says how many requests data holds before its framing ends, and
// whether it ends by losing framing rather than by running out.
func fuzzDecoder(f *testing.F, newCodec func() codec, bufSize int, oracle func([]byte) (int, bool)) {
	decode := func(data []byte, size int) (reqs []request, err error) {
		cd := newCodec()
		br := bufio.NewReaderSize(bytes.NewReader(data), size)
		for {
			r, err := cd.readRequest(br, func() {})
			if err != nil {
				return reqs, err
			}
			r.keys, r.raw = slices.Clone(r.keys), slices.Clone(r.raw)
			reqs = append(reqs, r)
		}
	}
	var all []byte
	for _, r := range encodable {
		if _, text := newCodec().(*textCodec); text && r.cmd == cmdPSync {
			continue
		}
		enc := newCodec().appendRequest(nil, r)
		if got, _ := decode(enc, bufSize); len(got) != 1 || !reqEqual(got[0], r) {
			f.Fatalf("request %+v encodes to %q and decodes to %+v", r, enc, got)
		}
		f.Add(enc)
		all = append(all, enc...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := decode(data, bufSize)
		wantN, wantLost := oracle(data)
		if len(reqs) != wantN || errors.Is(err, errFraming) != wantLost {
			t.Fatalf("decoded %d requests, then %v; want %d requests, framing lost: %v", len(reqs), err, wantN, wantLost)
		}
		for _, r := range reqs {
			if r.cmd == cmdBad {
				if r.msg == "" {
					t.Fatal("malformed request without an error message")
				}
				continue
			}
			enc := newCodec().appendRequest(nil, r)
			if again, _ := decode(enc, 4096); len(again) != 1 || !reqEqual(again[0], r) {
				t.Fatalf("request %+v re-encodes to %q and decodes to %+v", r, enc, again)
			}
		}
	})
}

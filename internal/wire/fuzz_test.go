package wire

// Native Go fuzz targets for the wire protocol.
//
//   - FuzzWireFraming feeds arbitrary bytes to the loop every server-side
//     connection runs (serve: cut a frame, decode the request, handle it,
//     encode the response): whatever the bytes are, it returns without
//     panicking. Seeds cover every request kind plus malformed variants
//     (bogus and retired kinds, truncated frames, absurd field values).
//   - FuzzCodecParity (codec_test.go) builds requests and responses from the
//     fuzzer's bytes and requires the frame codec to round-trip them to what
//     the previous codec, encoding/gob, round-trips them to.
//   - FuzzPipelineSeq drives Pipeline against a scripted transport that
//     misdelivers: wrong Seq, zero Seq (legacy peer), out-of-order
//     responses, transport errors. The oracle is the protocol's safety
//     property — a response delivered to the caller without error either
//     carries the matching Seq or a legacy zero; any detectable mismatch
//     must poison the pipeline rather than silently hand over another
//     request's rows. Each script is also replayed through a window-1
//     pipeline and through plain Conn.Query round trips, which must agree
//     request by request.
//
// CI runs these with a short -fuzztime smoke (make fuzz-smoke); longer
// local runs just extend the same corpus.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"citusgo/internal/engine"
	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// encodeRequests encodes a request stream the way tcpTransport does.
func encodeRequests(t testing.TB, reqs ...*Request) []byte {
	t.Helper()
	var buf []byte
	for _, r := range reqs {
		var err error
		if buf, err = appendRequest(buf, r); err != nil {
			t.Fatalf("seed encode: %v", err)
		}
	}
	return buf
}

func FuzzWireFraming(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, codecVersion, 0, 0, 0, 0, 0}) // 4 GiB claimed
	// retired: an earlier version's ping
	f.Add(encodeRequests(f, &Request{Kind: 8, Seq: 1}))
	f.Add(encodeRequests(f,
		&Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 1},
		&Request{Kind: ReqQuery, SQL: "INSERT INTO t VALUES (1, 'x')", Seq: 2},
		&Request{Kind: ReqQuery, SQL: "SELECT * FROM t WHERE k = $1", Params: []types.Datum{int64(1)}, Seq: 3},
	))
	f.Add(encodeRequests(f, // kinds 9 and 10, retired: what an old peer's Prepare and ExecutePrepared look like
		&Request{Kind: 9, Name: "p1", SQL: "SELECT k FROM t WHERE k = $1", Seq: 1},
		&Request{Kind: 10, Name: "p1", Params: []types.Datum{int64(2)}, Seq: 2},
		&Request{Kind: 10, Name: "missing", Seq: 3},
	))
	// the retired node calls, as an earlier version sent them: table rows,
	// prepared list, lock graph, SSI edges (6, 7, 2, 12)
	f.Add(encodeRequests(f,
		&Request{Kind: ReqCopy, Table: "t", Columns: []string{"k", "v"}, Rows: []types.Row{{int64(7), "z"}}},
		&Request{Kind: 6, Table: "t"},
		&Request{Kind: 7},
		&Request{Kind: 2},
		&Request{Kind: 12},
	))
	// and cancel, doom, drop results, trace spans (3, 13, 5, 11) among live
	// kinds
	f.Add(encodeRequests(f,
		&Request{Kind: RequestKind(200), SQL: "nonsense"},
		&Request{Kind: ReqQuery, SQL: "", Hdr: Header{Version: 77, TraceID: ^uint64(0)}},
		&Request{Kind: 3, Name: "no-such-dist-txn"},
		&Request{Kind: 13, Name: ""},
		&Request{Kind: 5, Name: "../weird//prefix"},
		&Request{Kind: ReqAppendResult, Name: "r", Columns: []string{"a"}, Rows: []types.Row{{nil}}},
		&Request{Kind: 11, Hdr: Header{Version: HeaderV1, TraceID: 42}},
		&Request{Kind: ReqQuery, SQL: "SELECT $1", Params: []types.Datum{jsonb.MustParse(`{"a": [1, "x"]}`)}},
	))
	// a frame of another codec version in the middle of a stream
	other := encodeRequests(f, &Request{Kind: 8, Seq: 2})
	other[lenSize] = codecVersion + 1
	f.Add(append(encodeRequests(f, &Request{Kind: 8, Seq: 1}), other...))

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := engine.New(engine.Config{Name: "fuzz"})
		h := newHandler(eng)
		defer h.closeSession()
		if resp := h.handle(&Request{Kind: ReqQuery, SQL: "CREATE TABLE t (k BIGINT PRIMARY KEY, v TEXT)"}); resp.Err != "" {
			t.Fatalf("setup: %s", resp.Err)
		}
		// The loop Server.serveConn runs, until the bytes run out or stop
		// being frames. Every request that decodes is handled, and every
		// frame with a readable prefix is answered.
		var out bytes.Buffer
		err := serve(h, bytes.NewReader(data), &out)
		if err == nil {
			t.Fatal("serve returned without an error on a finite stream")
		}
		fr := newFrameReader(&out)
		for {
			frame, err := fr.next()
			if err == io.EOF {
				break
			}
			if err == nil {
				if _, _, err = framePrefix(frame); err == nil {
					err = decodeResponse(frame, new(Response))
				}
			}
			if err != nil {
				t.Fatalf("the server wrote a response this codec cannot read: %v", err)
			}
		}
	})
}

// scriptTransport delivers responses according to a fuzz-chosen script:
// correct, zero-Seq (legacy peer), corrupted Seq, out-of-order, or a
// transport error. Every response carries Tag = the Seq of the request it
// actually answers, so the oracle can tell what was delivered regardless
// of what the Seq field claims.
type scriptTransport struct {
	script []byte
	si     int
	queue  []*Request
	closed bool
}

func (t *scriptTransport) nextOp() byte {
	if t.si >= len(t.script) {
		return 0 // script exhausted: behave correctly
	}
	b := t.script[t.si]
	t.si++
	return b
}

func (t *scriptTransport) send(req *Request) error {
	cp := *req
	t.queue = append(t.queue, &cp)
	return nil
}

func (t *scriptTransport) recv() (Response, error) {
	if len(t.queue) == 0 {
		return Response{}, errors.New("protocol error: recv with no request in flight")
	}
	op := t.nextOp()
	pick := 0
	if op%5 == 4 && len(t.queue) > 1 {
		// Out-of-order: answer a later request first.
		pick = 1 + int(t.nextOp())%(len(t.queue)-1)
	}
	req := t.queue[pick]
	t.queue = append(t.queue[:pick], t.queue[pick+1:]...)
	resp := Response{Tag: fmt.Sprintf("answers-%d", req.Seq), Seq: req.Seq}
	switch op % 5 {
	case 1: // legacy peer: Seq not echoed
		resp.Seq = 0
	case 2: // corrupted correlation id
		resp.Seq = req.Seq + 1 + uint64(t.nextOp())
	case 3: // transport failure
		return Response{}, errors.New("connection reset by script")
	}
	return resp, nil
}

func (t *scriptTransport) flush() error { return nil }

func (t *scriptTransport) close() error { t.closed = true; return nil }

func FuzzPipelineSeq(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{})                       // all correct
	f.Add(uint8(8), uint8(2), []byte{2, 0, 0})                // early corruption
	f.Add(uint8(6), uint8(0), []byte{0, 3, 0})                // mid-batch transport error
	f.Add(uint8(10), uint8(3), []byte{4, 1, 4, 2, 0, 1})      // reorder + legacy mix
	f.Add(uint8(40), uint8(1), []byte{1, 1, 1, 1})            // legacy peer, window 1
	f.Add(uint8(12), uint8(5), []byte{4, 9, 4, 14, 4, 19, 0}) // repeated swaps
	f.Add(uint8(33), uint8(7), bytes.Repeat([]byte{2}, 33))   // every response corrupted

	f.Fuzz(func(t *testing.T, n, window uint8, script []byte) {
		reqs := int(n)%40 + 1
		st := &scriptTransport{script: script}
		conn := &Conn{t: st, node: "scripted"}
		p := conn.Pipeline(int(window) % 8)

		pendings := make([]*Pending, 0, reqs)
		for i := 0; i < reqs; i++ {
			pendings = append(pendings, p.Query(fmt.Sprintf("req-%d", i)))
		}
		flushErr := p.Flush()

		poisoned := false
		for _, pd := range pendings {
			if !pd.done {
				t.Fatalf("pending seq=%d not resolved by Flush", pd.seq)
			}
			if pd.err != nil {
				// Once one request fails at the transport level, every
				// later one must fail too (the stream is untrustworthy),
				// and Flush must report it.
				poisoned = true
				if flushErr == nil {
					t.Fatalf("pending seq=%d failed (%v) but Flush returned nil", pd.seq, pd.err)
				}
				continue
			}
			if poisoned {
				t.Fatalf("pending seq=%d succeeded after an earlier transport failure", pd.seq)
			}
			// Safety: a delivered response either answers this exact
			// request, or came from a legacy peer that echoes no Seq —
			// a mismatch with a non-zero Seq must never reach the caller.
			if pd.resp.Seq != 0 {
				if want := fmt.Sprintf("answers-%d", pd.seq); pd.resp.Tag != want {
					t.Fatalf("silent misdelivery: pending seq=%d got %q", pd.seq, pd.resp.Tag)
				}
			}
		}

		// Differential: a window of 1 is serial issue, so the same script
		// replayed through plain Conn.Query round trips, and through the
		// round trip in its two halves (Start, Finish), must give every
		// request the window-1 pipeline's outcome — this is what pins the
		// send and receive steps the three share. The comparison stops at the
		// first transport failure: the pipeline poisons what follows, a
		// plain caller would stop using the connection.
		outcome := func(res *engine.Result, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return res.Tag
		}
		one := (&Conn{t: &scriptTransport{script: script}, node: "scripted"}).Pipeline(1)
		plain := &Conn{t: &scriptTransport{script: script}, node: "scripted"}
		halves := &Conn{t: &scriptTransport{script: script}, node: "scripted"}
		for i := 0; i < reqs; i++ {
			q := fmt.Sprintf("req-%d", i)
			pd := one.Query(q) // window 1: drained as it is sent
			res, err := plain.Query(q)
			if got, want := outcome(pd.Result()), outcome(res, err); got != want {
				t.Fatalf("request %d: window-1 pipeline %q, plain round trip %q", i, got, want)
			}
			if got, want := outcome(halves.Finish(halves.Start(q))), outcome(res, err); got != want {
				t.Fatalf("request %d: Start+Finish %q, plain round trip %q", i, got, want)
			}
			if err != nil {
				break
			}
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
)

// ---------------------------------------------------------------------------
// The reference: the messages as encoding/gob carried them before the frame
// codec. It lives here, in a test file, only to say what a round trip must
// give back.

type gobRequest struct {
	Kind int
	Hdr  struct {
		Version         int
		TraceID, SpanID uint64
		DistID          string
		Serializable    bool
	}
	SQL     string
	Params  []any
	Table   string
	Columns []string
	Rows    [][]any
	Name    string
	Seq     uint64
}

type gobResponse struct {
	Columns  []string
	Rows     [][]any
	Tag      string
	Affected int
	Err      string
	Seq      uint64
}

// gobJSONB is a jsonb datum inside a gob message: its wire form, as
// jsonb.Value's GobEncode used to return it.
type gobJSONB struct{ Wire []byte }

func init() {
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
	gob.Register(time.Time{})
	gob.Register(gobJSONB{})
}

func toGobRow(row []types.Datum) []any {
	if row == nil {
		return nil
	}
	out := make([]any, len(row))
	for i, d := range row {
		if v, ok := d.(jsonb.Value); ok {
			d = gobJSONB{v.AppendWire(nil)}
		}
		out[i] = d
	}
	return out
}

func fromGobRow(t testing.TB, row []any) []types.Datum {
	for i, d := range row {
		if g, ok := d.(gobJSONB); ok {
			v, err := jsonb.FromWire(g.Wire)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = v
		}
	}
	return row
}

func toGobRows(rows []types.Row) [][]any {
	if rows == nil {
		return nil
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = toGobRow(r)
	}
	return out
}

func fromGobRows(t testing.TB, rows [][]any) []types.Row {
	if rows == nil {
		return nil
	}
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = fromGobRow(t, r)
	}
	return out
}

func gobRoundTrip(t testing.TB, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
}

func requestViaGob(t testing.TB, req *Request) *Request {
	in := gobRequest{
		Kind: int(req.Kind), SQL: req.SQL, Params: toGobRow(req.Params), Table: req.Table,
		Columns: req.Columns, Rows: toGobRows(req.Rows), Name: req.Name, Seq: req.Seq,
	}
	in.Hdr.Version, in.Hdr.TraceID, in.Hdr.SpanID = int(req.Hdr.Version), req.Hdr.TraceID, req.Hdr.SpanID
	in.Hdr.DistID, in.Hdr.Serializable = req.Hdr.Block.DistID, req.Hdr.Block.Serializable
	var out gobRequest
	gobRoundTrip(t, &in, &out)
	return &Request{
		Kind: RequestKind(out.Kind), Hdr: Header{Version: uint8(out.Hdr.Version), TraceID: out.Hdr.TraceID, SpanID: out.Hdr.SpanID,
			Block: Block{DistID: out.Hdr.DistID, Serializable: out.Hdr.Serializable}},
		SQL: out.SQL, Params: fromGobRow(t, out.Params), Table: out.Table, Columns: out.Columns,
		Rows: fromGobRows(t, out.Rows), Name: out.Name, Seq: out.Seq,
	}
}

func responseViaGob(t testing.TB, resp *Response) *Response {
	in := gobResponse{
		Columns: resp.Columns, Rows: toGobRows(resp.Rows), Tag: resp.Tag, Affected: resp.Affected, Err: resp.Err,
		Seq: resp.Seq,
	}
	var out gobResponse
	gobRoundTrip(t, &in, &out)
	return &Response{
		Columns: out.Columns, Rows: fromGobRows(t, out.Rows), Tag: out.Tag, Affected: out.Affected, Err: out.Err,
		Seq: out.Seq,
	}
}

// ---------------------------------------------------------------------------
// The frame codec's side of the comparison.

func requestViaFrames(t testing.TB, req *Request) *Request {
	t.Helper()
	buf, err := appendRequest([]byte("earlier frame"), req)
	if err != nil {
		t.Fatalf("appendRequest: %v", err)
	}
	frame := buf[len("earlier frame")+lenSize:]
	if n := binary.LittleEndian.Uint32(buf[len("earlier frame"):]); int(n) != len(frame) {
		t.Fatalf("length prefix %d, frame is %d bytes", n, len(frame))
	}
	if _, _, err := framePrefix(frame); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := decodeRequest(frame, &out); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	for i := range buf {
		buf[i] = 0xff // nothing decoded may alias the frame
	}
	return &out
}

func responseViaFrames(t testing.TB, resp *Response, kind RequestKind) *Response {
	t.Helper()
	buf, err := appendResponse(nil, resp, kind)
	if err != nil {
		t.Fatalf("appendResponse: %v", err)
	}
	frame := buf[lenSize:]
	if k, seq, err := framePrefix(frame); err != nil || k != kind || seq != resp.Seq {
		t.Fatalf("framePrefix: kind %v seq %d %v", k, seq, err)
	}
	var out Response
	if err := decodeResponse(frame, &out); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	out.Rows, out.Batch = out.Batch.Rows(), rowbatch.Batch{}
	for i := range buf {
		buf[i] = 0xff
	}
	return &out
}

// nanToBits makes rows comparable with DeepEqual: NaN is not equal to
// itself, its bit pattern is.
func nanToBits(rows ...types.Row) {
	for _, r := range rows {
		for i, d := range r {
			if f, ok := d.(float64); ok && math.IsNaN(f) {
				r[i] = fmt.Sprintf("NaN %#x", math.Float64bits(f))
			}
		}
	}
}

func checkRequestParity(t testing.TB, req *Request) {
	t.Helper()
	want, got := requestViaGob(t, req), requestViaFrames(t, req)
	nanToBits(append(want.Rows, want.Params)...)
	nanToBits(append(got.Rows, got.Params)...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request round trip\n frames: %+v\n gob:    %+v", got, want)
	}
}

func checkResponseParity(t testing.TB, resp *Response, kind RequestKind) {
	t.Helper()
	want, got := responseViaGob(t, resp), responseViaFrames(t, resp, kind)
	nanToBits(want.Rows...)
	nanToBits(got.Rows...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("response round trip\n frames: %+v\n gob:    %+v", got, want)
	}
}

// ---------------------------------------------------------------------------
// Building messages from the fuzzer's bytes.

// gen spends its bytes on choices; when they run out every choice is 0.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) n(max int) int { return int(g.byte()) % max }

func (g *gen) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

var bigString = strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB

func (g *gen) str() string {
	switch c := g.n(16); {
	case c < 4:
		return ""
	case c == 15 && g.byte() == 0xff:
		return bigString
	default:
		n := g.n(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = g.byte()
		}
		return string(b)
	}
}

func (g *gen) strs() []string {
	n := g.n(5)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g *gen) time() time.Time {
	sec, nsec := int64(g.u64()>>30)-(1<<32), int64(g.u64()%1e9)
	switch g.n(5) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(sec, nsec) // Local
	case 2:
		return time.Unix(sec, nsec).In(time.FixedZone("x", (g.n(24)-12)*3600+g.n(2)*1800))
	case 3:
		return time.Now() // carries a monotonic reading, which does not travel
	default:
		return time.Unix(sec, nsec).UTC()
	}
}

var jsonDocs = []string{`null`, `{}`, `[]`, `{"a": {"b": [1, {"c": [true, null, "x"]}]}}`, `[[[[[[1.5]]]]]]`, `"text"`, `-0.25`}

func (g *gen) datum() types.Datum {
	switch g.n(12) {
	case 0:
		return nil
	case 1:
		return int64(g.u64())
	case 2:
		return int64(g.n(3)) - 1
	case 3:
		return math.Float64frombits(g.u64()) // any bit pattern: NaNs, infinities, denormals
	case 4:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[g.n(5)]
	case 5:
		return g.byte()%2 == 0
	case 6, 7:
		return g.str()
	case 8:
		return g.time()
	case 9:
		return jsonb.Value{}
	default:
		return jsonb.MustParse(jsonDocs[g.n(len(jsonDocs))])
	}
}

// rows builds a rectangular batch, the only kind the codec carries; nil and
// empty both mean no rows, as they did for gob.
func (g *gen) rows() []types.Row {
	nrows, ncols := g.n(4), 1+g.n(12)
	switch g.n(8) {
	case 0:
		return nil
	case 1:
		return []types.Row{}
	}
	out := make([]types.Row, nrows)
	for i := range out {
		out[i] = make(types.Row, ncols)
		for j := range out[i] {
			out[i][j] = g.datum()
		}
	}
	return out
}

func (g *gen) request() *Request {
	req := &Request{
		Kind: RequestKind(g.n(16)), // the live kinds, the retired ones through 13, and two past them
		Hdr:  Header{Version: g.byte(), TraceID: g.u64(), SpanID: g.u64()},
		SQL:  g.str(), Table: g.str(), Columns: g.strs(), Rows: g.rows(), Name: g.str(), Seq: g.u64(),
	}
	req.Hdr.Block = Block{DistID: g.str(), Serializable: g.byte()%2 == 1}
	if n := g.n(4); n > 0 {
		req.Params = make([]types.Datum, n)
		for i := range req.Params {
			req.Params[i] = g.datum()
		}
	}
	return req
}

func (g *gen) response() *Response {
	resp := &Response{
		Columns: g.strs(), Rows: g.rows(), Tag: g.str(), Affected: int(int32(g.u64())), Err: g.str(),
		Seq: g.u64(),
	}
	return resp
}

// wideRowsSeed is a generator input for a query request, and then a
// response, each carrying three rows of 12 columns in which strings, empty
// strings, jsonb documents and the zero jsonb.Value take turns (shift moves
// the pattern along): many values in each row's bytes, of both kinds.
func wideRowsSeed(shift int) []byte {
	rows := func(seed []byte) []byte {
		seed = append(seed, 3, 11, 2) // 3 rows, 1+11 columns, built
		for i := 0; i < 3*12; i++ {
			switch (i + shift) % 4 {
			case 0: // a string of 20 to 39 bytes
				seed = append(seed, 6, 4, byte(20+i%20))
				seed = append(seed, bytes.Repeat([]byte{'a' + byte(i%26)}, 20+i%20)...)
			case 1: // ""
				seed = append(seed, 6, 0)
			case 2: // one of jsonDocs
				seed = append(seed, 10, byte(i))
			case 3: // jsonb.Value{}
				seed = append(seed, 9)
			}
		}
		return seed
	}
	// the request: kind 0, a zero header, no SQL, table or columns
	seed := rows(make([]byte, 1+1+8+8+3))
	// its name, seq, block and parameters, then the response's columns
	seed = append(seed, make([]byte, 1+8+2+1+1)...)
	return rows(seed)
}

// FuzzCodecParity: any message the generator builds round-trips through the
// frame codec to what it round-trips to through gob.
func FuzzCodecParity(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{15, 0xff}, 200)) // 1 MiB strings
	// every kind byte an earlier version used, and two past them
	for kind := 0; kind <= 15; kind++ {
		seed := []byte{byte(kind)}
		for i := 0; i < 300; i++ {
			seed = append(seed, byte(i*7+kind*13))
		}
		f.Add(seed)
	}
	for shift := 0; shift < 4; shift++ {
		f.Add(wideRowsSeed(shift))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{b: data}
		req := g.request()
		checkRequestParity(t, req)
		checkResponseParity(t, g.response(), req.Kind)
	})
}

// TestCodecParity pins the cases the fuzz corpus may or may not reach.
func TestCodecParity(t *testing.T) {
	when := time.Date(2021, 1, 2, 3, 4, 5, 6, time.UTC)
	every := types.Row{nil, int64(math.MinInt64), math.NaN(), math.Inf(1), math.Inf(-1), true, "", bigString,
		time.Time{}, when, when.In(time.FixedZone("", 5*3600+1800)), time.Unix(1, 2),
		jsonb.Value{}, jsonb.MustParse(`{"a": {"b": [1, {"c": [true, null, "x"]}]}}`)}
	for _, kind := range []RequestKind{ReqQuery, ReqCopy, ReqAppendResult, 13} {
		checkRequestParity(t, &Request{Kind: kind})
		checkRequestParity(t, &Request{
			Kind: kind, Hdr: Header{Version: HeaderV2, TraceID: 1 << 63, SpanID: 7, Block: Block{DistID: "1:1609556645000000006:42", Serializable: true}},
			SQL: "SELECT $1", Params: every.Clone(),
			Table: "t", Columns: []string{"a", "", "ccc"}, Rows: []types.Row{every.Clone(), every.Clone()}, Name: "n", Seq: math.MaxUint64,
		})
		checkResponseParity(t, &Response{}, kind)
		checkResponseParity(t, &Response{
			Columns: []string{"", "x"}, Rows: []types.Row{every.Clone()}, Tag: "SELECT 1", Affected: -1, Err: "e", Seq: 9,
		}, kind)
	}
	// nil and empty rows both arrive as no rows; empty Columns as none
	checkResponseParity(t, &Response{Rows: []types.Row{}, Columns: []string{}}, ReqQuery)
	checkRequestParity(t, &Request{Rows: []types.Row{}, Params: []types.Datum{}, Columns: []string{}})

	// What the frame codec refuses at the sender, where gob carried it or
	// failed in its own way: rows of unequal length, rows without columns,
	// a value that is no datum.
	for name, req := range map[string]*Request{
		"ragged rows":          {Rows: []types.Row{{int64(1)}, {int64(1), int64(2)}}},
		"rows without columns": {Rows: []types.Row{{}}},
		"an int parameter":     {Params: []types.Datum{1}},
	} {
		if buf, err := appendRequest([]byte("x"), req); err == nil || string(buf) != "x" {
			t.Errorf("%s: appendRequest = %q, %v", name, buf, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Failing closed: what a server does with bytes that are not its protocol.

// serveBytes runs the server loop over in and returns what it wrote, decoded.
func serveBytes(t *testing.T, in []byte) ([]*Response, error) {
	t.Helper()
	h := newHandler(newEngine(t))
	defer h.closeSession()
	var out bytes.Buffer
	err := serve(h, bytes.NewReader(in), &out)
	var resps []*Response
	fr := newFrameReader(&out)
	for {
		frame, ferr := fr.next()
		if ferr == io.EOF {
			return resps, err
		}
		if ferr != nil {
			t.Fatalf("server wrote a bad frame: %v", ferr)
		}
		resp := new(Response)
		if derr := decodeResponse(frame, resp); derr != nil {
			t.Fatalf("server wrote a response that does not decode: %v", derr)
		}
		resp.Rows, resp.Batch = resp.Batch.Rows(), rowbatch.Batch{}
		resps = append(resps, resp)
	}
}

func TestFrameLimits(t *testing.T) {
	ping := func(seq uint64) []byte { return encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: seq}) }
	okPing := func(r *Response, seq uint64) bool {
		return r.Err == "" && r.Seq == seq && len(r.Rows) == 1 && r.Rows[0][0] == int64(1)
	}

	t.Run("oversize length closes, allocating nothing for it", func(t *testing.T) {
		// "4-byte prefix claims 4 GiB, 10 bytes follow", behind a good request
		in := append(ping(1), 0xff, 0xff, 0xff, 0xff, codecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		in = append(in, ping(3)...)
		resps, err := serveBytes(t, in)
		if !errors.Is(err, errFrame) || len(resps) != 1 || !okPing(resps[0], 1) {
			t.Fatalf("got %d responses and %v; want the first ping answered, then errFrame", len(resps), err)
		}
		h := newHandler(newEngine(t))
		defer h.closeSession()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = serve(h, bytes.NewReader(in[len(ping(1)):]), io.Discard)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Fatalf("a 4 GiB claim with 10 bytes behind it made the server allocate %d bytes", got)
		}
		// one byte over the limit is over the limit
		over := binary.LittleEndian.AppendUint32(nil, MaxFrameSize+1)
		if _, err := serveBytes(t, append(over, make([]byte, 64)...)); !errors.Is(err, errFrame) {
			t.Fatalf("MaxFrameSize+1: %v", err)
		}
	})

	t.Run("a large claim is read as it arrives", func(t *testing.T) {
		// 48 MiB claimed, under the limit; 100 bytes follow
		in := binary.LittleEndian.AppendUint32(nil, 48<<20)
		in = append(in, make([]byte, 100)...)
		h := newHandler(newEngine(t))
		defer h.closeSession()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := serve(h, bytes.NewReader(in), io.Discard)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated large frame: %v", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4*readStep { // a step or two, not the 48 MiB
			t.Fatalf("100 bytes of a claimed 48 MiB made the server allocate %d bytes", got)
		}
	})

	t.Run("truncated frame closes", func(t *testing.T) {
		good := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 2})
		for _, cut := range []int{1, lenSize - 1, lenSize, lenSize + 3, len(good) - 1} {
			resps, err := serveBytes(t, append(ping(1), good[:cut]...))
			if !errors.Is(err, io.ErrUnexpectedEOF) || len(resps) != 1 || !okPing(resps[0], 1) {
				t.Fatalf("cut at %d: %d responses, %v", cut, len(resps), err)
			}
		}
		if _, err := serveBytes(t, nil); err != io.EOF {
			t.Fatalf("empty stream: %v", err)
		}
	})

	t.Run("unknown codec version closes", func(t *testing.T) {
		bad := ping(2)
		bad[lenSize] = codecVersion + 1
		resps, err := serveBytes(t, append(append(ping(1), bad...), ping(3)...))
		if !errors.Is(err, errFrame) || len(resps) != 1 || !okPing(resps[0], 1) {
			t.Fatalf("%d responses, %v", len(resps), err)
		}
		// so does a frame too short to say its version and Seq
		short := binary.LittleEndian.AppendUint32(nil, prefixSize-1)
		short = append(short, make([]byte, prefixSize-1)...)
		if _, err := serveBytes(t, short); !errors.Is(err, errFrame) {
			t.Fatalf("short frame: %v", err)
		}
	})

	t.Run("a bad datum fails only its request", func(t *testing.T) {
		row := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT $1", Params: []types.Datum{int64(0x0102030405060708)}, Seq: 2})
		// the parameter's tag byte sits in front of its eight bytes
		at := bytes.Index(row, []byte{8, 7, 6, 5, 4, 3, 2, 1}) - 1
		for name, c := range map[string]struct {
			tag  byte
			want string
		}{
			"unknown tag":    {0x7f, rowbatch.ErrMalformed.Error()},
			"truncating tag": {4, errBody.Error()}, // a string of 8 bytes: the message then ends early
		} {
			bad := bytes.Clone(row)
			bad[at] = c.tag
			resps, err := serveBytes(t, append(append(ping(1), bad...), ping(3)...))
			if err != io.EOF || len(resps) != 3 {
				t.Fatalf("%s: %d responses, %v; want all three answered", name, len(resps), err)
			}
			if !okPing(resps[0], 1) || !okPing(resps[2], 3) {
				t.Fatalf("%s: neighbours of the refused request: %+v %+v", name, resps[0], resps[2])
			}
			if r := resps[1]; r.Seq != 2 || !strings.Contains(r.Err, "malformed") {
				t.Fatalf("%s: refused request answered %+v (want Seq 2, error about %q)", name, r, c.want)
			}
		}
	})

	t.Run("a retired kind fails only its request", func(t *testing.T) {
		// 9 and 10 are what a peer from before the prepared-statement pair
		// was deleted sends, 2, 3, 5-8 and 11-13 one from before the node
		// calls became node functions; they name no request here, and the
		// live kinds kept their bytes
		if ReqQuery != 0 || ReqCopy != 1 || ReqAppendResult != 4 {
			t.Fatalf("request kinds renumbered: query %d, copy %d, append_result %d", ReqQuery, ReqCopy, ReqAppendResult)
		}
		for _, kind := range []RequestKind{2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
			old := encodeRequests(t, &Request{Kind: kind, Name: "cs_1", SQL: "SELECT 1", Params: []types.Datum{int64(1)}, Seq: 2})
			resps, err := serveBytes(t, append(append(ping(1), old...), ping(3)...))
			if err != io.EOF || len(resps) != 3 || !okPing(resps[0], 1) || !okPing(resps[2], 3) {
				t.Fatalf("kind %d: %d responses, %v; want all three answered and the pings served", kind, len(resps), err)
			}
			if r := resps[1]; r.Seq != 2 || !strings.Contains(r.Err, "unknown request kind") {
				t.Fatalf("kind %d answered %+v; want Seq 2 and an unknown-kind error", kind, r)
			}
		}
	})

	t.Run("a message over the limit is refused by its sender", func(t *testing.T) {
		huge := strings.Repeat("x", MaxFrameSize)
		buf, err := appendRequest([]byte("kept"), &Request{Kind: ReqQuery, SQL: huge})
		if err == nil || string(buf) != "kept" {
			t.Fatalf("appendRequest of %d bytes: %d bytes, %v", len(huge), len(buf), err)
		}
	})
}

// TestServerFlushesOncePerWindow: requests that arrive together are answered
// with one write.
func TestServerFlushesOncePerWindow(t *testing.T) {
	h := newHandler(newEngine(t))
	defer h.closeSession()
	var reqs []*Request
	for i := 1; i <= 8; i++ {
		reqs = append(reqs, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: uint64(i)})
	}
	var w countingWriter
	if err := serve(h, bytes.NewReader(encodeRequests(t, reqs...)), &w); err != io.EOF {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("8 requests in one read were answered with %d writes", w.writes)
	}
}

// TestServerAnswersBeforeWaiting: holding responses back for a window never
// turns into waiting for the peer while owing it one — a request followed by
// half of the next is answered at once.
func TestServerAnswersBeforeWaiting(t *testing.T) {
	srv, err := Serve(newEngine(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(10 * time.Second))
	first := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 1})
	second := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 2})
	if _, err := raw.Write(append(bytes.Clone(first), second[:len(second)/2]...)); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(raw)
	for seq, rest := range [][]byte{nil, second[len(second)/2:]} {
		if _, err := raw.Write(rest); err != nil {
			t.Fatal(err)
		}
		frame, err := fr.next()
		if err != nil {
			t.Fatalf("response %d: %v", seq+1, err)
		}
		var resp Response
		if err := decodeResponse(frame, &resp); err != nil || resp.Seq != uint64(seq+1) || resp.Err != "" {
			t.Fatalf("response %d: %+v %v", seq+1, resp, err)
		}
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		w.writes++
	}
	return len(p), nil
}

// ---------------------------------------------------------------------------
// The crud_point shapes: what a point read or write puts on each hop.

var (
	pointRequest = &Request{
		Kind: ReqQuery, Hdr: Header{Version: HeaderV1}, SQL: "UPDATE usertable_102013 SET field3 = $1 WHERE ycsb_key = $2", Seq: 12345,
		Params: []types.Datum{strings.Repeat("v", 100), int64(123456)},
	}
	pointResponse = func() *Response {
		resp := &Response{Tag: "SELECT 1", Affected: 1, Seq: 12345, Columns: []string{"ycsb_key"}}
		row := types.Row{int64(123456)}
		for f := 0; f < 10; f++ {
			resp.Columns = append(resp.Columns, fmt.Sprintf("field%d", f))
			row = append(row, strings.Repeat(string(rune('a'+f)), 100))
		}
		resp.Rows = []types.Row{row}
		return resp
	}()
)

// TestCodecAllocBudget: encoding the two point-operation messages into a
// warm buffer allocates nothing; decoding them allocates a fixed number of
// objects plus one per string value, whatever the number of columns.
func TestCodecAllocBudget(t *testing.T) {
	var buf []byte
	encode := func(resp *Response) float64 {
		return testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = appendRequest(buf[:0], pointRequest); err != nil {
				t.Fatal(err)
			}
			if buf, err = appendResponse(buf, resp, ReqQuery); err != nil {
				t.Fatal(err)
			}
		})
	}
	_ = encode(pointResponse) // warm the buffer
	if n := encode(pointResponse); n != 0 {
		t.Errorf("encoding the point request and response allocates %v times", n)
	}

	reqFrame := encodeRequests(t, pointRequest)[lenSize:]
	var req Request
	// text, parameters (cells, one string header array, one int64 array, the
	// string's bytes)
	const reqBudget = 5
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeRequest(reqFrame, &req); err != nil {
			t.Fatal(err)
		}
	}); n > reqBudget {
		t.Errorf("decoding the point request allocates %v times, budget %d", n, reqBudget)
	}

	decode := func(resp *Response) float64 {
		frame, err := appendResponse(nil, resp, ReqQuery)
		if err != nil {
			t.Fatal(err)
		}
		var out Response
		return testing.AllocsPerRun(200, func() {
			if err := decodeResponse(frame[lenSize:], &out); err != nil {
				t.Fatal(err)
			}
			rowsSink = out.Batch.Rows()
		})
	}
	// the tag, the column names (slice and one string), the rows, the cells,
	// the int64 array, the string header array
	const respBudget = 7
	if n := decode(pointResponse); n > respBudget+10 {
		t.Errorf("decoding the point response allocates %v times, budget %d + one per string value", n, respBudget)
	}
	// eleven columns without strings cost what one costs
	when := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	one := &Response{Tag: "SELECT 1", Columns: []string{"ycsb_key"}, Rows: []types.Row{{int64(1 << 40)}}}
	eleven := &Response{Tag: "SELECT 1", Columns: pointResponse.Columns,
		Rows: []types.Row{{int64(1 << 40), 1.5, true, nil, when, int64(-5), 2.5, false, when, int64(1 << 50), nil}}}
	if a, b := decode(one), decode(eleven); b > a+1 || b > respBudget {
		t.Errorf("1 fixed-width column: %v allocations; 11: %v (want at most one more, for the times, and at most %d)", a, b, respBudget)
	}
}

var rowsSink []types.Row

// BenchmarkCodecPointOp is one hop of a point operation: the request encoded
// and decoded, the one-row response encoded and decoded.
func BenchmarkCodecPointOp(b *testing.B) {
	var buf []byte
	var req Request
	var resp Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendRequest(buf[:0], pointRequest); err != nil {
			b.Fatal(err)
		}
		if err := decodeRequest(buf[lenSize:], &req); err != nil {
			b.Fatal(err)
		}
		if buf, err = appendResponse(buf[:0], pointResponse, ReqQuery); err != nil {
			b.Fatal(err)
		}
		if err := decodeResponse(buf[lenSize:], &resp); err != nil {
			b.Fatal(err)
		}
		rowsSink = resp.Batch.Rows()
	}
}

var hopSink string

// BenchmarkJSONBHop is what one ingested event costs on its way in: the
// COPY request encoded by the client and decoded by the coordinator, encoded
// again toward the worker and decoded there, then the index expression's
// path query and ::text.
func BenchmarkJSONBHop(b *testing.B) {
	commits := make([]any, 3)
	for i := range commits {
		commits[i] = map[string]any{
			"sha":     "0123456789abcdef",
			"message": "fix postgres index cache performance",
			"author":  map[string]any{"name": "user123"},
		}
	}
	doc := jsonb.FromGo(map[string]any{
		"type":       "PushEvent",
		"created_at": "2020-02-03T04:05:06Z",
		"actor":      map[string]any{"login": "user42"},
		"repo":       map[string]any{"name": "org/repo7"},
		"payload":    map[string]any{"push_id": 12345, "commits": commits},
	})
	req := &Request{Kind: ReqCopy, Table: "github_events", Rows: []types.Row{{int64(1), doc}}}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop := req
		for h := 0; h < 2; h++ {
			var err error
			if buf, err = appendRequest(buf[:0], hop); err != nil {
				b.Fatal(err)
			}
			var next Request
			if err := decodeRequest(buf[lenSize:], &next); err != nil {
				b.Fatal(err)
			}
			hop = &next
		}
		msgs, err := hop.Rows[0][1].(jsonb.Value).PathQueryArray("$.payload.commits[*].message")
		if err != nil {
			b.Fatal(err)
		}
		hopSink = msgs.String()
	}
}

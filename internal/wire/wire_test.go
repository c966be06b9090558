package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/jsonb"
	"citusgo/internal/obs"
	"citusgo/internal/trace"
	"citusgo/internal/types"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Name: "node"})
	t.Cleanup(e.Close)
	return e
}

// connect opens an in-process connection to e: a socket pair into a server
// of its own, paying rtt per flushed batch.
func connect(t *testing.T, e *engine.Engine, rtt time.Duration) *Conn {
	t.Helper()
	srv, err := Serve(e, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := srv.Connect(rtt)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func testConnBehavior(t *testing.T, conn *Conn) {
	t.Helper()
	if _, err := conn.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("CREATE TABLE t (k bigint PRIMARY KEY, v text, d jsonb, ts timestamp)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("INSERT INTO t (k, v, d, ts) VALUES ($1, $2, $3, $4)",
		int64(1), "hello", jsonb.MustParse(`{"a": 1}`), time.Date(2021, 1, 2, 3, 4, 5, 0, time.UTC))
	if err != nil || res.Affected != 1 {
		t.Fatalf("insert: %v %v", res, err)
	}
	res, err = conn.Query("SELECT k, v, d->>'a', ts FROM t WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(string) != "hello" || res.Rows[0][2].(string) != "1" {
		t.Fatalf("select: %v", res.Rows)
	}
	if _, ok := res.Rows[0][3].(time.Time); !ok {
		t.Fatalf("timestamp type lost in transit: %T", res.Rows[0][3])
	}

	// COPY
	n, err := conn.Copy("t", []string{"k", "v"}, []types.Row{{int64(2), "two"}, {int64(3), "three"}})
	if err != nil || n != 2 {
		t.Fatalf("copy: %d %v", n, err)
	}
	// rows count
	res, err = conn.Query("SELECT count(*) FROM t")
	if err != nil || res.Rows[0][0].(int64) != 3 {
		t.Fatalf("rows: %v %v", res, err)
	}

	// errors travel back as errors
	if _, err := conn.Query("SELECT * FROM missing_table"); err == nil {
		t.Fatal("expected error for missing table")
	}

	// intermediate results (dropping them is a node function: nodefn_test.go)
	pl := conn.Pipeline(0)
	pd := pl.AppendResult("ir1", []string{"x"}, []types.Row{{int64(42)}})
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pd.Err(); err != nil {
		t.Fatal(err)
	}
	res, err = conn.Query("SELECT x FROM ir1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].(int64) != 42 {
		t.Fatalf("intermediate: %v %v", res, err)
	}
}

func TestLocalTransport(t *testing.T) {
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	testConnBehavior(t, conn)
}

func TestTCPTransport(t *testing.T) {
	e := newEngine(t)
	srv, err := Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	testConnBehavior(t, conn)
}

func TestSessionStatePerConnection(t *testing.T) {
	e := newEngine(t)
	c1 := connect(t, e, 0)
	c2 := connect(t, e, 0)
	defer c1.Close()
	defer c2.Close()
	if _, err := c1.Query("CREATE TABLE s (k bigint PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	// an open transaction on c1 is invisible on c2
	mustQ(t, c1, "BEGIN")
	mustQ(t, c1, "INSERT INTO s (k) VALUES (1)")
	res, err := c2.Query("SELECT count(*) FROM s")
	if err != nil || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("uncommitted row leaked across connections: %v %v", res, err)
	}
	mustQ(t, c1, "COMMIT")
	res, _ = c2.Query("SELECT count(*) FROM s")
	if res.Rows[0][0].(int64) != 1 {
		t.Fatal("commit not visible")
	}
}

func TestConnCloseRollsBackOpenTransaction(t *testing.T) {
	e := newEngine(t)
	c1 := connect(t, e, 0)
	mustQ(t, c1, "CREATE TABLE r (k bigint PRIMARY KEY)")
	mustQ(t, c1, "BEGIN")
	mustQ(t, c1, "INSERT INTO r (k) VALUES (1)")
	_ = c1.Close()
	c2 := connect(t, e, 0)
	defer c2.Close()
	res, err := c2.Query("SELECT count(*) FROM r")
	if err != nil || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("dropped connection's transaction leaked: %v %v", res, err)
	}
}

// TestConnKeepsNoStatementState: a connection's only per-text state is its
// server session's statement cache, which is bounded (the engine pins the
// bound: TestSessionStmtCacheBounded). 300 distinct texts, more than the cache
// holds, are each parsed once; then the first is no longer cached and is
// parsed again, and the last is still a hit — in process and over TCP.
func TestConnKeepsNoStatementState(t *testing.T) {
	dial := map[string]func(*testing.T, *engine.Engine) *Conn{
		"local": func(t *testing.T, e *engine.Engine) *Conn { return connect(t, e, 0) },
		"tcp": func(t *testing.T, e *engine.Engine) *Conn {
			srv, err := Serve(e, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			conn, err := Dial(srv.Addr(), "node")
			if err != nil {
				t.Fatal(err)
			}
			return conn
		},
	}
	for name, d := range dial {
		t.Run(name, func(t *testing.T) {
			conn := d(t, newEngine(t))
			defer conn.Close()
			mustQ(t, conn, "CREATE TABLE sc (k bigint PRIMARY KEY)")
			text := func(i int) string { return fmt.Sprintf("SELECT k FROM sc WHERE k = $1 AND k <> %d", i) }
			moved := func(run func()) (hits, misses int64) {
				before := obs.Default().Snapshot()
				run()
				after := obs.Default().Snapshot()
				return after.Sum("engine_plancache_hits") - before.Sum("engine_plancache_hits"),
					after.Sum("engine_plancache_misses") - before.Sum("engine_plancache_misses")
			}
			query := func(i int) func() {
				return func() {
					if _, err := conn.Query(text(i), int64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			const texts = 300
			if hits, misses := moved(func() {
				for i := 0; i < texts; i++ {
					query(i)()
				}
			}); hits != 0 || misses != texts {
				t.Fatalf("%d distinct texts: %d hits, %d misses; want each parsed once", texts, hits, misses)
			}
			if hits, misses := moved(query(texts - 1)); hits != 1 || misses != 0 {
				t.Errorf("the last text again: %d hits, %d misses; want a hit", hits, misses)
			}
			if hits, misses := moved(query(0)); hits != 0 || misses != 1 {
				t.Errorf("the first text again: %d hits, %d misses; want it parsed again: %d texts fit no bounded cache", hits, misses, texts)
			}
		})
	}
}

func TestSimulatedRTT(t *testing.T) {
	e := newEngine(t)
	conn := connect(t, e, 3*time.Millisecond)
	defer conn.Close()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := conn.Query("SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("RTT not charged: %v", elapsed)
	}
}

func mustQ(t *testing.T, c *Conn, q string) {
	t.Helper()
	if _, err := c.Query(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// TestZeroValueHeaderAccepted covers the mixed-version-cluster case: an
// old-style client that knows nothing about the header extension sends a
// zero-value Header, and the server must execute the request normally,
// as untraced — even when a previous request on the same session carried
// a trace context.
func TestZeroValueHeaderAccepted(t *testing.T) {
	e := newEngine(t)
	e.Tracer = trace.New(7, "node", trace.Config{})
	h := newHandler(e)
	if resp := h.handle(&Request{Kind: ReqQuery, SQL: "CREATE TABLE zv (k bigint)"}); resp.Err != "" {
		t.Fatalf("zero-header DDL rejected: %s", resp.Err)
	}

	// a traced request installs a context on the session...
	traced := &Request{
		Kind: ReqQuery,
		Hdr:  Header{Version: HeaderV1, TraceID: 42, SpanID: 43},
		SQL:  "INSERT INTO zv (k) VALUES (1)",
	}
	if resp := h.handle(traced); resp.Err != "" {
		t.Fatalf("traced insert failed: %s", resp.Err)
	}
	if spans := e.Tracer.Collect(42); len(spans) == 0 {
		t.Fatal("traced request recorded no spans under the header's trace id")
	}

	// ...and the next zero-header request must run untraced, not inherit it
	zero := &Request{Kind: ReqQuery, SQL: "INSERT INTO zv (k) VALUES (2)"}
	if resp := h.handle(zero); resp.Err != "" {
		t.Fatalf("zero-header request rejected: %s", resp.Err)
	}
	before := len(e.Tracer.Collect(42))
	if h.sess.TraceID != 0 || h.sess.SpanID != 0 {
		t.Fatalf("stale trace context leaked: trace=%d span=%d", h.sess.TraceID, h.sess.SpanID)
	}
	if after := len(e.Tracer.Collect(42)); after != before {
		t.Fatalf("zero-header request recorded spans under the old trace (%d -> %d)", before, after)
	}

	res := h.handle(&Request{Kind: ReqQuery, SQL: "SELECT count(*) FROM zv"})
	if res.Err != "" || res.Rows[0][0].(int64) != 2 {
		t.Fatalf("rows after mixed-header inserts: %+v", res)
	}
}

// corruptingProxy forwards a TCP connection to addr and, while armed,
// overwrites the next occurrence of a byte string in the client's stream
// with another of the same length — the framing stays intact, only the datum
// inside is no longer what jsonb.ValidateWire accepts.
type corruptingProxy struct {
	ln        net.Listener
	mu        sync.Mutex
	from, to  []byte
	corrupted int
}

func newCorruptingProxy(t *testing.T, addr string) *corruptingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &corruptingProxy{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer server.Close()
		go func() { _, _ = io.Copy(client, server) }()
		buf := make([]byte, 64<<10)
		for {
			n, err := client.Read(buf)
			if err != nil {
				return
			}
			p.mu.Lock()
			if i := bytes.Index(buf[:n], p.from); p.from != nil && i >= 0 {
				copy(buf[i:], p.to)
				p.from = nil
				p.corrupted++
			}
			p.mu.Unlock()
			if _, err := server.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return p
}

func (p *corruptingProxy) arm(from, to []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.from, p.to = from, to
}

// TestMalformedJSONBFailsOnlyItsRequest: jsonb bytes that arrive damaged, or
// in the JSON text form a node from before the flat encoding sends, are an
// error response to that one request, under that request's Seq; connection
// and server carry on, and so do the request's neighbours in a pipelined
// window.
func TestMalformedJSONBFailsOnlyItsRequest(t *testing.T) {
	e := newEngine(t)
	srv, err := Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newCorruptingProxy(t, srv.Addr())
	conn, err := Dial(proxy.ln.Addr().String(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mustQ(t, conn, "CREATE TABLE j (k bigint PRIMARY KEY, d jsonb)")

	doc := jsonb.MustParse(`{"marker": "0123456789abcdef", "n": [1, 2]}`)
	good := doc.AppendWire(nil)
	textForm := append([]byte(`{"marker": "x"}`), bytes.Repeat([]byte(" "), len(good))...)[:len(good)]
	// good is the version byte, the object's tag, its member count (4
	// bytes), then one end offset (4 bytes) per member
	badCount := bytes.Clone(good)
	badCount[2] = 0xff
	badOffset := bytes.Clone(good)
	badOffset[10] = 0xff

	for i, bad := range [][]byte{textForm, badCount, badOffset} {
		key := int64(i)
		proxy.arm(good, bad)
		_, err := conn.Copy("j", nil, []types.Row{{key, doc}})
		if err == nil || IsTransient(err) || !strings.Contains(err.Error(), jsonb.ErrMalformed.Error()) {
			t.Fatalf("case %d: COPY of damaged jsonb: %v", i, err)
		}
		// the same connection, and the same row undamaged, still work
		if n, err := conn.Copy("j", nil, []types.Row{{key, doc}}); err != nil || n != 1 {
			t.Fatalf("case %d: COPY after the refused one: %d %v", i, n, err)
		}
		// the refusal carries the Seq of the request it answers
		proxy.arm(good, bad)
		req := &Request{Kind: ReqQuery, SQL: "INSERT INTO j (k, d) VALUES ($1, $2)", Params: []types.Datum{key + 100, doc}}
		if err := conn.send(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.t.recv()
		if err != nil || resp.Seq != req.Seq || resp.Seq == 0 || !strings.Contains(resp.Err, jsonb.ErrMalformed.Error()) {
			t.Fatalf("case %d: INSERT with a damaged jsonb parameter (seq %d): %+v %v", i, req.Seq, resp, err)
		}

		// a window of three with the damaged request in the middle
		other := jsonb.MustParse(`{"marker": "other"}`)
		proxy.arm(good, bad)
		pl := conn.Pipeline(8)
		before := pl.Copy("j", nil, []types.Row{{key + 200, other}})
		middle := pl.Copy("j", nil, []types.Row{{key + 300, doc}})
		after := pl.Query("SELECT count(*) FROM j WHERE k >= 200")
		if err := pl.Flush(); err != nil {
			t.Fatalf("case %d: a refused datum poisoned the window: %v", i, err)
		}
		if res, err := before.Result(); err != nil || res.Affected != 1 {
			t.Fatalf("case %d: request before the refused one: %v %v", i, res, err)
		}
		if err := middle.Err(); err == nil || IsTransient(err) || !strings.Contains(err.Error(), jsonb.ErrMalformed.Error()) {
			t.Fatalf("case %d: refused request inside a window: %v", i, err)
		}
		if res, err := after.Result(); err != nil || res.Rows[0][0].(int64) != int64(i+1) {
			t.Fatalf("case %d: request after the refused one: %v %v", i, res, err)
		}
	}
	if proxy.corrupted != 9 {
		t.Fatalf("proxy damaged %d requests, want 9", proxy.corrupted)
	}
	res, err := conn.Query("SELECT count(*), min(d->>'marker') FROM j WHERE k < 100")
	if err != nil || res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(string) != "0123456789abcdef" {
		t.Fatalf("after the refused requests: %v %v", res, err)
	}
	// a second client is served too
	other, err := Dial(srv.Addr(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

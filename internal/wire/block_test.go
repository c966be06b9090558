package wire

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/types"
)

// blockReq is a statement request that names a transaction block.
func blockReq(distID, sqlText string, params ...types.Datum) *Request {
	return &Request{Kind: ReqQuery, Hdr: Header{Version: HeaderV2, Block: Block{DistID: distID}}, SQL: sqlText, Params: params}
}

func countRows(t *testing.T, e *engine.Engine, table string) int64 {
	t.Helper()
	res, err := e.NewSession().Exec("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].(int64)
}

// TestBlockOpensWithItsStatement pins the server half of the transaction
// block protocol: a request that names a block opens it as one step with its
// statement, the same name proceeds inside it, any other name is refused
// with nothing executed, and the block's end leaves the session with neither
// the name nor the isolation level.
func TestBlockOpensWithItsStatement(t *testing.T) {
	defer fault.Reset()
	e := newEngine(t)
	h := newHandler(e)
	defer h.closeSession()
	plain := func(q string) Response { return h.handle(&Request{Kind: ReqQuery, SQL: q}) }
	if resp := plain("CREATE TABLE b (k bigint PRIMARY KEY)"); resp.Err != "" {
		t.Fatal(resp.Err)
	}

	if resp := h.handle(blockReq("7:1:1", "INSERT INTO b (k) VALUES (1)")); resp.Err != "" {
		t.Fatalf("first request of the block: %s", resp.Err)
	}
	if !h.sess.InTransaction() || h.sess.Txn().DistID() != "7:1:1" {
		t.Fatalf("the request did not open its block: in transaction %v, txn %+v", h.sess.InTransaction(), h.sess.Txn())
	}
	if n := countRows(t, e, "b"); n != 0 {
		t.Fatalf("the insert ran outside the block: %d rows visible to another session", n)
	}
	if resp := h.handle(blockReq("7:1:1", "INSERT INTO b (k) VALUES (2)")); resp.Err != "" {
		t.Fatalf("second request of the same block: %s", resp.Err)
	}

	// another block's request: refused, nothing executed, this block intact
	resp := h.handle(blockReq("7:1:2", "INSERT INTO b (k) VALUES (3)"))
	if err := respErr(&resp); !IsBlockRefused(err) {
		t.Fatalf("request naming another block: %v, want ErrBlockRefused", err)
	}
	if open := h.sess.Txn(); open == nil || open.DistID() != "7:1:1" {
		t.Fatalf("the refused request disturbed the open block: %+v", open)
	}

	// The block's own COMMIT names no block. It ends the name with it.
	if resp := plain("COMMIT"); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if n := countRows(t, e, "b"); n != 2 {
		t.Fatalf("%d rows after commit, want the block's 2", n)
	}
	if h.sess.InTransaction() || h.sess.Serializable() {
		t.Fatal("the session kept transaction state past COMMIT")
	}
	if resp := plain("INSERT INTO b (k) VALUES (4)"); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if n := countRows(t, e, "b"); n != 3 {
		t.Fatalf("autocommit insert after the block: %d rows visible, want 3", n)
	}

	// ROLLBACK and PREPARE TRANSACTION end it the same way.
	for _, end := range []string{"ROLLBACK", "PREPARE TRANSACTION 'g1'"} {
		req := blockReq("7:1:3", "INSERT INTO b (k) VALUES (5)")
		req.Hdr.Block.Serializable = true
		if resp := h.handle(req); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if !h.sess.Serializable() || len(e.SSISessions()) == 0 {
			t.Fatalf("%s: a serializable block did not enrol its transaction at open", end)
		}
		if resp := plain(end); resp.Err != "" {
			t.Fatalf("%s: %s", end, resp.Err)
		}
		if h.sess.InTransaction() || h.sess.Serializable() {
			t.Fatalf("%s left the block's state on the session", end)
		}
	}
	if resp := plain("ROLLBACK PREPARED 'g1'"); resp.Err != "" {
		t.Fatal(resp.Err)
	}

	// A header older than the block field carries none, whatever its bytes.
	old := blockReq("7:1:4", "INSERT INTO b (k) VALUES (6)")
	old.Hdr.Version = HeaderV1
	if resp := h.handle(old); resp.Err != "" || h.sess.InTransaction() {
		t.Fatalf("HeaderV1 request: %q, in transaction %v; want an autocommit insert", resp.Err, h.sess.InTransaction())
	}

	// An open that fails inside the engine: refused, nothing executed, no
	// block left half open.
	fault.Arm(fault.Rule{Point: fault.PointEngineBlockOpen, Action: fault.ActError, Count: 1})
	before := countRows(t, e, "b")
	resp = h.handle(blockReq("7:1:5", "INSERT INTO b (k) VALUES (7)"))
	if err := respErr(&resp); !IsBlockRefused(err) || !strings.Contains(err.Error(), fault.ErrInjected.Error()) {
		t.Fatalf("open failed in the engine: %v, want ErrBlockRefused wrapping the fault", err)
	}
	if h.sess.InTransaction() || countRows(t, e, "b") != before {
		t.Fatal("a failed open left a block open or let its statement run")
	}
}

// TestBlockIsolationByteChecked: the block's isolation level is one byte of
// the request header with three values; any other fails its own request
// under its own Seq and the stream carries on.
func TestBlockIsolationByteChecked(t *testing.T) {
	good := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 1})
	bad := encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 2, Hdr: Header{Version: HeaderV2, Block: Block{DistID: "d", Serializable: true}}})
	if bad[lenSize+reqHdrSize-1] != blockSerializable {
		t.Fatalf("the isolation byte is not where the header table says: % x", bad[:lenSize+reqHdrSize])
	}
	bad[lenSize+reqHdrSize-1] = blockRepeatableRead + 1
	resps, err := serveBytes(t, append(append(good, bad...), encodeRequests(t, &Request{Kind: ReqQuery, SQL: "SELECT 1", Seq: 3})...))
	if err != io.EOF || len(resps) != 3 {
		t.Fatalf("%d responses, %v; want all three answered", len(resps), err)
	}
	if resps[0].Err != "" || resps[2].Err != "" || resps[1].Seq != 2 || !strings.Contains(resps[1].Err, "isolation") {
		t.Fatalf("responses %+v %+v %+v", resps[0], resps[1], resps[2])
	}
}

// TestStartWritesNow pins the two halves of a round trip. Over TCP, Start
// puts the request on the wire: the server executes it while the client has
// read nothing, which is what lets statements started on several connections
// run at the same time. Over either transport the halves together are Query,
// and a transport failure in either half is a ConnError on Finish.
func TestStartWritesNow(t *testing.T) {
	defer fault.Reset()
	e := newEngine(t)
	srv, err := Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := Dial(srv.Addr(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	mustQ(t, tcp, "CREATE TABLE sw (k bigint PRIMARY KEY)")

	pd := tcp.Start("INSERT INTO sw (k) VALUES (1)")
	deadline := time.Now().Add(10 * time.Second)
	for countRows(t, e, "sw") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("a started request was not executed until its response was asked for")
		}
		time.Sleep(time.Millisecond)
	}
	if res, err := tcp.Finish(pd); err != nil || res.Affected != 1 {
		t.Fatalf("Finish: %+v, %v", res, err)
	}

	local := connect(t, e, 0)
	defer local.Close()
	for _, conn := range []*Conn{tcp, local} {
		// two connections' statements started, then finished: a flight
		other := connect(t, e, 0)
		a, b := conn.Start("SELECT count(*) FROM sw"), other.Start("SELECT k FROM sw")
		if res, err := other.Finish(b); err != nil || len(res.Rows) != 1 {
			t.Fatalf("%+v, %v", res, err)
		}
		if res, err := conn.Finish(a); err != nil || res.Rows[0][0].(int64) != 1 {
			t.Fatalf("%+v, %v", res, err)
		}
		other.Close()
		// a semantic error is that statement's, and the connection lives on
		if _, err := conn.Finish(conn.Start("SELECT * FROM missing")); err == nil || IsTransient(err) {
			t.Fatalf("missing table: %v, want the server's error", err)
		}
		for _, point := range []string{fault.PointWireSend, fault.PointWireRecv} {
			fault.Arm(fault.Rule{Point: point, Key: "query", Action: fault.ActError, Count: 1})
			_, err := conn.Finish(conn.Start("SELECT 1"))
			var ce *ConnError
			if !errors.As(err, &ce) {
				t.Fatalf("%s fault: %v, want a ConnError", point, err)
			}
			fault.Reset()
			if point == fault.PointWireRecv {
				// the response was read and dropped: the streams still line up
				mustQ(t, conn, "SELECT 1")
			}
		}
	}
}

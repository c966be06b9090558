// Package wire implements the client/server protocol between nodes:
// length-prefixed binary frames (codec.go) over one transport (tcp.go), a
// TCP connection or, inside one process, a Unix socket pair into the same
// server loop. Worker nodes speak this protocol the way PostgreSQL servers
// speak the PostgreSQL protocol in a Citus cluster — the coordinator is
// just another client to them.
package wire

import (
	"errors"
	"fmt"
	"strings"

	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
)

var (
	metPipelineBatches = obs.Default().Counter("wire_pipeline_batches_total",
		"pipelined request batches flushed").With()
	metPipelineDepth = obs.Default().Histogram("wire_pipeline_depth",
		"requests per flushed pipeline batch", nil).With()
)

// RequestKind enumerates protocol messages. It is one byte of the frame
// prefix.
type RequestKind uint8

// The values are the protocol. Three kinds are live; every other byte is
// refused. 2, 3 and 5–13 are retired: 9 and 10 were an earlier version's
// prepared-statement pair, the rest its private node calls (lock graph,
// cancel, drop results, table rows, prepared list, ping, trace spans, SSI
// edges, doom), which are now node functions a coordinator sends as
// statements. A frame from a peer that still sends one is an unknown kind,
// refused under its own Seq, never some other request.
const (
	// ReqQuery executes SQL, with its parameters, and returns rows. It is
	// also how a coordinator calls a worker's node functions
	// (SELECT citus_node_wait_edges(), ...).
	ReqQuery RequestKind = 0
	// ReqCopy bulk-loads pre-parsed rows into a table.
	ReqCopy RequestKind = 1
	// ReqAppendResult appends rows to a named intermediate result: the
	// adaptive executor's append tasks (Pipeline.AppendResult) ship
	// subplan results, broadcast relations and repartition buckets.
	ReqAppendResult RequestKind = 4
)

// String names the request kind; fault-injection rules key wire.send /
// wire.recv points on these names to target one message type.
func (k RequestKind) String() string {
	switch k {
	case ReqQuery:
		return "query"
	case ReqCopy:
		return "copy"
	case ReqAppendResult:
		return "append_result"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Header extension versions: HeaderV1 added the trace context, HeaderV2 the
// transaction block.
const (
	HeaderV1 = 1
	HeaderV2 = 2
)

// Header is the versioned extension header carried by every Request.
// New cross-cutting request metadata goes here (with a version bump)
// instead of into ad-hoc Request fields, so servers can tell "field
// absent" from "field zero". The zero value is what an old-style client
// sends — a server treats it as "no extension data" and must accept it,
// keeping mixed-version clusters working.
type Header struct {
	Version uint8
	// TraceID/SpanID propagate the coordinator statement's trace context
	// (Version >= HeaderV1): server-side execution records its spans
	// under TraceID, parented at SpanID. Zero means untraced.
	TraceID uint64
	SpanID  uint64
	// Block (Version >= HeaderV2) is the transaction block the request's
	// statement belongs to; the zero value is none, an autocommit statement.
	Block Block
}

// Block names a coordinator's transaction block on a worker session. Every
// request a coordinator issues inside a distributed transaction carries it,
// and the server opens the block as one step with executing the statement
// (handler.enterBlock): there is no request that only opens a block, so no
// statement can run outside the block its coordinator meant it for.
type Block struct {
	// DistID is the distributed transaction id; "" means no block.
	DistID string
	// Serializable and RepeatableRead are the block's isolation level:
	// under either the worker's transaction keeps its first statement's
	// snapshot, and a serializable one enrols in SSI tracking when the
	// block opens (docs/ssi.md). Neither is read committed.
	Serializable   bool
	RepeatableRead bool
}

// Request is one protocol request.
type Request struct {
	Kind    RequestKind
	Hdr     Header
	SQL     string
	Params  []types.Datum
	Table   string
	Columns []string
	Rows    []types.Row // all of one length (rowbatch.Append)
	Name    string      // intermediate result name

	// Seq is the per-connection correlation id, assigned by the client
	// and echoed in the matching Response. Requests and responses travel
	// strictly in order, so Seq carries no routing information — it
	// exists so a pipelining client can *prove* the pairing held and
	// treat any mismatch as connection corruption rather than silently
	// delivering another request's rows.
	Seq uint64
}

// Response is one protocol response.
type Response struct {
	Columns []string
	// The result's rows, one way or the other: Rows as the engine produced
	// them (a server's own result), or Batch, the wire form a client
	// received — and a coordinator passes on as it is for a one-task plan.
	Rows     []types.Row
	Batch    rowbatch.Batch
	Tag      string
	Affected int
	Err      string

	// Seq echoes the request's correlation id (zero from a pre-Seq
	// server; clients only verify it when nonzero).
	Seq uint64
}

// transport is a connection's client side: tcpTransport, refused, or a
// test's fake.
// send and recv are decoupled so a client can keep several requests in
// flight (pipelining): send enqueues/encodes one request without waiting,
// recv delivers the
// oldest outstanding response. Responses always arrive in request order —
// the protocol has no out-of-order delivery — and the Seq correlation id
// lets the client verify that invariant held. A response's Batch may alias
// the transport's read buffer: it is good until the next recv.
type transport interface {
	send(req *Request) error
	// flush writes out what send has buffered without waiting for a
	// response; recv does so too, before it reads.
	flush() error
	recv() (Response, error)
	close() error
}

// Conn is a client connection to one node. A Conn corresponds to one
// server-side session, so transaction state is per-Conn, exactly like a
// PostgreSQL connection. Conn is not safe for concurrent use; the executor
// serializes requests per connection.
type Conn struct {
	t      transport
	node   string
	closed bool

	// traceID/spanID are stamped into the header of every statement
	// request until cleared — the executor sets them per task; the pool
	// clears them when the connection is checked back in.
	traceID uint64
	spanID  uint64
	// block is stamped the same way, for the length of one task window.
	block Block

	// seq numbers every request sent on this connection (correlation
	// ids); responses must come back carrying the same sequence.
	seq uint64
}

// SetTrace attaches a trace context to the connection: subsequent
// statement requests carry it so the server's spans join the trace.
func (c *Conn) SetTrace(traceID, spanID uint64) {
	c.traceID, c.spanID = traceID, spanID
}

// ClearTrace detaches the trace context (pool check-in).
func (c *Conn) ClearTrace() { c.traceID, c.spanID = 0, 0 }

// SetBlock attaches a transaction block to the connection: subsequent
// statement requests carry it until ClearBlock.
func (c *Conn) SetBlock(b Block) { c.block = b }

// ClearBlock detaches the transaction block: later requests, the block's own
// COMMIT or PREPARE TRANSACTION among them, name none.
func (c *Conn) ClearBlock() { c.block = Block{} }

// hdr builds the versioned request header from the connection state.
func (c *Conn) hdr() Header {
	return Header{Version: HeaderV2, TraceID: c.traceID, SpanID: c.spanID, Block: c.block}
}

// ConnError marks a transport-level failure: the request may never have
// reached the peer, or the response was lost in flight. It is distinct
// from a semantic error (Response.Err), which the peer definitely
// produced while executing. Callers may retry idempotent work on a
// ConnError; they must never retry on a semantic error.
type ConnError struct {
	Node string
	Err  error
}

func (e *ConnError) Error() string { return "conn " + e.Node + ": " + e.Err.Error() }
func (e *ConnError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a transport-level connection failure
// (the executor's retry-on-idempotent-task predicate).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var ce *ConnError
	return errors.As(err, &ce)
}

// send is the one issue step every client request takes, pipelined or not:
// the wire.send fault point (request lost before reaching the peer), Seq
// assignment, transport send. All failures come back as ConnError so
// callers can tell transient breakage from semantic errors.
func (c *Conn) send(req *Request) error {
	if err := fault.CheckKey(fault.PointWireSend, req.Kind.String()); err != nil {
		return c.transportFailure(err)
	}
	c.seq++
	req.Seq = c.seq
	if err := c.t.send(req); err != nil {
		return &ConnError{Node: c.node, Err: err}
	}
	return nil
}

// recv is the matching receive step for the oldest outstanding request:
// transport recv, correlation check, then the wire.recv fault point (peer
// executed, but the response was lost).
func (c *Conn) recv(kind RequestKind, seq uint64) (Response, error) {
	resp, err := c.t.recv()
	if err != nil {
		return Response{}, &ConnError{Node: c.node, Err: err}
	}
	if resp.Seq != 0 && resp.Seq != seq {
		return Response{}, c.misdelivery(seq, resp.Seq)
	}
	if err := fault.CheckKey(fault.PointWireRecv, kind.String()); err != nil {
		return Response{}, c.transportFailure(err)
	}
	return resp, nil
}

// call is one request with nothing else in flight: send, then recv. The
// peer's Response.Err comes back as the error.
func (c *Conn) call(req Request) (Response, error) {
	if err := c.send(&req); err != nil {
		return Response{}, err
	}
	resp, err := c.recv(req.Kind, req.Seq)
	if err != nil {
		return Response{}, err
	}
	return resp, respErr(&resp)
}

// respErr maps a response to the semantic error the peer reported, if any.
// Errors cross the wire as text; a request refused for its transaction block
// becomes ErrBlockRefused.
func respErr(resp *Response) error {
	if resp.Err == "" {
		return nil
	}
	if strings.HasPrefix(resp.Err, blockRefusedPrefix) {
		return fmt.Errorf("%w: %s", ErrBlockRefused, strings.TrimPrefix(resp.Err, blockRefusedPrefix))
	}
	return errors.New(resp.Err)
}

// misdelivery handles a correlation-id mismatch: the connection's
// request/response streams are out of sync (something consumed or
// produced a message we didn't account for), so nothing further read
// from it can be trusted. Close it and surface a transport-level error;
// a zero response Seq is tolerated in recv as "pre-Seq peer".
func (c *Conn) misdelivery(want, got uint64) error {
	_ = c.Close()
	return &ConnError{
		Node: c.node,
		Err:  fmt.Errorf("response misdelivery: got seq %d, want %d", got, want),
	}
}

// transportFailure converts an injected fault into a transport-level
// error; drop-connection faults also tear down the underlying transport,
// so the failure looks like a peer reset rather than a clean refusal.
func (c *Conn) transportFailure(err error) error {
	if errors.Is(err, fault.ErrDropConn) {
		_ = c.Close()
	}
	return &ConnError{Node: c.node, Err: err}
}

// Node returns the peer node's name.
func (c *Conn) Node() string { return c.node }

// Close terminates the connection (server aborts any open transaction).
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.t.close()
}

// Query executes SQL on the peer.
func (c *Conn) Query(sqlText string, params ...types.Datum) (*engine.Result, error) {
	resp, err := c.call(Request{Kind: ReqQuery, Hdr: c.hdr(), SQL: sqlText, Params: params})
	if err != nil {
		return nil, err
	}
	return respToResult(&resp), nil
}

// ErrBlockRefused is a request the server would not execute because the
// transaction block it names (Header.Block) could not be entered: the
// session is inside another block, or opening this one failed. Nothing of
// the statement ran. The session is not in the state its client assumes, so
// the client discards the connection.
var ErrBlockRefused = errors.New("transaction block refused")

const blockRefusedPrefix = "block refused: "

// IsBlockRefused reports whether err is ErrBlockRefused.
func IsBlockRefused(err error) bool { return errors.Is(err, ErrBlockRefused) }

// Start is the first half of Query: the request is sent and written out, and
// its response is left for Finish to read. A caller with one statement for
// each of several connections starts them all before it finishes any, so the
// peers work at the same time and it waits once (the commit protocol's
// flights). It is one request in flight on this connection, which any
// pipeline window allows; nothing else may use the connection until Finish.
func (c *Conn) Start(sqlText string) *Pending {
	pd := &Pending{kind: ReqQuery, req: Request{Kind: ReqQuery, Hdr: c.hdr(), SQL: sqlText}}
	if pd.err = c.send(&pd.req); pd.err == nil {
		if err := c.t.flush(); err != nil {
			pd.err = &ConnError{Node: c.node, Err: err}
		}
	}
	pd.seq, pd.done = pd.req.Seq, pd.err != nil
	return pd
}

// Finish is the second half: it reads the response to a started request.
func (c *Conn) Finish(pd *Pending) (*engine.Result, error) {
	if !pd.done {
		pd.resp, pd.err = c.recv(pd.kind, pd.seq)
		pd.done, pd.req = true, Request{}
	}
	return pd.Result()
}

// Copy bulk-loads rows.
func (c *Conn) Copy(table string, columns []string, rows []types.Row) (int, error) {
	resp, err := c.call(Request{
		Kind: ReqCopy, Hdr: c.hdr(), Table: table, Columns: columns, Rows: rows,
	})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// respToResult is the result a client asked for: the rows decoded. It must
// run before the connection's next recv (see tcpTransport.recv).
func respToResult(resp *Response) *engine.Result {
	res := respToEncodedResult(resp)
	if res.Rows == nil {
		res.Rows = res.Batch.Rows()
	}
	res.Batch = rowbatch.Batch{}
	return res
}

// respToEncodedResult leaves rows that arrived in wire form as they are
// (engine.Result.Batch), for a caller that may pass them on unread.
func respToEncodedResult(resp *Response) *engine.Result {
	return &engine.Result{
		Columns:  resp.Columns,
		Rows:     resp.Rows,
		Batch:    resp.Batch,
		Tag:      resp.Tag,
		Affected: resp.Affected,
	}
}

// ---------------------------------------------------------------------------
// Server-side request handling

// handler owns one server-side session. The session's statement cache
// (engine.Session.ExecForward) is what keeps a repeated task from being parsed
// again; the protocol has no state of its own to go stale.
type handler struct {
	eng  *engine.Engine
	sess *engine.Session
}

func newHandler(e *engine.Engine) *handler {
	return &handler{eng: e, sess: e.NewSession()}
}

// applyTrace installs the request's trace context (if any) on the
// server session before executing a statement. A zero-value header —
// what an old-style client sends — installs zeros, i.e. untraced, so
// mixed-version clusters keep working; it also guarantees a stale
// context from a previous request never leaks into the next statement.
func (h *handler) applyTrace(req *Request) {
	if req.Hdr.Version >= HeaderV1 {
		h.sess.TraceID, h.sess.SpanID = req.Hdr.TraceID, req.Hdr.SpanID
	} else {
		h.sess.TraceID, h.sess.SpanID = 0, 0
	}
}

// enterBlock puts the session inside the transaction block the request
// names, if it names one: it opens the block when the session has none,
// proceeds when that block is already open, and refuses the request
// otherwise. Every kind that executes a statement calls it directly before
// executing, so the open and the statement are one step.
func (h *handler) enterBlock(req *Request) error {
	b := req.Hdr.Block
	if req.Hdr.Version < HeaderV2 || b.DistID == "" {
		return nil
	}
	if err := h.sess.OpenBlock(b.DistID, b.Serializable, b.RepeatableRead); err != nil {
		return errors.New(blockRefusedPrefix + err.Error())
	}
	return nil
}

func (h *handler) handle(req *Request) Response {
	switch req.Kind {
	case ReqQuery:
		h.applyTrace(req)
		if err := h.enterBlock(req); err != nil {
			return Response{Err: err.Error()}
		}
		res, err := h.sess.ExecForward(req.SQL, req.Params...)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return resultResponse(res)
	case ReqCopy:
		h.applyTrace(req)
		if err := h.enterBlock(req); err != nil {
			return Response{Err: err.Error()}
		}
		n, err := h.sess.CopyFrom(req.Table, req.Columns, req.Rows)
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Affected: n, Tag: fmt.Sprintf("COPY %d", n)}
	case ReqAppendResult:
		h.eng.AppendIntermediateResult(req.Name, req.Columns, req.Rows)
		return Response{}
	}
	return Response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
}

// resultResponse answers a statement with its result. Rows the session got
// in wire form from a worker and did not look at go out the same way.
func resultResponse(res *engine.Result) Response {
	return Response{
		Columns: res.Columns, Rows: res.Rows, Batch: res.Batch,
		Tag: res.Tag, Affected: res.Affected,
	}
}

// closeSession aborts any open transaction when the client goes away, and
// closes the session.
func (h *handler) closeSession() {
	if h.sess.InTransaction() {
		_, _ = h.sess.Exec("ROLLBACK")
	}
	h.sess.Close()
}

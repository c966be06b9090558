package wire

import (
	"errors"

	"citusgo/internal/engine"
	"citusgo/internal/types"
)

// DefaultPipelineWindow bounds how many requests a pipeline keeps in
// flight before it starts draining responses (the libpq-pipeline-mode
// analog of a sliding window). Large enough that a whole per-connection
// task queue usually rides one batch; small enough to bound buffered
// responses.
const DefaultPipelineWindow = 32

// Pipeline batches requests on one connection: enqueue methods encode
// requests back-to-back on the transport and return a *Pending future;
// responses are drained in request order, on demand when the in-flight
// window fills and all at once on Flush. A queue of k requests costs one
// network round trip instead of k — this is what makes the adaptive
// executor's many-tasks-per-connection regime cheap (see docs/wire.md).
//
// A window of 1 is serial issue: every request is drained before the next
// is sent, which is exactly a plain round trip per request.
//
// Each request takes the same Conn.send / Conn.recv steps as a plain round
// trip, so error semantics are the same: a transport-level
// failure (send/recv fault, broken socket, correlation mismatch) surfaces
// as a ConnError on the request that hit it and *poisons* the rest of the
// batch — every later Pending fails with the same ConnError without
// touching the wire, because once the streams are out of sync no further
// response can be trusted. Semantic errors (Response.Err) stay per
// request and leave the pipeline healthy. Like Conn itself, a Pipeline is
// not safe for concurrent use.
type Pipeline struct {
	c      *Conn
	window int

	inflight []*Pending // sent, response not yet drained
	failed   error      // first transport failure; poisons the rest
	batch    int        // requests enqueued since the last Flush
	overlap  bool       // two of them were in flight together
}

// Pipeline starts a pipelined batch on the connection with the given
// in-flight window (<=0 selects DefaultPipelineWindow). The caller must
// not issue plain round trips on the connection until Flush returns.
func (c *Conn) Pipeline(window int) *Pipeline {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	return &Pipeline{c: c, window: window}
}

// Pending is the future for one pipelined request. Its result accessors
// are valid once the response has been drained — after Flush, or earlier
// if the window forced a drain; calling them before that reports a
// protocol-misuse error.
type Pending struct {
	kind RequestKind
	seq  uint64
	req  Request // send takes its address: it lives in the Pending's allocation
	resp Response
	err  error
	done bool
}

// enqueue sends one request (Conn.send) and, once the in-flight window is
// full, drains the oldest response. Any transport failure poisons the
// pipeline, so later requests fail without touching the (untrustworthy)
// streams.
func (p *Pipeline) enqueue(req Request) *Pending {
	pd := &Pending{kind: req.Kind, req: req}
	p.batch++
	if p.failed == nil {
		p.failed = p.c.send(&pd.req)
	}
	if p.failed != nil {
		pd.err, pd.done, pd.req = p.failed, true, Request{}
		return pd
	}
	pd.seq = pd.req.Seq
	p.inflight = append(p.inflight, pd)
	if len(p.inflight) > 1 {
		p.overlap = true
	}
	if len(p.inflight) >= p.window {
		p.drainOne()
	}
	return pd
}

// drainOne resolves the oldest in-flight request (Conn.recv).
func (p *Pipeline) drainOne() {
	pd := p.inflight[0]
	p.inflight = p.inflight[1:]
	if p.failed == nil {
		if pd.resp, p.failed = p.c.recv(pd.kind, pd.seq); p.failed == nil {
			// the rows alias the read buffer, which the next recv reuses
			pd.resp.Batch = pd.resp.Batch.Clone()
		}
	}
	pd.err = p.failed
	pd.done, pd.req = true, Request{}
}

// Flush drains every outstanding response and returns the batch's
// transport-level failure, if any (semantic errors stay on the individual
// Pendings). The pipeline is reusable after Flush unless it failed — a
// poisoned pipeline stays poisoned, like the broken connection under it.
// Only requests that shared a flight count as a pipelined batch in the
// metrics: one request, or a window of 1, is plain round trips.
func (p *Pipeline) Flush() error {
	for len(p.inflight) > 0 {
		p.drainOne()
	}
	if p.overlap {
		metPipelineBatches.Inc()
		metPipelineDepth.Observe(int64(p.batch))
	}
	p.batch, p.overlap = 0, false
	return p.failed
}

// Query enqueues a SQL execution (the pipelined Conn.Query).
func (p *Pipeline) Query(sqlText string, params ...types.Datum) *Pending {
	return p.enqueue(Request{Kind: ReqQuery, Hdr: p.c.hdr(), SQL: sqlText, Params: params})
}

// Copy enqueues a bulk load (the pipelined Conn.Copy).
func (p *Pipeline) Copy(table string, columns []string, rows []types.Row) *Pending {
	return p.enqueue(Request{
		Kind: ReqCopy, Hdr: p.c.hdr(), Table: table, Columns: columns, Rows: rows,
	})
}

// AppendResult enqueues rows for the peer's intermediate result name,
// created by the first append. A result is not a table: no WAL, no locks,
// no transaction block.
func (p *Pipeline) AppendResult(name string, columns []string, rows []types.Row) *Pending {
	return p.enqueue(Request{Kind: ReqAppendResult, Hdr: p.c.hdr(), Name: name, Columns: columns, Rows: rows})
}

// errNotDrained reports accessor misuse: the response isn't in yet.
var errNotDrained = errors.New("wire: pending request not drained; call Pipeline.Flush first")

// Err returns the request's failure: the poisoning ConnError for
// transport-level trouble, or the peer's semantic error (mapped as the
// unpipelined accessors map it).
func (pd *Pending) Err() error {
	_, err := pd.result()
	return err
}

// Result returns the request's result set, mirroring Conn.Query.
func (pd *Pending) Result() (*engine.Result, error) {
	resp, err := pd.result()
	if err != nil {
		return nil, err
	}
	return respToResult(resp), nil
}

// EncodedResult is Result for a caller that may pass the rows on without
// reading them: rows that arrived in wire form stay in it
// (engine.Result.Batch, read through DecodeRows).
func (pd *Pending) EncodedResult() (*engine.Result, error) {
	resp, err := pd.result()
	if err != nil {
		return nil, err
	}
	return respToEncodedResult(resp), nil
}

func (pd *Pending) result() (*Response, error) {
	if !pd.done {
		return nil, errNotDrained
	}
	if pd.err != nil {
		return nil, pd.err
	}
	return &pd.resp, respErr(&pd.resp)
}

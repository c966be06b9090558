package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"citusgo/internal/rowbatch"
)

// The frame codec. Every message on a TCP connection, in both directions, is
// one frame (docs/wire.md has the tables):
//
//	uint32  length of what follows, at most MaxFrameSize
//	uint8   codecVersion
//	uint8   RequestKind (a response echoes its request's)
//	uint64  Seq
//	...     request: Hdr (version, trace id, span id, block isolation), then
//	        the fields, the block's dist txn id first
//	        response: the fields
//
// Integers in the header are fixed-width little-endian; in the fields,
// lengths and counts are uvarints and signed numbers zigzag varints. Rows and
// parameters are rowbatch batches. All fields are always present, in one
// order, whatever the kind: an unused one is a zero byte.

// codecVersion is the second thing a receiver reads, after the length. A
// frame with any other version closes the connection: the nodes of a cluster
// change version together. Version 2 added the transaction block to the
// request header; version 3 took the node calls' fields and the flags byte
// out of the response.
const codecVersion = 3

// MaxFrameSize bounds the length a frame may claim. The largest frame the
// repository's benchmark sends is a COPY batch of about half a megabyte.
const MaxFrameSize = 64 << 20

const (
	lenSize    = 4
	prefixSize = 1 + 1 + 8               // version, kind, seq: what both directions share
	reqHdrSize = prefixSize + 1 + 16 + 1 // + Hdr: version, trace id, span id, block isolation
	// the block isolation byte: 0 is read committed
	blockSerializable   = 1
	blockRepeatableRead = 2
)

// errFrame marks a frame whose prefix cannot be trusted — too long, too
// short to hold the prefix, another codec version. Nothing after it on the
// stream can be trusted either: the connection closes.
var errFrame = errors.New("wire: bad frame")

// errBody marks a well-delimited frame of this version whose fields do not
// decode. The stream is still aligned on the next frame, so a server answers
// the request (its Seq was readable) with an error and carries on.
var errBody = errors.New("wire: malformed message")

// beginFrame appends the length placeholder and the shared prefix.
func beginFrame(dst []byte, kind RequestKind, seq uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, codecVersion, byte(kind))
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// endFrame fills in the length of the frame that starts at start. A frame
// over MaxFrameSize is not sent: dst comes back cut to start.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - lenSize
	if n > MaxFrameSize {
		return dst[:start], fmt.Errorf("wire: message of %d bytes exceeds the %d-byte frame limit", n, MaxFrameSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// appendRequest appends req as one frame. On an error (a parameter that is
// not a datum, ragged rows, an oversize message) dst comes back unchanged.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	start := len(dst)
	dst = beginFrame(dst, req.Kind, req.Seq)
	dst = append(dst, req.Hdr.Version)
	dst = binary.LittleEndian.AppendUint64(dst, req.Hdr.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, req.Hdr.SpanID)
	var isolation byte
	switch {
	case req.Hdr.Block.Serializable:
		isolation = blockSerializable
	case req.Hdr.Block.RepeatableRead:
		isolation = blockRepeatableRead
	}
	dst = append(dst, isolation)
	dst = appendString(dst, req.Hdr.Block.DistID)
	dst = appendString(dst, req.SQL)
	dst = appendString(dst, req.Name)
	dst = appendString(dst, req.Table)
	dst = appendStrings(dst, req.Columns)
	var err error
	if dst, err = rowbatch.AppendCells(dst, req.Params); err != nil {
		return dst[:start], err
	}
	if dst, err = rowbatch.Append(dst, req.Rows); err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start)
}

// appendResponse appends resp, the answer to a request of the given kind, as
// one frame. Rows still in wire form (resp.Batch) are copied as they are.
func appendResponse(dst []byte, resp *Response, kind RequestKind) ([]byte, error) {
	start := len(dst)
	dst = beginFrame(dst, kind, resp.Seq)
	dst = appendString(dst, resp.Err)
	dst = appendString(dst, resp.Tag)
	dst = binary.AppendVarint(dst, int64(resp.Affected))
	dst = appendStrings(dst, resp.Columns)
	if resp.Rows == nil {
		dst = append(dst, resp.Batch.Bytes()...)
	} else {
		var err error
		if dst, err = rowbatch.Append(dst, resp.Rows); err != nil {
			return dst[:start], err
		}
	}
	return endFrame(dst, start)
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendStrings appends a list of names: the count, every length, then all
// the bytes together, so that a receiver makes one string of them.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range ss {
		dst = append(dst, s...)
	}
	return dst
}

// framePrefix reads what both directions share from a frame (the bytes after
// its length). Any failure is an errFrame.
func framePrefix(frame []byte) (kind RequestKind, seq uint64, err error) {
	if len(frame) < prefixSize {
		return 0, 0, fmt.Errorf("%w: %d bytes cannot hold the frame prefix", errFrame, len(frame))
	}
	if frame[0] != codecVersion {
		return 0, 0, fmt.Errorf("%w: codec version %d, this node speaks %d", errFrame, frame[0], codecVersion)
	}
	return RequestKind(frame[1]), binary.LittleEndian.Uint64(frame[2:]), nil
}

// decodeRequest decodes the frame, whose prefix framePrefix has accepted,
// into req, overwriting every field. Nothing in req aliases frame. Failures
// wrap errBody, rowbatch.ErrMalformed or jsonb.ErrMalformed.
func decodeRequest(frame []byte, req *Request) error {
	if len(frame) < reqHdrSize {
		return fmt.Errorf("%w: request header cut short", errBody)
	}
	isolation := frame[reqHdrSize-1]
	if isolation > blockRepeatableRead {
		return fmt.Errorf("%w: unknown block isolation level %d", errBody, isolation)
	}
	*req = Request{
		Kind: RequestKind(frame[1]),
		Seq:  binary.LittleEndian.Uint64(frame[2:]),
		Hdr: Header{
			Version: frame[prefixSize],
			TraceID: binary.LittleEndian.Uint64(frame[prefixSize+1:]),
			SpanID:  binary.LittleEndian.Uint64(frame[prefixSize+9:]),
			Block:   Block{Serializable: isolation == blockSerializable, RepeatableRead: isolation == blockRepeatableRead},
		},
	}
	r := reader{b: frame[reqHdrSize:]}
	req.Hdr.Block.DistID = r.str()
	req.SQL = r.str()
	req.Name = r.str()
	req.Table = r.str()
	req.Columns = r.strs()
	params := r.batch()
	rows := r.batch()
	if err := r.finish(); err != nil {
		return err
	}
	req.Params, req.Rows = params.Cells(), rows.Rows()
	return nil
}

// decodeResponse decodes the frame, whose prefix framePrefix has accepted,
// into resp, overwriting every field. The response's rows stay in wire form
// in Batch, which aliases frame; every other field is copied out.
func decodeResponse(frame []byte, resp *Response) error {
	if len(frame) < prefixSize {
		return fmt.Errorf("%w: response header cut short", errBody)
	}
	*resp = Response{Seq: binary.LittleEndian.Uint64(frame[2:])}
	r := reader{b: frame[prefixSize:]}
	resp.Err = r.str()
	resp.Tag = r.str()
	resp.Affected = int(r.varint())
	resp.Columns = r.strs()
	resp.Batch = r.batch()
	return r.finish()
}

// reader walks the fields of one frame. The first failure sticks: every
// later read returns a zero value, and finish reports it.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errBody, what)
	}
	r.b = nil
}

// finish reports the first failure, or bytes left over behind the last
// field.
func (r *reader) finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Sprintf("%d bytes after the last field", len(r.b)))
	}
	return r.err
}

func (r *reader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[w:]
	return v
}

func (r *reader) varint() int64 {
	v, w := binary.Varint(r.b)
	if w <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[w:]
	return v
}

// count reads the number of items that follow, each at least size bytes
// long, which bounds what a caller allocates for them by the bytes present.
func (r *reader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail("count exceeds the message")
		return 0
	}
	return int(n)
}

func (r *reader) bytes(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) str() string { return string(r.bytes(r.count(1))) }

// strs reads what appendStrings wrote: two allocations, the slice and one
// string that all the names are cut from.
func (r *reader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	lens := r.b
	total := 0
	for i := 0; i < n; i++ {
		total += r.count(1)
	}
	if r.err != nil || total > len(r.b) {
		r.fail("names exceed the message")
		return nil
	}
	all := string(r.bytes(total))
	out := make([]string, n)
	for i := range out {
		l, w := binary.Uvarint(lens)
		lens = lens[w:]
		out[i], all = all[:l], all[l:]
	}
	return out
}

// batch checks the batch at the reader's position. A refused batch keeps
// its own error (rowbatch.ErrMalformed, jsonb.ErrMalformed).
func (r *reader) batch() rowbatch.Batch {
	if r.err != nil {
		return rowbatch.Batch{}
	}
	bt, rest, err := rowbatch.Parse(r.b)
	if err != nil {
		r.err, r.b = err, nil
		return rowbatch.Batch{}
	}
	r.b = rest
	return bt
}

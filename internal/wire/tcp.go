package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"citusgo/internal/engine"
)

const (
	// readBufSize is a connection's read buffer. A frame that fits is
	// decoded where it was read; a larger one is assembled in a buffer of
	// its own that is dropped once the frame is done with.
	readBufSize = 8 << 10
	// flushSize is how many bytes of frames a side lets pile up before it
	// writes them out without waiting for its usual moment (the client's
	// first recv, the server's running out of requests): a long window of
	// large messages still keeps the peer busy while it is being encoded.
	flushSize = 64 << 10
	// readStep caps what is allocated ahead of the bytes of a large frame
	// actually arriving: a frame up to this size gets its buffer at once, a
	// larger one grows into its claimed length as it is read.
	readStep = 1 << 20
)

// frameReader cuts a byte stream into frames.
type frameReader struct {
	br      *bufio.Reader
	pending int    // bytes of the previous frame still to discard from br
	big     []byte // the current frame when it did not fit in br
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// next returns the next frame, without its length. The bytes are valid until
// the following call. A length over MaxFrameSize is an errFrame, and
// nothing is allocated for it; a stream that ends inside a frame is
// io.ErrUnexpectedEOF, one that ends between frames io.EOF.
func (r *frameReader) next() ([]byte, error) {
	if _, err := r.br.Discard(r.pending); err != nil {
		return nil, err
	}
	r.pending, r.big = 0, nil
	head, err := r.br.Peek(lenSize)
	if err != nil {
		if len(head) > 0 {
			err = midFrame(err)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(head))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: length %d exceeds the %d-byte frame limit", errFrame, n, MaxFrameSize)
	}
	if lenSize+n <= r.br.Size() {
		frame, err := r.br.Peek(lenSize + n)
		if err != nil {
			return nil, midFrame(err)
		}
		r.pending = lenSize + n
		return frame[lenSize:], nil
	}
	_, _ = r.br.Discard(lenSize)
	// The length is the sender's claim: grow toward it only as fast as the
	// bytes arrive.
	for len(r.big) < n {
		step := min(n-len(r.big), readStep)
		at := len(r.big)
		r.big = append(r.big, make([]byte, step)...)
		if _, err := io.ReadFull(r.br, r.big[at:]); err != nil {
			return nil, midFrame(err)
		}
	}
	return r.big, nil
}

// midFrame is a read error met inside a frame: there, the end of the stream
// is not a clean one.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ready reports whether a whole further frame has already arrived, so that
// the following next will not wait for the peer.
func (r *frameReader) ready() bool {
	avail := r.br.Buffered() - r.pending - lenSize
	if avail < 0 {
		return false
	}
	head, _ := r.br.Peek(r.pending + lenSize) // buffered: no read
	return avail >= int(binary.LittleEndian.Uint32(head[r.pending:]))
}

// Server serves one node's wire protocol: to TCP clients when it listens, and
// to in-process clients through Connect. Every connection, whichever way it
// was opened, is the client transport of tcpTransport talking to serveConn.
type Server struct {
	Eng  *engine.Engine
	ln   net.Listener // nil: in-process connections only
	addr string

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a server for e. It listens on addr ("127.0.0.1:0" for an
// ephemeral port); an empty addr serves in-process connections only.
func Serve(e *engine.Engine, addr string) (*Server, error) {
	s := &Server{Eng: e, conns: make(map[net.Conn]struct{})}
	if addr == "" {
		return s, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln, s.addr = ln, ln.Addr().String()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address ("" for a server that does not listen).
func (s *Server) Addr() string { return s.addr }

// Connect opens a client connection to the server from inside the process:
// over loopback TCP when the server listens, otherwise over a Unix socket
// pair whose far end serveConn serves. Not net.Pipe: it has no buffer, so a
// pipelined window deadlocks once the client is still writing requests
// while the server writes its first response. rtt is the simulated network
// round trip the client pays per flushed batch (0 for none).
func (s *Server) Connect(rtt time.Duration) (*Conn, error) {
	if s.ln != nil {
		c, err := net.Dial("tcp", s.addr)
		if err != nil {
			return nil, err
		}
		return newConn(c, s.Eng.Name, rtt), nil
	}
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	client, err := fileConn(fds[0])
	if err != nil {
		syscall.Close(fds[1])
		return nil, err
	}
	server, err := fileConn(fds[1])
	if err != nil {
		client.Close()
		return nil, err
	}
	if !s.track(server) {
		server.Close()
		client.Close()
		return nil, errors.New("connection refused: server is closed")
	}
	go s.serveConn(server)
	return newConn(client, s.Eng.Name, rtt), nil
}

// fileConn wraps one end of a socket pair as a net.Conn (which takes a
// duplicate of the descriptor: the original is closed here).
func fileConn(fd int) (net.Conn, error) {
	f := os.NewFile(uintptr(fd), "socketpair")
	defer f.Close()
	return net.FileConn(f)
}

// Close stops the server and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// track registers a server-side connection so that Close reaches it; it
// refuses once the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	h := newHandler(s.Eng)
	defer h.closeSession()
	_ = serve(h, conn, conn)
}

// serve is a server-side connection's loop: read a frame, decode the
// request, handle it, append the response to the write buffer. The buffer is
// written out unless a whole further request has already arrived — a
// pipelined window is answered with one write, as it was sent with one, and
// the loop never waits for the peer while it owes it a response — or when it
// passes flushSize. It returns when the stream ends or can no longer
// be trusted (errFrame); a request whose fields do not decode is answered
// with an error under its own Seq, and the loop goes on.
//
// A dead node answers nothing: not a request it is asked after its engine
// crashed, and not one it was handling when it crashed — what the statement
// did by then may or may not have reached the log, and reporting it done
// would count, say, a PREPARE TRANSACTION the restart will know nothing of as
// a vote. The loop returns without writing what it still owes, so the
// unwritten responses of a window are lost together.
func serve(h *handler, in io.Reader, out io.Writer) error {
	fr := newFrameReader(in)
	var (
		req  Request
		wbuf []byte
	)
	for {
		frame, err := fr.next()
		var (
			kind RequestKind
			seq  uint64
		)
		if err == nil {
			kind, seq, err = framePrefix(frame)
		}
		if err != nil {
			// what was answered so far still goes out
			_, _ = out.Write(wbuf)
			return err
		}
		if h.eng.Crashed() {
			return errNodeDown
		}
		var resp Response
		if err := decodeRequest(frame, &req); err != nil {
			resp = Response{Err: err.Error()}
		} else {
			resp = h.handle(&req)
		}
		if h.eng.Crashed() {
			return errNodeDown
		}
		resp.Seq = seq
		if wbuf, err = appendResponse(wbuf, &resp, kind); err != nil {
			// a result the codec cannot carry fails its own request
			if wbuf, err = appendResponse(wbuf, &Response{Err: err.Error(), Seq: seq}, kind); err != nil {
				return err
			}
		}
		if !fr.ready() || len(wbuf) >= flushSize {
			if _, err := out.Write(wbuf); err != nil {
				return err
			}
			wbuf = reuse(wbuf)
		}
	}
}

// errNodeDown ends a server connection whose engine has crashed.
var errNodeDown = errors.New("connection reset: node is down")

// reuse empties a write buffer for the next frames, letting go of one that a
// large message has grown.
func reuse(buf []byte) []byte {
	if cap(buf) > flushSize {
		return nil
	}
	return buf[:0]
}

// tcpTransport is the client side of the protocol, over TCP or a socket
// pair alike.
type tcpTransport struct {
	conn net.Conn
	fr   *frameReader
	wbuf []byte // encoded requests not yet written

	// rtt is the simulated network round trip: the first recv after a flush
	// pays it once (owed), so a pipelined batch written together shares one.
	rtt  time.Duration
	owed bool
}

// Dial connects to a node server over TCP.
func Dial(addr string, nodeName string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, nodeName), nil
}

// NewConn is the client side of the protocol over a stream the caller
// opened: Dial's, or one a test has wrapped to watch what crosses it.
func NewConn(c net.Conn, nodeName string) *Conn { return newConn(c, nodeName, 0) }

func newConn(c net.Conn, nodeName string, rtt time.Duration) *Conn {
	return &Conn{t: &tcpTransport{conn: c, fr: newFrameReader(c), rtt: rtt}, node: nodeName}
}

// send encodes one request behind those already waiting. They are written
// together by the next recv, or here once flushSize bytes have piled up.
func (t *tcpTransport) send(req *Request) error {
	var err error
	if t.wbuf, err = appendRequest(t.wbuf, req); err != nil {
		return err
	}
	if len(t.wbuf) >= flushSize {
		return t.flush()
	}
	return nil
}

// flush writes the buffered requests. A caller that will read the responses
// later (Conn.Start) calls it so that the peer starts on them now.
func (t *tcpTransport) flush() error {
	if len(t.wbuf) == 0 {
		return nil
	}
	_, err := t.conn.Write(t.wbuf)
	t.wbuf = reuse(t.wbuf)
	t.owed = true
	return err
}

// recv writes out what send has buffered and reads one response. Its Batch
// aliases the read buffer: it is valid until the next recv.
func (t *tcpTransport) recv() (resp Response, err error) {
	if err := t.flush(); err != nil {
		return resp, err
	}
	if t.owed && t.rtt > 0 {
		time.Sleep(t.rtt)
	}
	t.owed = false
	frame, err := t.fr.next()
	if err != nil {
		return resp, err
	}
	if _, _, err := framePrefix(frame); err != nil {
		return resp, err
	}
	err = decodeResponse(frame, &resp)
	return resp, err
}

func (t *tcpTransport) close() error { return t.conn.Close() }

// Refused is a connection its server turned away (err, say a crashed node's
// closed server): every request on it fails with err as a ConnError.
func Refused(nodeName string, err error) *Conn {
	return &Conn{t: refused{err}, node: nodeName}
}

type refused struct{ err error }

func (r refused) send(*Request) error     { return r.err }
func (r refused) flush() error            { return r.err }
func (r refused) recv() (Response, error) { return Response{}, r.err }
func (r refused) close() error            { return nil }

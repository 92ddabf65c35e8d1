package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"p2prange/internal/trace"
)

// Connection multiplexing. One TCP connection per remote address carries
// many concurrent requests: every frame has a correlation id, a writer
// appends frames under a mutex, and a reader goroutine matches response
// frames to in-flight calls. Requests pipeline — a slow response does
// not block the requests queued behind it, because the server handles
// each request in its own goroutine and responses return in completion
// order.

// binaryMagic is the client hello and the server's ack: the protocol
// check. A server closes a connection whose first five bytes are not
// the hello, before any handler runs; a client whose hello is dropped
// or answered with anything else fails the call with ErrNetwork.
var binaryMagic = [5]byte{0xB1, 'p', '2', 'r', 1}

// CodecBinary names the one TCP wire protocol.
//
// Deprecated: there is no protocol to select. It remains only as the
// accepted non-empty value of p2prange.LiveConfig.Codec.
const CodecBinary = "binary"

// prefixRoom reserves space at the head of a write buffer for the
// uvarint frame-length prefix.
const prefixRoom = binary.MaxVarintLen64

// readDeadlineGrace pads the reader's watchdog deadline beyond the call
// timeout, so individual call timeouts fire (and surface a clean
// per-call error) before the whole connection is declared dead.
const readDeadlineGrace = 2 * time.Second

// respWriteTimeout bounds one server-side response flush. A client that
// stops reading makes the flush fail instead of wedging worker
// goroutines in conn.Write forever.
const respWriteTimeout = time.Minute

// errEncode marks frame-encoding failures (as opposed to socket write
// failures): the connection is still healthy, only this one message
// could not be put on the wire.
var errEncode = errors.New("transport: frame encoding failed")

// frameLimit is the size bound for one frame of the given kind: requests
// are capped tight (a hostile client must not force big server
// allocations), responses loose (bulk FetchDataResp payloads from a
// server the caller chose to trust).
func frameLimit(kind byte) int {
	if kind == kindResponse {
		return MaxRespFrame
	}
	return MaxFrame
}

// maxRetainedBuf bounds the capacity a connection keeps in a reusable
// read or write buffer between frames. Routine frames (routing tables,
// probe batches, stores, replica pushes) fit well under it and reuse
// one buffer; a buffer grown past it for a rare bulk frame (a
// FetchDataResp or TransferArcResp) is dropped once that frame is done,
// so one large reply does not pin its size for the connection's life.
const maxRetainedBuf = 64 << 10

// connReadBuf sizes the buffered reader at each end of a connection
// (the client's readLoop and the server's serveConn). Most routine
// frames fit in it; a larger frame is read straight into its frame
// buffer by io.ReadFull, so the size sets only how many reads a small
// frame costs, while every open connection pins one at each end.
const connReadBuf = 4 << 10

// retain returns b emptied for reuse, or nil when its capacity is over
// maxRetainedBuf.
func retain(b []byte) []byte {
	if cap(b) > maxRetainedBuf {
		return nil
	}
	return b[:0]
}

// maxQueuedWrite bounds the bytes parked in a groupWriter behind an
// in-flight flush. Writers beyond it block (backpressure) instead of
// growing the queue, so a remote that stops reading pins at most
// maxQueuedWrite plus one maximum frame of memory per connection rather
// than an unbounded backlog.
const maxQueuedWrite = 8 << 20

// groupWriter coalesces concurrent frame writes on one connection into
// few large socket writes (group commit): the first writer becomes the
// flusher and keeps draining whatever later writers append while its
// write syscall is in flight. Under pipelined load this collapses one
// syscall per frame into one syscall per ready batch, which is the
// difference between the codec and the kernel being the bottleneck.
type groupWriter struct {
	conn net.Conn

	mu       sync.Mutex
	cond     *sync.Cond // signals a flush completing or the writer dying
	queued   []byte     // frames waiting for the next flush
	spare    []byte     // recycled flush buffer (double-buffer swap)
	scratch  []byte     // per-append encode buffer
	flushing bool
	err      error // sticky socket write error
}

// writeFrame encodes f, queues it, and either returns immediately (an
// active flusher will carry it out) or becomes the flusher and drains
// the queue. Writers block while the queue is over maxQueuedWrite, so
// a stalled remote exerts backpressure instead of growing the heap.
// Encoding failures are reported as errEncode without touching the
// wire; socket failures are sticky and poison the connection.
// timeout > 0 arms a write deadline per flush, bounding how long a
// stalled remote can wedge the flusher (and everyone queued behind it).
func (g *groupWriter) writeFrame(f *frame, timeout time.Duration) error {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	for g.err == nil && g.flushing && len(g.queued) >= maxQueuedWrite {
		g.cond.Wait()
	}
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return err
	}
	scratch := g.scratch
	if cap(scratch) < prefixRoom {
		scratch = make([]byte, prefixRoom, 1024)
	}
	scratch = scratch[:prefixRoom]
	scratch, err := appendFrame(scratch, f)
	g.scratch = retain(scratch)
	if err != nil {
		g.mu.Unlock()
		return fmt.Errorf("%w: %w", errEncode, err)
	}
	payload := len(scratch) - prefixRoom
	if limit := frameLimit(f.kind); payload > limit {
		g.mu.Unlock()
		return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", errEncode, payload, limit)
	}
	var pfx [prefixRoom]byte
	n := binary.PutUvarint(pfx[:], uint64(payload))
	copy(scratch[prefixRoom-n:prefixRoom], pfx[:n])
	g.queued = append(g.queued, scratch[prefixRoom-n:]...)
	if g.flushing {
		// The flusher's drain loop will pick this frame up; if its write
		// fails the connection dies and every waiter hears about it.
		g.mu.Unlock()
		return nil
	}
	g.flushing = true
	for g.err == nil && len(g.queued) > 0 {
		data := g.queued
		g.queued = g.spare[:0]
		g.mu.Unlock()
		if timeout > 0 {
			g.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		_, werr := g.conn.Write(data)
		g.mu.Lock()
		g.spare = retain(data)
		if werr != nil {
			g.err = werr
		}
		g.cond.Broadcast()
	}
	g.queued = retain(g.queued)
	g.flushing = false
	g.cond.Broadcast()
	err = g.err
	g.mu.Unlock()
	return err
}

// readUvarint reads a LEB128 value byte-by-byte, reporting how many
// bytes were consumed so callers can tell an idle timeout (0 consumed)
// from one that struck mid-frame.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, binary.MaxVarintLen64, fmt.Errorf("%w: length prefix overflows uvarint", ErrBadFrame)
}

// readFramePayload reads one length-prefixed frame payload into *rbuf
// (reused across frames up to maxRetainedBuf; a larger one is
// allocated for its frame alone), rejecting declared lengths above max
// before allocating. consumed counts bytes read before any error, so a
// timeout at a frame boundary is distinguishable from a torn frame.
func readFramePayload(br *bufio.Reader, rbuf *[]byte, max uint64) (payload []byte, consumed int, err error) {
	length, n, err := readUvarint(br)
	if err != nil {
		return nil, n, err
	}
	if length > max {
		return nil, n, fmt.Errorf("%w: declared frame length %d exceeds limit %d", ErrBadFrame, length, max)
	}
	buf := *rbuf
	if uint64(cap(buf)) < length {
		buf = make([]byte, length)
	} else {
		buf = buf[:length]
	}
	m, err := io.ReadFull(br, buf)
	*rbuf = retain(buf)
	if err != nil {
		return nil, n + m, err
	}
	return buf, n + m, nil
}

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- client side ---

// muxResult carries one decoded response (or a transport failure) back
// to the goroutine that issued the call.
type muxResult struct {
	env envelope
	err error
}

// muxConn is one multiplexed connection to a remote address. Any number
// of goroutines issue calls concurrently; a single reader goroutine
// dispatches responses by correlation id.
type muxConn struct {
	owner *TCPCaller
	addr  string
	conn  net.Conn
	gw    groupWriter // coalesces concurrent request writes

	pmu      sync.Mutex
	pending  map[uint64]chan muxResult
	nextID   uint64
	deadline time.Time // latest armed read-deadline watchdog (zero = disarmed)
	dead     bool
	deadErr  error
}

func newMuxConn(owner *TCPCaller, addr string, conn net.Conn) *muxConn {
	m := &muxConn{
		owner:   owner,
		addr:    addr,
		conn:    conn,
		gw:      groupWriter{conn: conn},
		pending: make(map[uint64]chan muxResult),
	}
	go m.readLoop()
	return m
}

func (m *muxConn) isDead() bool {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return m.dead
}

// fail marks the connection dead, detaches it from the owner, closes the
// socket, and delivers err to every in-flight call. Idempotent.
func (m *muxConn) fail(err error) {
	m.owner.mu.Lock()
	if m.owner.muxes[m.addr] == m {
		delete(m.owner.muxes, m.addr)
	}
	m.owner.mu.Unlock()
	m.pmu.Lock()
	if m.dead {
		m.pmu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	waiters := make([]chan muxResult, 0, len(m.pending))
	for id, ch := range m.pending {
		delete(m.pending, id)
		waiters = append(waiters, ch)
	}
	m.pmu.Unlock()
	m.conn.Close()
	for _, ch := range waiters {
		ch <- muxResult{err: err}
	}
}

// readLoop decodes response frames and hands each to its waiter. A read
// deadline acts as a watchdog: callers arm (and extend) it per request
// under pmu, and an expiry with calls still in flight and the newest
// armed deadline actually elapsed kills the connection. An expiry on an
// idle connection disarms the deadline; a stale expiry racing a newer
// call re-arms to that call's deadline instead of failing it.
func (m *muxConn) readLoop() {
	br := bufio.NewReaderSize(m.conn, connReadBuf)
	cur := &Cursor{in: &interner{}}
	var rbuf []byte
	for {
		payload, consumed, err := readFramePayload(br, &rbuf, MaxRespFrame)
		if err != nil {
			if isTimeout(err) && consumed == 0 {
				m.pmu.Lock()
				if len(m.pending) == 0 {
					m.deadline = time.Time{}
					m.conn.SetReadDeadline(time.Time{})
					m.pmu.Unlock()
					continue
				}
				if time.Now().Before(m.deadline) {
					m.conn.SetReadDeadline(m.deadline)
					m.pmu.Unlock()
					continue
				}
				m.pmu.Unlock()
			}
			if errors.Is(err, io.EOF) && consumed == 0 {
				m.fail(netErrf("transport: %s closed connection", m.addr))
			} else {
				m.fail(netErrf("transport: receive from %s: %w", m.addr, err))
			}
			return
		}
		cur.reset(payload)
		f, err := parseFrame(cur)
		if err != nil || f.kind != kindResponse {
			if err == nil {
				err = fmt.Errorf("%w: unexpected request frame from server", ErrBadFrame)
			}
			m.fail(netErrf("transport: receive from %s: %w", m.addr, err))
			return
		}
		m.pmu.Lock()
		ch := m.pending[f.id]
		delete(m.pending, f.id)
		m.pmu.Unlock()
		if ch != nil {
			ch <- muxResult{env: envelope{Body: f.body, Err: f.err, Frags: f.frags}}
		}
	}
}

// roundTrip issues one pipelined request and waits for its response.
func (m *muxConn) roundTrip(env envelope, timeout time.Duration) (envelope, error) {
	ch := make(chan muxResult, 1)
	m.pmu.Lock()
	if m.dead {
		err := m.deadErr
		m.pmu.Unlock()
		return envelope{}, err
	}
	m.nextID++
	id := m.nextID
	if timeout > 0 {
		// Arm the reader watchdog before publishing the pending entry,
		// under the same mutex readLoop consults on expiry — so a stale
		// deadline from an earlier call can never fail this one, and the
		// watchdog is never off with a request in flight. Only extended
		// forward: a short call must not shrink a longer call's cover.
		if d := time.Now().Add(timeout + readDeadlineGrace); d.After(m.deadline) {
			m.deadline = d
			m.conn.SetReadDeadline(d)
		}
	}
	m.pending[id] = ch
	m.pmu.Unlock()

	f := frame{kind: kindRequest, id: id, tc: env.TC, body: env.Body}
	err := m.gw.writeFrame(&f, timeout)
	if err != nil {
		m.pmu.Lock()
		delete(m.pending, id)
		m.pmu.Unlock()
		if errors.Is(err, errEncode) {
			// Nothing touched the wire; the connection stays usable.
			return envelope{}, err
		}
		nerr := netErrf("transport: send to %s: %w", m.addr, err)
		m.fail(nerr)
		return envelope{}, nerr
	}

	if timeout <= 0 {
		r := <-ch
		return r.env, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.env, r.err
	case <-timer.C:
		m.pmu.Lock()
		delete(m.pending, id)
		m.pmu.Unlock()
		return envelope{}, netErrf("transport: call to %s timed out", m.addr)
	}
}

// mux returns a live multiplexed connection to addr, dialing and
// exchanging the hello on first use.
func (c *TCPCaller) mux(addr string) (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCallerClosed
	}
	if existing := c.muxes[addr]; existing != nil && !existing.isDead() {
		c.mu.Unlock()
		return existing, nil
	}
	c.mu.Unlock()

	conn, derr := net.DialTimeout("tcp", addr, c.DialTimeout)
	if derr != nil {
		return nil, netErrf("transport: dial %s: %w", addr, derr)
	}
	if c.DialTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.DialTimeout))
	}
	if _, werr := conn.Write(binaryMagic[:]); werr != nil {
		conn.Close()
		return nil, netErrf("transport: hello to %s: %w", addr, werr)
	}
	var ack [len(binaryMagic)]byte
	if _, rerr := io.ReadFull(conn, ack[:]); rerr != nil || ack != binaryMagic {
		// A dropped, wrong or late ack (a peer that does not speak this
		// protocol, one restarting mid-handshake, or a wedged one) fails
		// this call; the next call dials afresh.
		conn.Close()
		if rerr == nil {
			rerr = fmt.Errorf("%w: bad hello ack %x", ErrBadFrame, ack)
		}
		return nil, netErrf("transport: hello ack from %s: %w", addr, rerr)
	}
	conn.SetDeadline(time.Time{})

	m := newMuxConn(c, addr, conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		m.fail(ErrCallerClosed)
		return nil, ErrCallerClosed
	}
	if existing := c.muxes[addr]; existing != nil && !existing.isDead() {
		c.mu.Unlock()
		m.fail(netErrf("transport: duplicate connection to %s", addr))
		return existing, nil
	}
	if c.muxes == nil {
		c.muxes = make(map[string]*muxConn)
	}
	c.muxes[addr] = m
	c.mu.Unlock()
	return m, nil
}

// --- server side ---

// safeHandle runs the handler, converting a panic into a handler error
// so one bad request cannot take down the whole serving process.
func safeHandle(h Handler, tc trace.Context, req any) (resp any, frags []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			metPanics.Inc()
			resp, frags = nil, nil
			err = fmt.Errorf("transport: handler panicked: %v", r)
		}
	}()
	return h(tc, req)
}

// binaryTask is one decoded request awaiting a handler goroutine.
type binaryTask struct {
	id   uint64
	tc   trace.Context
	body any
}

// serveBinary serves the framed protocol on one connection: requests are
// decoded sequentially but handled concurrently, so responses interleave
// in completion order and pipelined callers are never head-of-line
// blocked by a slow handler. Handler goroutines are reused: an idle one
// takes the next request by direct handoff (unbuffered channel), and a
// new one is spawned only when every existing worker is busy — so the
// pool tracks peak concurrency instead of paying a goroutine spawn (and
// its stack growth) per request.
func (s *TCPServer) serveBinary(conn net.Conn, br *bufio.Reader) {
	if _, err := conn.Write(binaryMagic[:]); err != nil {
		return
	}
	gw := &groupWriter{conn: conn}
	var wg sync.WaitGroup
	tasks := make(chan binaryTask)
	run := func(t binaryTask) {
		resp, frags, herr := safeHandle(s.handler, t.tc, t.body)
		out := frame{kind: kindResponse, id: t.id, frags: frags, body: resp}
		if herr != nil {
			out.err = herr.Error()
		}
		// The write deadline bounds how long a client that stopped
		// reading can wedge the flusher; with the groupWriter's bounded
		// queue it caps both the goroutines and the memory one stalled
		// connection can pin before being torn down.
		if werr := gw.writeFrame(&out, respWriteTimeout); errors.Is(werr, errEncode) {
			// Encoding failed (e.g. an aux type with no binary codec):
			// still answer, as an error frame, so the caller is not left
			// waiting for a correlation id that never comes.
			ef := frame{kind: kindResponse, id: t.id, err: werr.Error()}
			gw.writeFrame(&ef, respWriteTimeout)
		}
	}
	defer wg.Wait()
	defer close(tasks)
	cur := &Cursor{in: &interner{}}
	var rbuf []byte
	for {
		payload, _, err := readFramePayload(br, &rbuf, MaxFrame)
		if err != nil {
			return
		}
		cur.reset(payload)
		f, err := parseFrame(cur)
		if err != nil || f.kind != kindRequest {
			return
		}
		t := binaryTask{id: f.id, body: f.body}
		if f.tc != nil {
			t.tc = *f.tc
		}
		select {
		case tasks <- t: // an idle worker takes it
		default:
			wg.Add(1)
			go func(t binaryTask) {
				defer wg.Done()
				run(t)
				for t := range tasks { // stick around as a pooled worker
					run(t)
				}
			}(t)
		}
	}
}

package transport

import (
	"bufio"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
	"time"

	"p2prange/internal/trace"
)

// RegisterType registers a request or response type for gob transfer.
// Every concrete type sent through the TCP transport must be registered by
// both ends (the peer and chord packages register theirs in init). The
// binary protocol additionally needs a codec for it (RegisterCodec);
// MissingCodecs lists the registered types that lack one.
func RegisterType(v any) {
	gob.Register(v)
	registered[reflect.TypeOf(v)] = struct{}{}
}

// registered records every RegisterType'd type. Registration happens in
// package init, so the map needs no lock.
var registered = map[reflect.Type]struct{}{}

// MissingCodecs returns the sorted names of RegisterType'd types that
// have no binary codec. Sending one over the binary protocol fails to
// encode, so a non-empty result is a bug in the protocol package.
func MissingCodecs() []string {
	var out []string
	for t := range registered {
		if _, ok := codecByType[t]; !ok {
			out = append(out, t.String())
		}
	}
	sort.Strings(out)
	return out
}

// envelope frames one request or response on the wire. TC carries the
// caller's trace context on requests (nil when unsampled, so untraced
// traffic pays no encoding cost); Spans carries completed remote span
// fragments back on responses. Both fields are concrete types, so no
// gob registration beyond the envelope itself is needed.
type envelope struct {
	Body  any
	Err   string
	TC    *trace.Context
	Spans []trace.Wire
}

func init() {
	gob.Register(envelope{})
}

// TCPServer serves a Handler on a TCP listener, one goroutine per
// connection, multiple sequential requests per connection.
type TCPServer struct {
	ln      net.Listener
	handler TracedHandler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeTCP starts serving h on ln until Close. Requests arriving with a
// trace context serve untraced; use ServeTCPTraced to propagate.
func ServeTCP(ln net.Listener, h Handler) *TCPServer {
	return ServeTCPTraced(ln, Traced(h))
}

// ServeTCPTraced starts serving a trace-propagating handler on ln until
// Close. Span fragments the handler returns ride back on the response
// envelope.
func ServeTCPTraced(ln net.Listener, h TracedHandler) *TCPServer {
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn sniffs the client's protocol from the first byte — the
// binary hello can never start a gob stream — and serves whichever the
// client speaks. New clients get framed binary multiplexing; old gob
// clients keep working unchanged.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	hello, err := br.Peek(len(binaryMagic))
	if err == nil && [5]byte(hello) == binaryMagic {
		br.Discard(len(binaryMagic))
		s.serveBinary(conn, br)
		return
	}
	s.serveGob(conn, br)
}

// serveGob is the legacy protocol loop: one gob envelope per request,
// strictly sequential per connection. A handler panic is converted to an
// envelope error instead of crashing the process.
func (s *TCPServer) serveGob(conn net.Conn, br *bufio.Reader) {
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	for {
		var req envelope
		if err := dec.Decode(&req); err != nil {
			return // io.EOF on clean close; anything else drops the conn
		}
		var tc trace.Context
		if req.TC != nil {
			tc = *req.TC
		}
		resp, spans, err := safeHandle(s.handler, tc, req.Body)
		out := envelope{Body: resp, Spans: spans}
		if err != nil {
			out.Err = err.Error()
		}
		if err := enc.Encode(out); err != nil {
			return
		}
	}
}

// Close stops accepting, closes open connections, and waits for handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// DefaultPoolSize is the per-address connection pool size used when
// TCPCaller.PoolSize is zero. A handful of connections lets concurrent
// calls to one peer proceed in parallel instead of serializing whole
// round trips behind a single socket.
const DefaultPoolSize = 4

// TCPCaller is the client side of the TCP transport. It keeps a small
// pool of connections per remote address, dialing lazily and re-dialing
// after failures. Safe for concurrent use; up to PoolSize calls to the
// same address proceed in parallel, further calls wait for a free
// connection. Transport-level failures are classified with ErrNetwork so
// retry layers can distinguish them from handler errors.
type TCPCaller struct {
	// DialTimeout bounds connection establishment (default 3s).
	DialTimeout time.Duration
	// CallTimeout bounds a single request/response round trip (default 5s).
	CallTimeout time.Duration
	// PoolSize is the number of connections kept per remote address
	// (default DefaultPoolSize). Only the gob path pools; the binary
	// path multiplexes one connection per address. Set before the first
	// Call.
	PoolSize int
	// Codec selects the wire protocol: CodecBinary (default) negotiates
	// the framed binary codec per address with automatic per-address
	// fallback to gob, CodecGob forces gob. Set before the first Call.
	Codec string

	mu       sync.Mutex
	pools    map[string]chan *tcpConn
	muxes    map[string]*muxConn
	gobAddrs map[string]time.Time // when each address negotiated down to gob
	closed   bool
}

// gobReprobeAfter ages out a per-address gob latch. A peer that once
// looked gob-only (e.g. it restarted mid-handshake) gets re-probed for
// the binary protocol after this long, so a transient misclassification
// costs minutes of fallback, not the caller's lifetime; a genuine
// legacy peer just re-latches at one extra dial per interval.
const gobReprobeAfter = 5 * time.Minute

// tcpConn is one pooled connection slot. A slot is owned exclusively by
// the goroutine that received it from the pool channel, so no lock is
// needed; the connection inside may be nil (not yet dialed or reset).
type tcpConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// NewTCPCaller returns a caller with default timeouts and pool size.
func NewTCPCaller() *TCPCaller {
	return &TCPCaller{
		DialTimeout: 3 * time.Second,
		CallTimeout: 5 * time.Second,
		PoolSize:    DefaultPoolSize,
		pools:       make(map[string]chan *tcpConn),
		muxes:       make(map[string]*muxConn),
		gobAddrs:    make(map[string]time.Time),
	}
}

// pool returns the connection pool for addr, creating it on first use.
func (c *TCPCaller) pool(addr string) (chan *tcpConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCallerClosed
	}
	p, ok := c.pools[addr]
	if !ok {
		size := c.PoolSize
		if size <= 0 {
			size = DefaultPoolSize
		}
		p = make(chan *tcpConn, size)
		for i := 0; i < size; i++ {
			p <- &tcpConn{}
		}
		c.pools[addr] = p
	}
	return p, nil
}

// Call implements Caller over TCP. A transport-level failure invalidates
// the pooled connection so the next call on that slot re-dials.
func (c *TCPCaller) Call(addr string, req any) (any, error) {
	resp, err := c.roundTrip(addr, envelope{Body: req})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp.Body, &RemoteError{Msg: resp.Err}
	}
	return resp.Body, nil
}

// CallCtx implements ContextCaller over TCP: the trace context rides the
// request envelope and remote span fragments come back on the response.
func (c *TCPCaller) CallCtx(addr string, tc trace.Context, req any) (any, []trace.Wire, error) {
	env := envelope{Body: req}
	if tc.Sampled {
		env.TC = &tc
	}
	resp, err := c.roundTrip(addr, env)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		return resp.Body, resp.Spans, &RemoteError{Msg: resp.Err}
	}
	return resp.Body, resp.Spans, nil
}

// roundTrip sends one envelope and decodes the reply, dispatching to the
// multiplexed binary path or the pooled gob path per the negotiated
// protocol for addr.
func (c *TCPCaller) roundTrip(addr string, env envelope) (envelope, error) {
	metCalls.Inc()
	if c.Codec != CodecGob {
		c.mu.Lock()
		latched, viaGob := c.gobAddrs[addr]
		if viaGob && time.Since(latched) > gobReprobeAfter {
			delete(c.gobAddrs, addr) // latch aged out: re-probe binary
			viaGob = false
		}
		c.mu.Unlock()
		if !viaGob {
			m, fallback, err := c.mux(addr)
			if err != nil {
				return envelope{}, err
			}
			if !fallback {
				return m.roundTrip(env, c.CallTimeout)
			}
			c.mu.Lock()
			if c.gobAddrs == nil {
				c.gobAddrs = make(map[string]time.Time)
			}
			c.gobAddrs[addr] = time.Now()
			c.mu.Unlock()
		}
	}
	return c.gobRoundTrip(addr, env)
}

// gobRoundTrip is the legacy gob path: one call per pooled connection
// slot, whole round trips serialized behind PoolSize sockets.
func (c *TCPCaller) gobRoundTrip(addr string, env envelope) (envelope, error) {
	pool, err := c.pool(addr)
	if err != nil {
		return envelope{}, err
	}
	tc := <-pool
	defer func() {
		// If Close ran while this call was in flight, drop the connection
		// instead of returning a live socket to a closed caller.
		c.mu.Lock()
		if c.closed {
			tc.reset()
		}
		c.mu.Unlock()
		pool <- tc
	}()
	if tc.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, c.DialTimeout)
		if err != nil {
			return envelope{}, netErrf("transport: dial %s: %w", addr, err)
		}
		// Re-check closed under the lock before keeping the fresh
		// connection: a Close that raced the dial must not leak it.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return envelope{}, ErrCallerClosed
		}
		c.mu.Unlock()
		tc.conn = conn
		tc.enc = gob.NewEncoder(conn)
		tc.dec = gob.NewDecoder(conn)
	}
	if c.CallTimeout > 0 {
		if err := tc.conn.SetDeadline(time.Now().Add(c.CallTimeout)); err != nil {
			tc.reset()
			return envelope{}, netErrf("transport: deadline for %s: %w", addr, err)
		}
	}
	if err := tc.enc.Encode(env); err != nil {
		tc.reset()
		return envelope{}, netErrf("transport: send to %s: %w", addr, err)
	}
	var resp envelope
	if err := tc.dec.Decode(&resp); err != nil {
		tc.reset()
		if errors.Is(err, io.EOF) {
			return envelope{}, netErrf("transport: %s closed connection", addr)
		}
		return envelope{}, netErrf("transport: receive from %s: %w", addr, err)
	}
	return resp, nil
}

// reset drops the broken connection; the caller must own the slot.
func (tc *tcpConn) reset() {
	if tc.conn != nil {
		tc.conn.Close()
		tc.conn = nil
		tc.enc = nil
		tc.dec = nil
	}
}

// Close marks the caller closed and closes every idle pooled connection.
// Calls already in flight finish (or time out) and drop their connection
// on return; subsequent calls fail with ErrCallerClosed.
func (c *TCPCaller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pools := c.pools
	muxes := make([]*muxConn, 0, len(c.muxes))
	for _, m := range c.muxes {
		muxes = append(muxes, m)
	}
	c.mu.Unlock()
	for _, m := range muxes {
		m.fail(ErrCallerClosed)
	}
	for _, p := range pools {
		var drained []*tcpConn
	drain:
		for len(drained) < cap(p) {
			select {
			case tc := <-p:
				tc.reset()
				drained = append(drained, tc)
			default:
				break drain
			}
		}
		for _, tc := range drained {
			p <- tc // keep the slots so waiting callers wake and bail
		}
	}
}

var _ ContextCaller = (*TCPCaller)(nil)

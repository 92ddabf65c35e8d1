package transport

import (
	"bufio"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
	"time"

	"p2prange/internal/trace"
)

// RegisterType declares a request or response type that travels over
// the TCP transport. Protocol packages declare theirs in init, next to
// the types; MissingCodecs lists the declared types that lack a binary
// codec (RegisterCodec), which the completeness test turns into a
// failure.
func RegisterType(v any) {
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
// traffic pays no encoding cost); Frags carries the encoded fragment
// list of completed remote spans back on responses.
type envelope struct {
	Body  any
	Err   string
	TC    *trace.Context
	Frags []byte
}

// TCPServer serves a Handler on a TCP listener, one reader goroutine per
// connection; requests on a connection are handled concurrently.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeTCP starts serving h on ln until Close. Span fragments the
// handler returns ride back on the response envelope.
func ServeTCP(ln net.Listener, h Handler) *TCPServer {
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

// serveConn checks the client's hello and serves the framed binary
// protocol. A connection that does not open with the hello is closed
// before any handler runs.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	var hello [len(binaryMagic)]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || hello != binaryMagic {
		return
	}
	s.serveBinary(conn, br)
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

// TCPCaller is the client side of the TCP transport. It keeps one
// multiplexed connection per remote address, dialing lazily and
// re-dialing after failures; any number of calls to the same address
// proceed concurrently over it. Safe for concurrent use.
// Transport-level failures are classified with ErrNetwork so retry
// layers can distinguish them from handler errors.
type TCPCaller struct {
	// DialTimeout bounds connection establishment, hello included
	// (default 3s).
	DialTimeout time.Duration
	// CallTimeout bounds a single request/response round trip (default 5s).
	CallTimeout time.Duration

	mu     sync.Mutex
	muxes  map[string]*muxConn
	closed bool
}

// NewTCPCaller returns a caller with default timeouts.
func NewTCPCaller() *TCPCaller {
	return &TCPCaller{
		DialTimeout: 3 * time.Second,
		CallTimeout: 5 * time.Second,
		muxes:       make(map[string]*muxConn),
	}
}

// CallCtx implements Caller over TCP: a sampled trace context rides the
// request envelope and remote span fragments come back on the response.
// A transport-level failure kills the connection so the next call to
// that address re-dials.
func (c *TCPCaller) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	env := envelope{Body: req}
	if tc.Sampled {
		env.TC = &tc
	}
	resp, err := c.roundTrip(addr, env)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		return resp.Body, resp.Frags, &RemoteError{Msg: resp.Err}
	}
	return resp.Body, resp.Frags, nil
}

// roundTrip sends one envelope over addr's multiplexed connection and
// waits for the reply.
func (c *TCPCaller) roundTrip(addr string, env envelope) (envelope, error) {
	metCalls.Inc()
	m, err := c.mux(addr)
	if err != nil {
		return envelope{}, err
	}
	return m.roundTrip(env, c.CallTimeout)
}

// Close marks the caller closed and fails every open connection: calls
// in flight return ErrCallerClosed, as do subsequent calls.
func (c *TCPCaller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	muxes := make([]*muxConn, 0, len(c.muxes))
	for _, m := range c.muxes {
		muxes = append(muxes, m)
	}
	c.mu.Unlock()
	for _, m := range muxes {
		m.fail(ErrCallerClosed)
	}
}

var _ Caller = (*TCPCaller)(nil)

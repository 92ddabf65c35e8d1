package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/trace"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

// Test-only tags for the echo messages, far above every protocol range.
const (
	tagEchoReq  uint64 = 1000
	tagEchoResp uint64 = 1001
)

func init() {
	RegisterCodec(tagEchoReq, echoReq{}, DirRequest,
		func(b []byte, v any) []byte { return AppendString(b, v.(echoReq).Msg) },
		func(c *Cursor) (any, error) { return echoReq{Msg: c.BulkString()}, c.Err })
	RegisterCodec(tagEchoResp, echoResp{}, DirResponse,
		func(b []byte, v any) []byte { return AppendString(b, v.(echoResp).Msg) },
		func(c *Cursor) (any, error) { return echoResp{Msg: c.BulkString()}, c.Err })
}

var echoHandler = untraced(func(req any) (any, error) {
	switch r := req.(type) {
	case echoReq:
		if r.Msg == "boom" {
			return nil, errors.New("handler exploded")
		}
		return echoResp{Msg: r.Msg}, nil
	default:
		return nil, BadRequest(req)
	}
})

// untraced lifts a plain request handler to a Handler that ignores the
// trace context and returns no fragments.
func untraced(h func(req any) (any, error)) Handler {
	return func(_ trace.Context, req any) (any, []byte, error) {
		resp, err := h(req)
		return resp, nil, err
	}
}

// call issues an untraced call for tests that do not look at fragments.
func call(c Caller, addr string, req any) (any, error) {
	resp, _, err := c.CallCtx(addr, trace.Context{}, req)
	return resp, err
}

func TestMemoryCall(t *testing.T) {
	m := NewMemory()
	m.Register("a", echoHandler)
	resp, err := call(m, "a", echoReq{Msg: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "hi" {
		t.Errorf("resp = %v", resp)
	}
	if m.Calls() != 1 {
		t.Errorf("Calls = %d", m.Calls())
	}
}

func TestMemoryUnknownAddr(t *testing.T) {
	m := NewMemory()
	if _, err := call(m, "ghost", echoReq{}); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestMemoryFaultInjection(t *testing.T) {
	m := NewMemory()
	m.Register("a", echoHandler)
	m.SetDown("a", true)
	if _, err := call(m, "a", echoReq{}); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("down node reachable: %v", err)
	}
	m.SetDown("a", false)
	if _, err := call(m, "a", echoReq{Msg: "x"}); err != nil {
		t.Errorf("healed node unreachable: %v", err)
	}
	m.Unregister("a")
	if _, err := call(m, "a", echoReq{}); !errors.Is(err, ErrUnknownAddr) {
		t.Error("unregistered node reachable")
	}
}

func TestMemoryHandlerError(t *testing.T) {
	m := NewMemory()
	m.Register("a", echoHandler)
	if _, err := call(m, "a", echoReq{Msg: "boom"}); err == nil || err.Error() != "handler exploded" {
		t.Errorf("err = %v", err)
	}
}

func startTCP(t *testing.T) (*TCPServer, *TCPCaller) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, echoHandler)
	t.Cleanup(func() { srv.Close() })
	caller := NewTCPCaller()
	t.Cleanup(caller.Close)
	return srv, caller
}

func TestTCPRoundTrip(t *testing.T) {
	srv, caller := startTCP(t)
	resp, err := call(caller, srv.Addr(), echoReq{Msg: "over tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "over tcp" {
		t.Errorf("resp = %v", resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, caller := startTCP(t)
	_, err := call(caller, srv.Addr(), echoReq{Msg: "boom"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Msg != "handler exploded" {
		t.Errorf("remote msg = %q", remote.Msg)
	}
	// The connection survives a handler error.
	if _, err := call(caller, srv.Addr(), echoReq{Msg: "again"}); err != nil {
		t.Errorf("connection unusable after handler error: %v", err)
	}
}

func TestTCPSequentialRequestsReuseConnection(t *testing.T) {
	srv, caller := startTCP(t)
	for i := 0; i < 50; i++ {
		msg := fmt.Sprintf("m%d", i)
		resp, err := call(caller, srv.Addr(), echoReq{Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(echoResp).Msg != msg {
			t.Fatalf("resp %d = %v", i, resp)
		}
	}
}

func TestTCPConcurrentCallers(t *testing.T) {
	srv, caller := startTCP(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				msg := fmt.Sprintf("g%d-%d", g, i)
				resp, err := call(caller, srv.Addr(), echoReq{Msg: msg})
				if err != nil {
					errs <- err
					return
				}
				if resp.(echoResp).Msg != msg {
					errs <- fmt.Errorf("mismatch %q", msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPServerClosedConnection(t *testing.T) {
	srv, caller := startTCP(t)
	addr := srv.Addr()
	if _, err := call(caller, addr, echoReq{Msg: "warm"}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := call(caller, addr, echoReq{Msg: "late"}); err == nil {
		t.Error("call to closed server succeeded")
	}
	// Restart on the same port is not guaranteed; dial error must surface
	// cleanly (already covered above), and the caller must recover once a
	// server is back on a fresh address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeTCP(ln, echoHandler)
	defer srv2.Close()
	if _, err := call(caller, srv2.Addr(), echoReq{Msg: "recovered"}); err != nil {
		t.Errorf("fresh server unreachable: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	caller := NewTCPCaller()
	caller.DialTimeout = 200 * time.Millisecond
	defer caller.Close()
	if _, err := call(caller, "127.0.0.1:1", echoReq{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// chordEnv wires two chord nodes over the in-memory transport through the
// ChordClient adapter, exercising DispatchChord end to end.
func TestChordRPCAdapterMemory(t *testing.T) {
	m := NewMemory()
	client := ChordClient{Caller: m}
	a := chord.NewNode("a", client, chord.Config{})
	b := chord.NewNode("b", client, chord.Config{})
	m.Register("a", untraced(func(req any) (any, error) {
		resp, handled, err := DispatchChord(a, req)
		if !handled {
			return nil, BadRequest(req)
		}
		return resp, err
	}))
	m.Register("b", untraced(func(req any) (any, error) {
		resp, handled, err := DispatchChord(b, req)
		if !handled {
			return nil, BadRequest(req)
		}
		return resp, err
	}))

	// Fresh node: no predecessor sentinel crosses the adapter.
	if _, err := client.Predecessor("a"); !errors.Is(err, chord.ErrNoPredecessor) {
		t.Errorf("Predecessor err = %v, want ErrNoPredecessor", err)
	}
	if err := client.Ping("a"); err != nil {
		t.Errorf("Ping: %v", err)
	}
	// Join b to a's ring and stabilize both until converged.
	if err := b.Join("a"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	chord.StabilizeAll([]*chord.Node{a, b}, 4)
	if _, err := chord.VerifyRing([]*chord.Node{a, b}); err != nil {
		t.Fatalf("two-node ring broken: %v", err)
	}
	// FindSuccessor through the adapter.
	ref, err := client.FindSuccessor("a", b.ID())
	if err != nil || ref.ID != b.ID() {
		t.Errorf("FindSuccessor = %v, %v", ref, err)
	}
	// RouteTable through the adapter: a's successor list, which wraps to
	// a on a two-node ring, then its candidates.
	want, _ := a.HandleRouteTable()
	tbl, err := client.RouteTable("a")
	if err != nil || len(tbl.Succs) != 2 || tbl.Succs[0].ID != b.ID() || tbl.Succs[1].ID != a.ID() ||
		len(tbl.Cands) == 0 || !reflect.DeepEqual(tbl, want) {
		t.Errorf("RouteTable = %v, %v; want %v", tbl, err, want)
	}
}

// TestRouteTableFromOlderPeerFails: a peer built before RouteTableResp
// answers RouteTableReq with a RefsResp. The client must fail the call
// loudly rather than read the list as a route table and misroute.
func TestRouteTableFromOlderPeerFails(t *testing.T) {
	mem := NewMemory()
	mem.Register("old", untraced(func(req any) (any, error) {
		return RefsResp{Refs: []chord.Ref{{ID: 7, Addr: "x"}}}, nil
	}))
	tbl, err := ChordClient{Caller: mem}.RouteTable("old")
	if !errors.Is(err, ErrBadRequest) || errors.Is(err, chord.ErrUnreachable) {
		t.Errorf("RouteTable from a pre-RouteTableResp peer = %v, %v; want an ErrBadRequest that is not ErrUnreachable", tbl, err)
	}
}

// The same adapter must work over TCP, including the error mapping.
func TestChordRPCAdapterTCP(t *testing.T) {
	caller := NewTCPCaller()
	defer caller.Close()
	client := ChordClient{Caller: caller}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := chord.NewNode(ln.Addr().String(), client, chord.Config{})
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		resp, handled, err := DispatchChord(n, req)
		if !handled {
			return nil, BadRequest(req)
		}
		return resp, err
	}))
	defer srv.Close()

	if _, err := client.Predecessor(n.Addr()); !errors.Is(err, chord.ErrNoPredecessor) {
		t.Errorf("Predecessor over TCP = %v, want ErrNoPredecessor", err)
	}
	ref, err := client.Successor(n.Addr())
	if err != nil || ref.ID != n.ID() {
		t.Errorf("Successor over TCP = %v, %v", ref, err)
	}
	if err := client.Notify(n.Addr(), chord.Ref{ID: n.ID() + 1, Addr: "x"}); err != nil {
		t.Errorf("Notify over TCP: %v", err)
	}
}

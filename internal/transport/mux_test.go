package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/rangeset"
	"p2prange/internal/trace"
)

// --- codec round trips and fuzzing ---

// sampleFrames builds a deterministic corpus: every registered codec's
// zero-value prototype in each frame direction its tag is valid for,
// plus frames exercising each optional field (trace context, error
// string, spans, nil body).
func sampleFrames(t testing.TB) [][]byte {
	var frames []frame
	for typ, tag := range codecByType {
		body := reflect.New(typ).Elem().Interface()
		dir := codecByTag[tag].dir
		if dir&DirRequest != 0 {
			frames = append(frames, frame{kind: kindRequest, id: 1, body: body})
		}
		if dir&DirResponse != 0 {
			frames = append(frames, frame{kind: kindResponse, id: 2, body: body})
		}
	}
	frames = append(frames,
		frame{kind: kindRequest, id: 7}, // nil body
		frame{kind: kindResponse, id: 8, err: "handler exploded"},
		frame{kind: kindRequest, id: 9,
			tc:   &trace.Context{TraceID: 0xfeed, SpanID: 0xbeef, Sampled: true, Caller: "10.0.0.1:4000"},
			body: echoReq{Msg: "traced"}},
		frame{kind: kindResponse, id: 10, frags: trace.AppendFragments(nil, trace.Wire{
			TraceID: 1, Parent: 2, SpanID: 3, Name: "serve", DurUS: 42,
			Items: []trace.WireItem{{Kind: "event", Detail: "hit"}},
		})},
	)
	out := make([][]byte, 0, len(frames))
	for i := range frames {
		b, err := appendFrame(nil, &frames[i])
		if err != nil {
			t.Fatalf("encoding seed frame %d: %v", i, err)
		}
		out = append(out, b)
	}
	return out
}

// TestFrameRoundTripRegistered re-parses every corpus frame and checks
// encode(parse(x)) == x semantically.
func TestFrameRoundTripRegistered(t *testing.T) {
	for i, payload := range sampleFrames(t) {
		fr, err := parseFrame(NewCursor(payload))
		if err != nil {
			t.Fatalf("frame %d failed to parse: %v", i, err)
		}
		again, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("frame %d failed to re-encode: %v", i, err)
		}
		fr2, err := parseFrame(NewCursor(again))
		if err != nil {
			t.Fatalf("frame %d failed to re-parse: %v", i, err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Errorf("frame %d changed across a round trip:\nfirst:  %+v\nsecond: %+v", i, fr, fr2)
		}
	}
}

// TestRouteTableCodecRoundTrip pins the one-round-trip routing hop on
// the wire: RouteTableReq crosses in a request frame as its bare tag, and
// the RouteTableResp that answers it comes back list for list, ref for
// ref, in order.
func TestRouteTableCodecRoundTrip(t *testing.T) {
	refs := []chord.Ref{
		{ID: 0x9e3779b9, Addr: "10.0.0.2:7001"},
		{ID: 0xffffffff, Addr: "10.0.0.3:7001"},
		{ID: 0, Addr: "[::1]:7002"},
		{ID: 0x9e3779b9, Addr: "10.0.0.2:7001"},
	}
	cases := []frame{
		{kind: kindRequest, id: 1, body: RouteTableReq{}},
		{kind: kindResponse, id: 1, body: RouteTableResp{Succs: refs[:2], Cands: refs}},
		{kind: kindResponse, id: 2, body: RouteTableResp{Succs: refs[:1]}},
		{kind: kindResponse, id: 3, body: RefsResp{Refs: refs}},
	}
	for i := range cases {
		payload, err := appendFrame(nil, &cases[i])
		if err != nil {
			t.Fatalf("case %d failed to encode: %v", i, err)
		}
		got, err := parseFrame(NewCursor(payload))
		if err != nil {
			t.Fatalf("case %d failed to parse: %v", i, err)
		}
		if !reflect.DeepEqual(got.body, cases[i].body) {
			t.Errorf("case %d: body %#v, want %#v", i, got.body, cases[i].body)
		}
	}
}

// TestRouteTableFrameGolden pins the exact bytes of a route-table round
// trip: the request (kind, id, flags, tag 18) and a response (tag 19,
// then the successor list and the candidates, each a count and
// id/address pairs), so a codec change cannot silently change the wire.
// A peer that predates tag 19 rejects the response as an unknown tag.
func TestRouteTableFrameGolden(t *testing.T) {
	a := chord.Ref{ID: 0x0b3371f0, Addr: "10.0.0.2:4000"}
	b := chord.Ref{ID: 0x90d9e78d, Addr: "10.0.0.3:4000"}
	cases := []struct {
		f    frame
		want string
	}{
		{frame{kind: kindRequest, id: 5, body: RouteTableReq{}}, "00050012"},
		{frame{kind: kindResponse, id: 5, body: RouteTableResp{Succs: []chord.Ref{a, b}, Cands: []chord.Ref{b}}},
			"01050013" +
				"02" + "f0e3cd59" + "0d31302e302e302e323a34303030" + "8dcfe78609" + "0d31302e302e302e333a34303030" +
				"01" + "8dcfe78609" + "0d31302e302e302e333a34303030"},
	}
	for _, c := range cases {
		b, err := appendFrame(nil, &c.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%T frame bytes changed:\ngot  %s\nwant %s", c.f.body, got, c.want)
		}
		back, err := parseFrame(NewCursor(b))
		if err != nil || !reflect.DeepEqual(back.body, c.f.body) {
			t.Errorf("%T frame parsed as %#v, %v", c.f.body, back.body, err)
		}
	}

	resp, _ := hex.DecodeString(cases[1].want)
	entry := codecByTag[tagRouteTableResp]
	delete(codecByTag, tagRouteTableResp)
	defer func() { codecByTag[tagRouteTableResp] = entry }()
	if _, err := parseFrame(NewCursor(resp)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("response parsed without the tag 19 codec: %v, want ErrBadFrame", err)
	}
}

// FuzzFrameParse feeds arbitrary payloads to the frame parser. Whatever
// parses must re-encode and re-parse to the same frame; everything else
// must fail cleanly (no panic, no runaway allocation). Seeds cover every
// registered message type plus truncations of a fully loaded frame.
func FuzzFrameParse(f *testing.F) {
	corpus := sampleFrames(f)
	for _, payload := range corpus {
		f.Add(payload)
	}
	full := corpus[len(corpus)-1]
	for cut := 0; cut < len(full); cut += 3 {
		f.Add(full[:cut]) // truncated frames
	}
	f.Add([]byte{kindRequest, 0x01, flagSpans, 0xff, 0xff, 0xff, 0xff, 0x0f}) // absurd span count
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<16 {
			return
		}
		fr, err := parseFrame(NewCursor(payload))
		if err != nil {
			return
		}
		if fr.frags != nil {
			// Whatever fragment list the parser accepts must graft,
			// render and export.
			root := trace.New("fuzz")
			root.GraftFragments(fr.frags)
			_ = root.Tree(true)
			_ = root.Export()
		}
		again, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("parsed frame failed to re-encode: %v", err)
		}
		fr2, err := parseFrame(NewCursor(again))
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Errorf("frame changed across a round trip:\nfirst:  %+v\nsecond: %+v", fr, fr2)
		}
	})
}

// TestFrameRejectsReservedTag pins that tag 1, which once carried a gob
// blob, decodes as ErrBadFrame in both frame directions, with or
// without bytes behind it.
func TestFrameRejectsReservedTag(t *testing.T) {
	for _, kind := range []byte{kindRequest, kindResponse} {
		payload := binary.AppendUvarint([]byte{kind, 0x01, 0x00}, tagReserved)
		for _, p := range [][]byte{payload, append(payload, 0x03, 'a', 'b', 'c')} {
			if _, err := parseFrame(NewCursor(p)); !errors.Is(err, ErrBadFrame) {
				t.Errorf("kind %d: reserved tag parsed with err = %v, want ErrBadFrame", kind, err)
			}
		}
	}
}

// TestFrameWithoutCodecFailsToEncode pins that a body type with no
// registered codec is an encode error, not a frame on the wire.
func TestFrameWithoutCodecFailsToEncode(t *testing.T) {
	type uncoded struct{ N int }
	f := frame{kind: kindRequest, id: 1, body: uncoded{N: 1}}
	if b, err := appendFrame(nil, &f); err == nil {
		t.Errorf("uncoded body encoded to %d bytes, want an error", len(b))
	}
}

// TestReadFramePayloadGuards pins the length-prefix defenses: a declared
// length beyond MaxFrame is rejected before any allocation, an overlong
// uvarint prefix is a bad frame, and a torn payload reports how many
// bytes it consumed.
func TestReadFramePayloadGuards(t *testing.T) {
	var rbuf []byte

	oversized := binary.AppendUvarint(nil, uint64(MaxFrame)+1)
	if _, _, err := readFramePayload(bufio.NewReader(bytes.NewReader(oversized)), &rbuf, MaxFrame); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized length prefix: err = %v, want ErrBadFrame", err)
	}

	overlong := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64+1)
	if _, _, err := readFramePayload(bufio.NewReader(bytes.NewReader(overlong)), &rbuf, MaxFrame); !errors.Is(err, ErrBadFrame) {
		t.Errorf("overlong uvarint: err = %v, want ErrBadFrame", err)
	}

	torn := append(binary.AppendUvarint(nil, 100), make([]byte, 10)...)
	_, consumed, err := readFramePayload(bufio.NewReader(bytes.NewReader(torn)), &rbuf, MaxFrame)
	if err == nil {
		t.Fatal("torn frame parsed")
	}
	if consumed != len(torn) {
		t.Errorf("torn frame consumed %d bytes, want %d", consumed, len(torn))
	}
}

// TestPreallocHintClampsHostileCounts pins the allocation defense for
// wire-declared element counts: a count inside the payload-length guard
// can still be millions (one byte per element minimum), so decoders must
// start small and let append grow.
func TestPreallocHintClampsHostileCounts(t *testing.T) {
	if got := PreallocHint(3); got != 3 {
		t.Errorf("PreallocHint(3) = %d, want 3", got)
	}
	if got := PreallocHint(16 << 20); got != preallocLimit {
		t.Errorf("PreallocHint(16M) = %d, want %d", got, preallocLimit)
	}
}

// TestFrameRejectsWrongDirectionTag checks that a tag registered for one
// frame direction does not decode in the other: a hostile client must
// not be able to drive a server through response decoders.
func TestFrameRejectsWrongDirectionTag(t *testing.T) {
	cases := []frame{
		{kind: kindRequest, id: 1, body: RefsResp{Refs: nil}}, // response tag in a request
		{kind: kindResponse, id: 2, body: FindSuccessorReq{}}, // request tag in a response
		{kind: kindResponse, id: 3, body: RouteTableReq{}},    // route-table request in a response
	}
	for i := range cases {
		payload, err := appendFrame(nil, &cases[i])
		if err != nil {
			t.Fatalf("case %d failed to encode: %v", i, err)
		}
		if _, err := parseFrame(NewCursor(payload)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("case %d: wrong-direction tag parsed with err = %v, want ErrBadFrame", i, err)
		}
	}
}

// TestConnectionBuffersDropLargeFrames: after one 1 MiB frame crosses a
// connection, neither its writer's encode and flush buffers nor its
// reader's frame buffer keeps more than maxRetainedBuf, while a routine
// frame afterwards reuses the buffer it is given; and frames far larger
// than the connection read buffer round-trip over TCP.
func TestConnectionBuffersDropLargeFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	g := &groupWriter{conn: client}
	small := frame{kind: kindResponse, id: 2, body: echoResp{Msg: "ok"}}
	sent := make(chan error, 1)
	go func() {
		f := frame{kind: kindResponse, id: 1, body: echoResp{Msg: strings.Repeat("x", 1<<20)}}
		if err := g.writeFrame(&f, 0); err != nil {
			sent <- err
			return
		}
		sent <- g.writeFrame(&small, 0)
	}()
	br := bufio.NewReader(server)
	var rbuf []byte
	payload, _, err := readFramePayload(br, &rbuf, MaxRespFrame)
	if err != nil || len(payload) < 1<<20 {
		t.Fatalf("read the 1 MiB frame: %d bytes, %v", len(payload), err)
	}
	if cap(rbuf) > maxRetainedBuf {
		t.Errorf("reader keeps a %d-byte buffer after the large frame, cap %d", cap(rbuf), maxRetainedBuf)
	}
	if _, _, err := readFramePayload(br, &rbuf, MaxRespFrame); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	for name, b := range map[string][]byte{"scratch": g.scratch, "spare": g.spare, "queued": g.queued} {
		if cap(b) > maxRetainedBuf {
			t.Errorf("writer keeps a %d-byte %s buffer after the large frame, cap %d", cap(b), name, maxRetainedBuf)
		}
	}
	g.mu.Unlock()
	if cap(rbuf) == 0 || cap(g.scratch) == 0 {
		t.Errorf("routine frame left no reusable buffer: reader %d, writer %d bytes", cap(rbuf), cap(g.scratch))
	}

	// Over TCP, frames of 64 KiB and 1 MiB, each many times connReadBuf,
	// cross both buffered readers, the server's as a request and the
	// client's as the echoed response, and a routine call follows on the
	// same connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, echoHandler)
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()
	for _, size := range []int{64 << 10, 1 << 20, 2} {
		msg := strings.Repeat("y", size)
		resp, err := call(caller, srv.Addr(), echoReq{Msg: msg})
		if err != nil {
			t.Fatalf("%d-byte round trip: %v", size, err)
		}
		if got, ok := resp.(echoResp); !ok || got.Msg != msg {
			t.Fatalf("%d-byte round trip came back altered (%T)", size, resp)
		}
	}
}

// TestLargeResponseRidesBinaryPath pins the asymmetric frame limit: a
// response far beyond MaxFrame (the request cap) must still cross the
// multiplexed connection through its codec, because bulk payloads like
// FetchDataResp have no other way onto the wire.
func TestLargeResponseRidesBinaryPath(t *testing.T) {
	big := string(bytes.Repeat([]byte{'x'}, MaxFrame+(1<<20)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		return echoResp{Msg: big}, nil
	}))
	defer srv.Close()
	caller := NewTCPCaller()
	caller.CallTimeout = 30 * time.Second
	defer caller.Close()
	resp, err := call(caller, srv.Addr(), echoReq{Msg: "gimme"})
	if err != nil {
		t.Fatalf("oversized response failed: %v", err)
	}
	if got := resp.(echoResp).Msg; len(got) != len(big) {
		t.Errorf("response truncated: got %d bytes, want %d", len(got), len(big))
	}
	caller.mu.Lock()
	nmux := len(caller.muxes)
	caller.mu.Unlock()
	if nmux != 1 {
		t.Errorf("large response used %d mux connections, want 1", nmux)
	}
}

// TestGroupWriterFlushDeadline wedges a groupWriter against a pipe
// nobody reads: the armed write deadline must fail the flush (and poison
// the writer) instead of blocking in Write forever.
func TestGroupWriterFlushDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	gw := &groupWriter{conn: client}
	f := frame{kind: kindResponse, id: 1, body: echoResp{Msg: "stuck"}}
	errc := make(chan error, 1)
	go func() { errc <- gw.writeFrame(&f, 50*time.Millisecond) }()
	select {
	case err := <-errc:
		if err == nil || !isTimeout(err) {
			t.Errorf("wedged flush returned %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush did not return after its write deadline")
	}
	if err := gw.writeFrame(&f, 50*time.Millisecond); err == nil {
		t.Error("writer not poisoned after a failed flush")
	}
}

// --- hello ---

// helloServer listens on loopback and hands every accepted connection to
// serve, closing it afterwards.
func helloServer(t *testing.T, serve func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// TestHelloIsTheProtocolCheck covers both ends of the hello. A caller
// whose hello is dropped or answered wrongly fails the call with a
// retryable error and keeps no connection; a server sent anything but
// the hello (here, the start of a gob stream) closes the connection
// without running its handler.
func TestHelloIsTheProtocolCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte // written after reading the hello; nil drops the connection
	}{
		{"dropped", nil},
		{"wrong-ack", []byte{0xB1, 'p', '2', 'r', 0}},
	} {
		t.Run("client/"+tc.name, func(t *testing.T) {
			addr, stop := helloServer(t, func(conn net.Conn) {
				var hello [len(binaryMagic)]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					return
				}
				if tc.reply != nil {
					conn.Write(tc.reply)
				}
			})
			defer stop()
			caller := NewTCPCaller()
			defer caller.Close()
			for i := 0; i < 2; i++ {
				_, err := call(caller, addr, echoReq{Msg: "hello?"})
				if err == nil {
					t.Fatalf("call %d succeeded without a valid hello ack", i)
				}
				if !Retryable(err) {
					t.Errorf("call %d: %v is not retryable", i, err)
				}
			}
			caller.mu.Lock()
			nmux := len(caller.muxes)
			caller.mu.Unlock()
			if nmux != 0 {
				t.Errorf("%d mux connections kept after a failed hello, want 0", nmux)
			}
		})
	}

	t.Run("server/non-hello", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var handled atomic.Int32
		srv := ServeTCP(ln, func(tc trace.Context, req any) (any, []byte, error) {
			handled.Add(1)
			return echoHandler(tc, req)
		})
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var stream bytes.Buffer
		if err := gob.NewEncoder(&stream).Encode(echoReq{Msg: "legacy"}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(stream.Bytes()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); err != io.EOF {
			t.Fatalf("server answered a non-hello stream: read %d bytes, err %v; want EOF", n, err)
		}
		if n := handled.Load(); n != 0 {
			t.Errorf("handler ran %d times for a connection without a hello", n)
		}
	})
}

// TestHandshakeTimeoutDoesNotLatchGob hits a server that accepts but
// never answers the hello: the call must fail within the dial timeout
// with a retryable error, so a retry layer can try again once the peer
// recovers.
func TestHandshakeTimeoutDoesNotLatchGob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var hmu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			hmu.Lock()
			held = append(held, conn) // accept, read nothing, answer nothing
			hmu.Unlock()
		}
	}()
	defer func() {
		hmu.Lock()
		for _, c := range held {
			c.Close()
		}
		hmu.Unlock()
	}()

	caller := NewTCPCaller()
	caller.DialTimeout = 100 * time.Millisecond
	defer caller.Close()
	_, err = call(caller, ln.Addr().String(), echoReq{Msg: "hello?"})
	if err == nil {
		t.Fatal("call against a mute server succeeded")
	}
	if !Retryable(err) {
		t.Errorf("handshake timeout %v is not retryable", err)
	}
}

// --- multiplexing ---

// TestMuxPipelinesBehindSlowHandler proves requests share one connection
// without head-of-line blocking: a fast call issued while a slow call is
// in flight on the same mux must complete long before the slow one.
func TestMuxPipelinesBehindSlowHandler(t *testing.T) {
	const delay = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		if req.(echoReq).Msg == "slow" {
			time.Sleep(delay)
		}
		return echoResp{Msg: req.(echoReq).Msg}, nil
	}))
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := call(caller, srv.Addr(), echoReq{Msg: "slow"})
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow request get on the wire
	start := time.Now()
	if _, err := call(caller, srv.Addr(), echoReq{Msg: "fast"}); err != nil {
		t.Fatal(err)
	}
	if fastTook := time.Since(start); fastTook > delay/2 {
		t.Errorf("fast call took %v behind a %v handler; pipelining is not working", fastTook, delay)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	caller.mu.Lock()
	nmux := len(caller.muxes)
	caller.mu.Unlock()
	if nmux != 1 {
		t.Errorf("calls used %d connections, want 1 multiplexed", nmux)
	}
}

// TestMuxCloseRacesInFlightCalls closes the caller while calls sit in
// flight on the multiplexed path: every call must return promptly —
// either its real response or ErrCallerClosed — and no goroutine may
// deadlock waiting for a correlation id that will never resolve.
func TestMuxCloseRacesInFlightCalls(t *testing.T) {
	const delay = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		time.Sleep(delay)
		return echoResp{Msg: "late"}, nil
	}))
	defer srv.Close()

	for round := 0; round < 5; round++ {
		caller := NewTCPCaller()
		var wg sync.WaitGroup
		var unexpected atomic.Int32
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := call(caller, srv.Addr(), echoReq{Msg: "inflight"})
				if err != nil && !errors.Is(err, ErrCallerClosed) && !Retryable(err) {
					t.Errorf("in-flight call failed oddly: %v", err)
					unexpected.Add(1)
				}
			}()
		}
		time.Sleep(delay / 2) // calls are now pipelined and waiting
		caller.Close()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight calls did not return after Close: deadlock")
		}
		if _, err := call(caller, srv.Addr(), echoReq{}); !errors.Is(err, ErrCallerClosed) {
			t.Fatalf("call after Close = %v, want ErrCallerClosed", err)
		}
	}
}

// TestMuxHandlerPanicBecomesError checks the serveBinary recovery path:
// a panicking handler answers with an error frame (counted in
// transport.panics) instead of tearing down the connection — the next
// call on the same mux still works.
func TestMuxHandlerPanicBecomesError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		if req.(echoReq).Msg == "panic" {
			panic("kaboom")
		}
		return echoResp{Msg: "fine"}, nil
	}))
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()

	before := metPanics.Value()
	_, err = call(caller, srv.Addr(), echoReq{Msg: "panic"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("panicking handler returned %v, want RemoteError", err)
	}
	if metPanics.Value() != before+1 {
		t.Errorf("transport.panics = %d, want %d", metPanics.Value(), before+1)
	}
	if _, err := call(caller, srv.Addr(), echoReq{Msg: "ok"}); err != nil {
		t.Fatalf("call after handler panic: %v (connection should survive)", err)
	}
}

// TestMissingCodecsListsUncodedTypes pins the completeness gate's
// primitive: a type declared with RegisterType but given no binary codec is
// listed, and the chord RPCs (all coded) are not.
func TestMissingCodecsListsUncodedTypes(t *testing.T) {
	type uncodedMsg struct{ N int }
	RegisterType(uncodedMsg{})
	missing := MissingCodecs()
	if len(missing) != 1 || missing[0] != reflect.TypeOf(uncodedMsg{}).String() {
		t.Errorf("MissingCodecs() = %v, want just the uncoded test type", missing)
	}
}

// goldenFragment is a two-level serve fragment: a serve span with events
// on both sides of a nested child span that has its own event.
var goldenFragment = trace.Wire{
	TraceID: 0x1234, Parent: 0x55, SpanID: 0x9a,
	Name: "serve FindBestBatch @10.0.0.2:7001", DurUS: 1500,
	Items: []trace.WireItem{
		{Kind: "from", Detail: "10.0.0.1:7001"},
		{Kind: "batch", Detail: "2 probe(s)"},
		{Child: &trace.Wire{
			TraceID: 0x1234, Parent: 0x9a, SpanID: 0x9b, Name: "seg.read", DurUS: 300,
			Items: []trace.WireItem{{Kind: "scan", Detail: "bucket 0000beef: 3 disk candidate(s)"}},
		}},
		{Kind: "best", Detail: "id=0000beef [30,50] score=1.000"},
	},
}

// TestFrameFragmentGolden pins the exact bytes of a response frame that
// carries a two-level span fragment, so a change to how fragments are
// stored or passed cannot change what goes on the wire.
func TestFrameFragmentGolden(t *testing.T) {
	const want = "012a0401b424559a012273657276652046696e6442657374" +
		"4261746368204031302e302e302e323a37303031b8170404" +
		"66726f6d0d31302e302e302e313a37303031000562617463" +
		"680a322070726f626528732900000001b4249a019b010873" +
		"65672e72656164d80401047363616e246275636b65742030" +
		"303030626565663a2033206469736b2063616e6469646174" +
		"652873290004626573741f69643d3030303062656566205b" +
		"33302c35305d2073636f72653d312e30303000e907026f6b"
	f := frame{kind: kindResponse, id: 42, frags: trace.AppendFragments(nil, goldenFragment), body: echoResp{Msg: "ok"}}
	b, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != want {
		t.Errorf("fragment frame bytes changed:\ngot  %s\nwant %s", got, want)
	}
	back, err := parseFrame(NewCursor(b))
	if err != nil {
		t.Fatal(err)
	}
	if ws := decodeFragments(t, back.frags); len(ws) != 1 || !reflect.DeepEqual(ws[0], goldenFragment) {
		t.Errorf("fragment decoded as %+v, want %+v", ws, goldenFragment)
	}
}

// BenchmarkServeFragment is one recorder-on serve round trip as the
// flight recorder pays it on every sampled RPC: the owner opens a Remote
// span, records one batch event and three best events, encodes the
// fragment once, and the caller parses the response frame and grafts
// the fragment under its batch span.
func BenchmarkServeFragment(b *testing.B) {
	ids := [3]uint32{0xcf7d4f9f, 0x69c1a38f, 0x86e9e0fd}
	rg := rangeset.Range{Lo: 30, Hi: 50}
	var parent *trace.Span
	var buf []byte
	cur := NewCursor(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// Keep the caller's tree under the span item cap.
			parent = trace.New("lookup").Child("batch @10.0.0.2:7001: 3 probe(s)")
		}
		tc := parent.Context("10.0.0.1:7001")
		sp := trace.Remote(tc, "serve FindBestBatch @10.0.0.2:7001")
		sp.Event("from", tc.Caller)
		sp.Eventf("batch", "%d probe(s)", len(ids))
		for _, id := range ids {
			sp.Eventf("best", "id=%08x %s score=%.3f", id, rg, 1.0)
		}
		sp.End()
		f := frame{kind: kindResponse, id: uint64(i), frags: sp.Fragment()}
		buf, _ = appendFrame(buf[:0], &f)
		cur.Reset(buf)
		back, err := parseFrame(cur)
		if err != nil {
			b.Fatal(err)
		}
		parent.GraftFragments(back.frags)
	}
}

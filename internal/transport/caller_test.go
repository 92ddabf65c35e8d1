package transport

import (
	"net"
	"testing"

	"p2prange/internal/trace"
)

// serveEcho is a Handler that reports the context it received on seen
// and, when that context is sampled, returns one "serve echo" fragment.
func serveEcho(seen chan<- trace.Context) Handler {
	return func(tc trace.Context, req any) (any, []byte, error) {
		seen <- tc
		sp := trace.Remote(tc, "serve echo")
		if sp == nil {
			return echoResp{Msg: req.(echoReq).Msg}, nil, nil
		}
		sp.Event("from", tc.Caller)
		sp.End()
		return echoResp{Msg: req.(echoReq).Msg}, sp.Fragment(), nil
	}
}

// failFirst fails its first call in transit after the handler ran,
// handing back that attempt's fragments with the error, then delegates.
type failFirst struct {
	inner  Caller
	failed bool
	lost   []byte
}

func (f *failFirst) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	resp, spans, err := f.inner.CallCtx(addr, tc, req)
	if !f.failed {
		f.failed = true
		f.lost = spans
		return nil, spans, netErrf("transport: synthetic response loss")
	}
	return resp, spans, err
}

// decodeFragments decodes a fragment list the way a reader of a grafted
// tree sees it, failing the test on bytes the frame parser would refuse.
func decodeFragments(t testing.TB, frags []byte) []trace.Wire {
	t.Helper()
	if size, _, err := trace.ScanFragments(frags); err != nil || size != len(frags) {
		t.Fatalf("fragments %x do not decode: %d of %d bytes, %v", frags, size, len(frags), err)
	}
	root := trace.New("decode")
	root.GraftFragments(frags)
	var ws []trace.Wire
	for _, it := range root.Export().Items {
		ws = append(ws, *it.Child)
	}
	return ws
}

// TestCallerContract pins the one Caller contract on every
// implementation: a sampled context reaches the handler and its
// fragments come back; a zero context reaches it unsampled and brings
// back no fragments.
func TestCallerContract(t *testing.T) {
	seen := make(chan trace.Context, 2) // a retried call serves twice
	h := serveEcho(seen)
	mem := NewMemory()
	mem.Register("a", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, h)
	defer srv.Close()
	tcp := NewTCPCaller()
	defer tcp.Close()

	root := trace.New("root")
	sampled := root.Context("caller")
	cases := []struct {
		name   string
		caller Caller
		addr   string
	}{
		{"memory", mem, "a"},
		{"tcp", tcp, srv.Addr()},
		{"retry(memory)", NewRetryCaller(mem, RetryConfig{}), "a"},
		{"fault(memory)", NewFaultCaller(mem, FaultConfig{}), "a"},
	}
	for _, tt := range cases {
		t.Run(tt.name+"/sampled", func(t *testing.T) {
			resp, spans, err := tt.caller.CallCtx(tt.addr, sampled, echoReq{Msg: "hi"})
			if err != nil {
				t.Fatalf("CallCtx: %v", err)
			}
			if got := <-seen; got != sampled {
				t.Errorf("handler saw %+v, want %+v", got, sampled)
			}
			if r, ok := resp.(echoResp); !ok || r.Msg != "hi" {
				t.Errorf("resp = %#v", resp)
			}
			ws := decodeFragments(t, spans)
			if len(ws) != 1 {
				t.Fatalf("got %d fragments, want 1", len(ws))
			}
			w := ws[0]
			if w.Name != "serve echo" || w.TraceID != sampled.TraceID || w.Parent != sampled.SpanID {
				t.Errorf("fragment = %+v, want serve echo under trace %x span %x", w, sampled.TraceID, sampled.SpanID)
			}
		})
		t.Run(tt.name+"/untraced", func(t *testing.T) {
			resp, spans, err := tt.caller.CallCtx(tt.addr, trace.Context{}, echoReq{Msg: "hi"})
			if err != nil {
				t.Fatalf("CallCtx: %v", err)
			}
			if got := <-seen; got != (trace.Context{}) {
				t.Errorf("handler saw %+v, want the zero context", got)
			}
			if r, ok := resp.(echoResp); !ok || r.Msg != "hi" {
				t.Errorf("resp = %#v", resp)
			}
			if spans != nil {
				t.Errorf("untraced call returned fragments %+v", spans)
			}
		})
	}

	t.Run("retry returns the successful attempt's fragments", func(t *testing.T) {
		inner := &failFirst{inner: mem}
		rc := NewRetryCaller(inner, RetryConfig{Attempts: 2})
		_, spans, err := rc.CallCtx("a", sampled, echoReq{Msg: "again"})
		if err != nil {
			t.Fatalf("CallCtx: %v", err)
		}
		<-seen
		<-seen
		lost, got := decodeFragments(t, inner.lost), decodeFragments(t, spans)
		if len(lost) != 1 {
			t.Fatalf("failed attempt produced %d fragments, want 1", len(lost))
		}
		if len(got) != 1 {
			t.Fatalf("got %d fragments, want only the successful attempt's 1", len(got))
		}
		if got[0].SpanID == lost[0].SpanID {
			t.Errorf("returned the failed attempt's fragment %+v", got[0])
		}
	})

	t.Run("fault response loss drops fragments", func(t *testing.T) {
		fc := NewFaultCaller(mem, FaultConfig{Fail: 1})
		resp, spans, err := fc.CallCtx("a", sampled, echoReq{Msg: "lost"})
		if got := <-seen; got != sampled {
			t.Errorf("handler saw %+v, want %+v", got, sampled)
		}
		if !Retryable(err) {
			t.Errorf("err = %v, want an injected network failure", err)
		}
		if resp != nil || spans != nil {
			t.Errorf("lost response returned resp %#v, fragments %+v", resp, spans)
		}
	})
}

package transport

import (
	"net"
	"testing"

	"p2prange/internal/trace"
)

// serveEcho is a Handler that reports the context it received on seen
// and, when that context is sampled, returns one "serve echo" fragment.
func serveEcho(seen chan<- trace.Context) Handler {
	return func(tc trace.Context, req any) (any, []trace.Wire, error) {
		seen <- tc
		sp := trace.Remote(tc, "serve echo")
		if sp == nil {
			return echoResp{Msg: req.(echoReq).Msg}, nil, nil
		}
		sp.Event("from", tc.Caller)
		sp.End()
		return echoResp{Msg: req.(echoReq).Msg}, []trace.Wire{sp.Export()}, nil
	}
}

// failFirst fails its first call in transit after the handler ran,
// handing back that attempt's fragments with the error, then delegates.
type failFirst struct {
	inner  Caller
	failed bool
	lost   []trace.Wire
}

func (f *failFirst) CallCtx(addr string, tc trace.Context, req any) (any, []trace.Wire, error) {
	resp, spans, err := f.inner.CallCtx(addr, tc, req)
	if !f.failed {
		f.failed = true
		f.lost = spans
		return nil, spans, netErrf("transport: synthetic response loss")
	}
	return resp, spans, err
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
			if len(spans) != 1 {
				t.Fatalf("got %d fragments, want 1", len(spans))
			}
			w := spans[0]
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
		if len(inner.lost) != 1 {
			t.Fatalf("failed attempt produced %d fragments, want 1", len(inner.lost))
		}
		if len(spans) != 1 {
			t.Fatalf("got %d fragments, want only the successful attempt's 1", len(spans))
		}
		if spans[0].SpanID == inner.lost[0].SpanID {
			t.Errorf("returned the failed attempt's fragment %+v", spans[0])
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

package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2prange/internal/metrics"
	"p2prange/internal/trace"
)

// flakyCaller fails the first n calls with err, then answers "ok".
type flakyCaller struct {
	mu       sync.Mutex
	failures int
	calls    int
	err      error
}

func (f *flakyCaller) CallCtx(string, trace.Context, any) (any, []trace.Wire, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.failures {
		return nil, nil, f.err
	}
	return echoResp{Msg: "ok"}, nil, nil
}

func TestRetryCallerRecoversTransientFailures(t *testing.T) {
	inner := &flakyCaller{failures: 2, err: netErrf("transport: synthetic drop")}
	rc := NewRetryCaller(inner, RetryConfig{Attempts: 3})
	before := metrics.Default.Snapshot()
	resp, err := call(rc, "x", echoReq{})
	if err != nil {
		t.Fatalf("Call after transient failures: %v", err)
	}
	if resp.(echoResp).Msg != "ok" {
		t.Errorf("resp = %v", resp)
	}
	if inner.calls != 3 {
		t.Errorf("inner calls = %d, want 3", inner.calls)
	}
	if got := metrics.Default.Snapshot().Sub(before).Counters["route.retries"]; got != 2 {
		t.Errorf("route.retries delta = %d, want 2", got)
	}
}

func TestRetryCallerGivesUpAfterAttempts(t *testing.T) {
	inner := &flakyCaller{failures: 100, err: netErrf("transport: synthetic drop")}
	rc := NewRetryCaller(inner, RetryConfig{Attempts: 3})
	_, err := call(rc, "x", echoReq{})
	if err == nil {
		t.Fatal("Call succeeded despite permanent failure")
	}
	if !Retryable(err) {
		t.Errorf("exhausted error lost its transport classification: %v", err)
	}
	if inner.calls != 3 {
		t.Errorf("inner calls = %d, want 3", inner.calls)
	}
}

func TestRetryCallerDoesNotRetryHandlerErrors(t *testing.T) {
	handlerErr := &RemoteError{Msg: "handler exploded"}
	inner := &flakyCaller{failures: 100, err: handlerErr}
	rc := NewRetryCaller(inner, RetryConfig{Attempts: 5})
	_, err := call(rc, "x", echoReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want the RemoteError back", err)
	}
	if inner.calls != 1 {
		t.Errorf("handler error retried: %d calls", inner.calls)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{netErrf("transport: dial x: refused"), true},
		{errors.New("some handler error"), false},
		{&RemoteError{Msg: "boom"}, false},
		{ErrUnknownAddr, true},
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestFaultCallerDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		inner := &flakyCaller{}
		fc := NewFaultCaller(inner, FaultConfig{Seed: 7, Drop: 0.3, Fail: 0.1})
		failures := 0
		for i := 0; i < 200; i++ {
			if _, err := call(fc, "x", echoReq{}); err != nil {
				failures++
				if !Retryable(err) {
					t.Fatalf("injected fault not transport-classified: %v", err)
				}
			}
		}
		return fc.Injected(), failures
	}
	inj1, fail1 := run()
	inj2, fail2 := run()
	if inj1 != inj2 || fail1 != fail2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d faults", inj1, fail1, inj2, fail2)
	}
	if inj1 == 0 {
		t.Error("no faults injected at 30% drop rate")
	}
}

func TestFaultCallerSetDown(t *testing.T) {
	inner := &flakyCaller{}
	fc := NewFaultCaller(inner, FaultConfig{})
	if _, err := call(fc, "x", echoReq{}); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	fc.SetDown("x", true)
	if _, err := call(fc, "x", echoReq{}); !errors.Is(err, ErrNetwork) {
		t.Errorf("outage not injected: %v", err)
	}
	if _, err := call(fc, "y", echoReq{}); err != nil {
		t.Errorf("outage leaked to other address: %v", err)
	}
	fc.SetDown("x", false)
	if _, err := call(fc, "x", echoReq{}); err != nil {
		t.Errorf("healed address still down: %v", err)
	}
}

// TestTCPConcurrentCallsNotSerialized proves the multiplexed connection
// lets calls to one address overlap: with a 100ms handler, four
// concurrent calls must take far less than the 400ms a client that
// waits for each round trip needs.
func TestTCPConcurrentCallsNotSerialized(t *testing.T) {
	const delay = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, untraced(func(req any) (any, error) {
		time.Sleep(delay)
		return echoResp{Msg: "slow"}, nil
	}))
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()

	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := call(caller, srv.Addr(), echoReq{}); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failed.Load() > 0 {
		t.Fatalf("%d concurrent calls failed", failed.Load())
	}
	if elapsed >= 3*delay {
		t.Errorf("4 concurrent calls took %v; they serialized behind each other", elapsed)
	}
}

// TestTCPCallerCloseRace drives Call and Close concurrently (run with
// -race): a call in flight during Close must not resurrect a connection
// the Close cannot see, and calls after Close must fail fast.
func TestTCPCallerCloseRace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, echoHandler)
	defer srv.Close()

	for round := 0; round < 20; round++ {
		caller := NewTCPCaller()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					_, err := call(caller, srv.Addr(), echoReq{Msg: "race"})
					if err != nil && !errors.Is(err, ErrCallerClosed) && !Retryable(err) {
						t.Errorf("unexpected error during close race: %v", err)
						return
					}
				}
			}()
		}
		caller.Close()
		wg.Wait()
		if _, err := call(caller, srv.Addr(), echoReq{}); !errors.Is(err, ErrCallerClosed) {
			t.Fatalf("call after Close = %v, want ErrCallerClosed", err)
		}
	}
}

// TestTCPServerClosedMidCallError pins the failure mode of a server
// vanishing between calls: the error must be ErrNetwork-classified (so
// retry layers recognize it), not a bare io.EOF.
func TestTCPServerClosedMidCallError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, echoHandler)
	caller := NewTCPCaller()
	defer caller.Close()
	addr := srv.Addr()
	if _, err := call(caller, addr, echoReq{Msg: "warm"}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, err = call(caller, addr, echoReq{Msg: "late"})
	if err == nil {
		t.Fatal("call to closed server succeeded")
	}
	if err == io.EOF {
		t.Error("bare io.EOF escaped the transport")
	}
	if !errors.Is(err, ErrNetwork) {
		t.Errorf("closed-server error not ErrNetwork-classified: %v", err)
	}
	if !Retryable(err) {
		t.Errorf("closed-server error not retryable: %v", err)
	}
}

// TestTCPRedialAfterReset proves a multiplexed connection killed by a
// failure re-dials transparently once the server is back on the same
// address.
func TestTCPRedialAfterReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := ServeTCP(ln, echoHandler)
	caller := NewTCPCaller()
	defer caller.Close()
	if _, err := call(caller, addr, echoReq{Msg: "first"}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := call(caller, addr, echoReq{Msg: "down"}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := ServeTCP(ln2, echoHandler)
	defer srv2.Close()
	resp, err := call(caller, addr, echoReq{Msg: "back"})
	if err != nil {
		t.Fatalf("re-dial after reset failed: %v", err)
	}
	if resp.(echoResp).Msg != "back" {
		t.Errorf("resp = %v", resp)
	}
}

// TestRemoteErrorSurvivesTCP pins that a handler-side error crosses the
// TCP transport as a RemoteError with its message intact, and is not
// mistaken for a transport failure.
func TestRemoteErrorSurvivesTCP(t *testing.T) {
	srv, caller := startTCP(t)
	_, err := call(caller, srv.Addr(), echoReq{Msg: "boom"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Msg != "handler exploded" {
		t.Errorf("message mangled in transit: %q", remote.Msg)
	}
	if Retryable(err) {
		t.Error("handler error classified as retryable transport failure")
	}
}

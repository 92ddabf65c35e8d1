package transport

import (
	"errors"
	"fmt"
	"time"

	"p2prange/internal/metrics"
	"p2prange/internal/trace"
)

// The Default-registry transport.* family: calls counts every request a
// caller issues (in-memory or TCP), errors counts transport-level
// delivery failures — the denominators and numerators behind the retry
// and reroute rates of route.*.
var (
	metCalls  = metrics.Default.Counter("transport.calls")
	metErrors = metrics.Default.Counter("transport.errors")
	// metPanics counts handler panics recovered by the server loops and
	// converted to envelope errors instead of crashing the process.
	metPanics = metrics.Default.Counter("transport.panics")
	// metCallUS is the round-trip latency of calls issued through CallCtx
	// — the peer protocol's remote path. Sampled calls pin their trace ID
	// to the bucket as an exemplar, so a latency outlier in the Prometheus
	// exposition names a trace the flight recorder can look up.
	metCallUS = metrics.Default.IntHistogram("transport.call_us")
)

// Caller issues a request to the node at addr and returns its response,
// propagating the trace context tc and carrying back any span fragments
// the remote side recorded. A zero tc is an untraced call: nothing extra
// rides the wire and no fragments return. Requests and responses are
// plain values; over TCP each concrete type needs a binary codec
// registered with RegisterCodec.
type Caller interface {
	CallCtx(addr string, tc trace.Context, req any) (any, []trace.Wire, error)
}

// Handler serves requests arriving at one node. It receives the caller's
// trace context and returns the response value, any span fragments
// recorded while serving (for the transport to piggyback on the
// response), or an error the transport carries back to the caller. An
// unsampled (zero) context serves untraced and returns no fragments.
type Handler func(tc trace.Context, req any) (any, []trace.Wire, error)

// CallCtx issues a call through c, timing it into transport.call_us.
// Sampled calls also pin their trace ID to the latency bucket as an
// exemplar. The peer protocol issues its calls here; chord maintenance
// and other auxiliary traffic call c.CallCtx directly and stay untimed.
func CallCtx(c Caller, addr string, tc trace.Context, req any) (any, []trace.Wire, error) {
	start := time.Now()
	resp, spans, err := c.CallCtx(addr, tc, req)
	us := uint64(time.Since(start).Microseconds())
	metCallUS.Observe(us)
	if tc.Sampled {
		metCallUS.SetExemplar(us, fmt.Sprintf("%016x", tc.TraceID))
	}
	return resp, spans, err
}

// ErrUnknownAddr is returned by the in-memory network for addresses with
// no registered handler, modeling an unreachable peer.
var ErrUnknownAddr = errors.New("transport: unknown address")

// ErrBadRequest is returned by handlers for unrecognized request types.
var ErrBadRequest = errors.New("transport: bad request")

// ErrNetwork marks transport-level delivery failures — dial errors,
// dropped or closed connections, timeouts, injected faults — as opposed
// to errors returned by the remote handler. The distinction drives retry
// policy: a network failure on an idempotent request is safe to retry,
// while a handler error is a definitive answer from a live node.
var ErrNetwork = errors.New("transport: network failure")

// ErrCallerClosed is returned for calls issued after a caller's Close.
var ErrCallerClosed = errors.New("transport: caller closed")

// netError wraps a transport-level failure so it matches ErrNetwork under
// errors.Is while preserving the cause chain.
type netError struct{ cause error }

func (e *netError) Error() string   { return e.cause.Error() }
func (e *netError) Unwrap() []error { return []error{ErrNetwork, e.cause} }

// netErrf builds an ErrNetwork-classified error. Every construction is
// one delivery failure, so the transport.errors counter lives here.
func netErrf(format string, args ...any) error {
	metErrors.Inc()
	return &netError{cause: fmt.Errorf(format, args...)}
}

// Retryable reports whether err is a transport-level delivery failure
// that a bounded retry may recover from. Handler errors (including
// RemoteError) are not retryable: the request reached a live node.
func Retryable(err error) bool {
	return errors.Is(err, ErrNetwork) || errors.Is(err, ErrUnknownAddr)
}

// RemoteError is how a handler-side failure surfaces at the caller when
// the transport cannot carry the original error value (TCP). The in-memory
// transport returns handler errors unwrapped.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// BadRequest builds the standard unknown-request-type error.
func BadRequest(req any) error {
	return fmt.Errorf("%w: %T", ErrBadRequest, req)
}

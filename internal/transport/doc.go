// Package transport carries the system's peer-to-peer messages: the chord
// maintenance RPCs, the Sec. 4 partition lookup/store protocol, and
// partition data fetches all flow through the one-method Caller interface,
// so every layer above is transport-agnostic.
//
// There is one signature per side. Caller.CallCtx sends a request with
// an internal/trace Context and returns the response plus any span
// fragments the remote side recorded; a Handler receives that context
// and returns the fragments for the transport to piggyback home. A zero
// context is an untraced call: no context rides the wire and no
// fragments come back. The package function CallCtx wraps a Caller with
// the transport.call_us timer; the peer protocol issues its calls there.
//
// Two implementations are provided. The in-memory Memory network gives the
// deterministic zero-latency fabric internal/sim uses for the paper-scale
// simulations (Figs. 6-12); unreachable addresses return ErrUnknownAddr,
// modeling crashed peers. The TCP transport (TCPServer/TCPCaller) runs the
// same protocols for live clusters (cmd/peerd) over one multiplexed
// connection per address in a binary frame format, opened by a 5-byte
// hello: every message type registers a codec once via RegisterCodec.
//
// Resilience wraps composably around either transport:
//
//   - RetryCaller retries transient network failures with exponential
//     backoff and jitter (cmd/peerd -retries), counting attempts in the
//     route.retries counter.
//   - FaultCaller injects deterministic drops, delays, and outages
//     (cmd/peerd -drop) for fault-model experiments — failures look like
//     ErrNetwork to the layers above, exactly as a real partition would.
//
// ErrNetwork classifies delivery failures (dial/timeout/connection reset)
// apart from application errors, which is what failure-aware chord
// routing (internal/chord) keys its reroute decisions on.
package transport

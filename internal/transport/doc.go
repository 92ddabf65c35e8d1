// Package transport carries the system's peer-to-peer messages: the chord
// maintenance RPCs, the Sec. 4 partition lookup/store protocol, and
// partition data fetches all flow through the one-method Caller interface,
// so every layer above is transport-agnostic.
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
//     backoff and jitter (cmd/peerd -retries), counting attempts in
//     metrics.RouteStats.
//   - FaultCaller injects deterministic drops, delays, and outages
//     (cmd/peerd -drop) for fault-model experiments — failures look like
//     ErrNetwork to the layers above, exactly as a real partition would.
//
// ErrNetwork classifies delivery failures (dial/timeout/connection reset)
// apart from application errors, which is what failure-aware chord
// routing (internal/chord) keys its reroute decisions on.
package transport

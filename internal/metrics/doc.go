// Package metrics is the measurement layer of the reproduction: the
// summary statistics the paper's evaluation plots, the live counters the
// running system maintains, and the unified registry that surfaces both.
//
// # Evaluation statistics (paper Sec. 5)
//
// Histogram bins [0,1] similarity scores (the y-axes of Figs. 6-7), CDF
// accumulates recall samples and reports the "percentage of queries
// answered up to at least x" survival curves of Figs. 8-10, IntDist is
// the discrete path-length PDF of Fig. 12(b), and LoadSummary reports the
// per-node load percentiles of Fig. 11. These are offline aggregates:
// experiments fill them and print them once.
//
// # Live counters
//
// SigStats counts signature-cache events (hits, misses, evictions) per
// signer. It is a nil-safe atomic struct: call sites never guard against
// metrics being disabled.
//
// # The registry
//
// Registry unifies everything behind named counters, gauges, and
// power-of-two integer histograms with concurrent get-or-create access,
// point-in-time Snapshot (JSON-marshalable), delta computation
// (Snapshot.Sub), and Reset. The process-wide Default registry is fed by
// every instrumented package — sig.* arrives automatically because every
// SigStats method mirrors into it, and the chord, peer, query,
// transport, can, and flood packages register their own families. The
// route.* failure-handling counters (lookups, failed lookups, reroutes
// around suspect nodes, transport retries — the availability story
// behind the Fig. 12 hop counts under churn) are chord's and
// transport's; a caller that wants one run's counts takes a Snapshot
// delta. peerd serves the Default snapshot as expvar JSON (-debug-addr),
// rangebench dumps per-experiment deltas (-metrics-out), and
// docs/OBSERVABILITY.md catalogues every family.
package metrics

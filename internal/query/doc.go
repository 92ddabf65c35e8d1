// Package query implements the restricted SQL front end of the paper's
// architecture (Sec. 2, Fig. 1): SELECT queries with conjunctive WHERE
// clauses of single-attribute range predicates and equijoins.
//
// # Pipeline
//
// Parse lexes and parses the SQL subset into a Query; BuildPlan (and
// BuildPlanWith, which adds the multi-attribute and statistics-based
// join-ordering extensions from the paper's future-work list) pushes
// selects to the leaves and emits, per relation, the one range selection
// the P2P layer resolves through the DHT — the Fig. 1 plan shape, where
// "select operations are pushed onto the DHT" and the rest evaluates at
// the querying peer. Execute fetches each leaf through a Source (the DHT
// in P2P deployments, via peer.DataSource), applies residual filters,
// evaluates equijoins with hash joins, and projects; Result carries
// per-scan recall so callers can report how approximate the answer is
// (the Figs. 8-10 metric per query), plus the signature-cache outcome
// when the source implements SigStatsProvider.
//
// # Observability
//
// ExecuteTraced records one child span per scan leaf on an internal/trace
// Span plus the join/projection stage. Source.Fetch receives the leaf's
// span: peer.DataSource records the whole DHT lookup inside it, while
// RelationSource and the coalescer's shared fetches ignore it. A nil span
// traces nothing. The package feeds the query.* family of the
// internal/metrics Default registry (executions, scans, fullscans); see
// docs/OBSERVABILITY.md.
package query

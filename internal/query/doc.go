// Package query implements the restricted SQL front end of the paper's
// architecture (Sec. 2, Fig. 1): SELECT queries with conjunctive WHERE
// clauses of single-attribute range predicates and equijoins.
//
// # Pipeline
//
// Parse lexes and parses the SQL subset into a Query; BuildPlan pushes
// selects to the leaves and emits, per relation, the one range selection
// the P2P layer resolves through the DHT — the Fig. 1 plan shape, where
// "select operations are pushed onto the DHT" and the rest evaluates at
// the querying peer. Execute fetches each leaf through a Source (the DHT
// in P2P deployments, via peer.DataSource), applies residual filters,
// evaluates equijoins with hash joins, and projects; Result carries
// per-scan recall so callers can report how approximate the answer is
// (the Figs. 8-10 metric per query).
//
// # Execution
//
// The join stage is left-deep over the FROM order. A joined row is a
// slice of tuples indexed by the relation's position in Plan.Scans (its
// slot), and every row of one join stage is a window of one shared slab,
// so a join allocates per stage, not per row. Before any row is touched,
// each referenced column resolves once to a (slot, column) pair, which
// projection, residual join filters, ORDER BY and the aggregates then
// index directly. Each hash join builds over the new relation: a map
// from join key to the first matching tuple plus a next-index chain, so
// a probe emits its matches in table order and the output is row-major,
// as a nested loop over the FROM relations would emit it. The build side
// is indexed once per base relation, not once per query: the index
// (relation.JoinIndex) stays with the relation, safe for concurrent
// queries, until Insert or SortBy changes it.
//
// Source.Fetch returns only the tuples inside the requested range — a
// source that fetched a broader partition filters it — so the executor
// uses each fetched leaf as it comes, without a copy.
//
// Join, DISTINCT and GROUP BY keys are typed, never formatted text. A
// one-column key is the relation.Value itself, whose == is Value.Equal.
// A wider key is the concatenation, per column, of relation.AppendKey's
// encoding — the kind byte, the 8-byte integer, the string's uvarint
// length and its bytes — appended into a reused buffer; every field has
// a fixed or stated length, so no string content (a '|' or ';', say) can
// make two different rows share a key.
//
// # Observability
//
// ExecuteTraced records one child span per scan leaf on an internal/trace
// Span plus the join/projection stage. Source.Fetch receives the leaf's
// span: peer.DataSource records the whole DHT lookup inside it, while
// RelationSource ignores it. A nil span traces nothing. The package feeds the query.* family of the
// internal/metrics Default registry (executions, scans, fullscans); see
// docs/OBSERVABILITY.md.
package query

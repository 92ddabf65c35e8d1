// Package relation is the relational substrate the paper's architecture
// shares: a global schema known to all peers (Sec. 2 assumes "the schema
// is known to all the peers"), typed tuples, relations, and horizontal
// partitions — the unit of caching, the tuples of one relation selected
// by a range predicate on a single attribute.
//
// # The medical running example
//
// MedicalSchema ships the paper's Sec. 2 example schema (Patient,
// Diagnosis, Physician, Prescription) and GenerateMedical produces a
// deterministic synthetic dataset over it, so the Fig. 1 example query
// ("patients between 30 and 50 years of age ...") runs end to end in
// tests, rangeql, and the examples.
//
// # Partitions and indexes
//
// Partition pairs a range descriptor with its materialized tuples;
// Relation.Partition slices a base relation by attribute range, backed by
// optional per-column sorted indexes (BuildIndex) so the data source
// materializes partitions in O(log n + k) and reads an attribute's domain
// in O(1). A relation also keeps the hash-join indexes built over it
// (JoinIndex), so a base relation on the build side of many joins is
// indexed once; Insert and SortBy drop both kinds. CSV read/write
// supports moving relations in and out of live deployments (rangeql
// \dump/\load, peerd -publish).
package relation

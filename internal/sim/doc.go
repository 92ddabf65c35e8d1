// Package sim builds in-memory clusters of peers and drives the paper's
// two kinds of experiments.
//
// # Cluster
//
// NewCluster assembles N peers (peer.Host, the same staged node a live
// StartPeer peer is) over the in-memory transport — deterministic
// addresses 10.x.x.x:4000+attempt, chord IDs the SHA-1 of the address,
// the address perturbed until IDs are unique — and places them on a
// converged chord ring sharing one LSH scheme, with the flight recorder
// off. ClusterConfig.Host adjusts one peer's assembly: a data directory
// makes it durable, and its WAL options set compaction and retention.
// Join/Leave/Crash drive churn through the real join, graceful-leave,
// and stabilization paths and the hosts' own Crash and Close stages, so
// the availability experiments measure the actual repair machinery
// rather than a model of it. A join boots the peer before admitting it,
// so a restarted peer's recovery can be inspected before it serves.
//
// # Experiment drivers
//
// Match-quality runs reproduce Figs. 6-10: feed the 10,000-query
// workload (internal/workload) through the Section 4 protocol and record
// similarity and recall. Scalability runs reproduce Figs. 11-12: store
// tens of thousands of partitions across rings of 100-5000 peers and
// record load distribution and lookup path lengths. The durable drivers
// — RunRestart, RunResident and RunShip, the churn figure's restart,
// resident and ship rows — boot their durable peers through the same
// cluster. RunShip drives the owner's replica pusher (ship.Pusher) by
// hand against a durable replica, so each catch-up mode — digest
// exchange, push-tail, push-reset plus a digest round — is costed in
// frames and checked for byte-identity against local recovery. The internal/experiments package composes these into the
// figure-by-figure tables rangebench prints.
package sim

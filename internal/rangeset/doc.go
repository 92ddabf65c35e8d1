// Package rangeset provides the value-set view of range predicates that
// the whole system is built on: a selection lo <= attr <= hi is treated
// as the set of integers {lo, ..., hi} (paper Sec. 3.3), so set
// similarity between ranges is defined and locality sensitive hashing
// applies.
//
// Range is a closed interval [Lo, Hi]. The similarity measures mirror
// the paper's:
//
//   - Jaccard (Sec. 3.3): |A∩B|/|A∪B|, the collision probability of
//     min-wise hashing and the x-axis of the Figs. 6-7 histograms.
//   - Containment (Sec. 5.2): |A∩B|/|A|, how much of A the candidate B
//     covers — the alternative bucket-match measure of Fig. 9.
//   - Recall: the fraction of the query range a matched partition
//     answers, the y-axis of Figs. 8-10.
//
// Pad grows a range by a fraction of its size on each side, clamped to
// the attribute domain — Fig. 10's 20% query padding, which trades extra
// tuples for a higher chance that a cached partition contains the query.
package rangeset

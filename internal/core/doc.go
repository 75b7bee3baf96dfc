// Package core implements the paper's analytical cache design-space
// exploration: given a memory reference trace and a miss budget K, it
// computes — without simulation — for every power-of-two cache depth D the
// minimum associativity A such that an A-way LRU cache of depth D incurs at
// most K non-cold misses on the trace.
//
// The prelude phase (§2.2) strips the trace (internal/trace), derives
// per-bit zero/one sets, and builds two structures:
//
//   - the Binary Cache Allocation Tree (BCAT, Algorithm 1), whose level-l
//     sets are exactly the groups of unique references mapping to each row
//     of a depth-2^l cache;
//   - the Memory Reference Conflict Table (MRCT, Algorithm 2), which
//     records, for every non-cold occurrence of a reference, the set of
//     distinct references touched since its previous occurrence.
//
// The postlude phase (§2.3, Algorithm 3) combines them: a re-occurrence of
// reference e mapping to row set S is a miss in an A-way cache exactly when
// |S ∩ C| >= A, where C is that occurrence's conflict set — for LRU this
// predicate is exact, since |S ∩ C| is the number of distinct same-set
// blocks touched since e's last use. Accumulating a histogram of |S ∩ C|
// per level therefore yields the miss count of every associativity at every
// depth in one traversal, from which the minimal A per (depth, K) follows.
//
// Explore is the production entry point and its postlude is the
// depth-first combined formulation of §2.4: BCAT nodes are never
// materialised beyond the current root-to-leaf path, so space stays linear
// in the trace. Options.Workers runs that one walk over contiguous slices
// of the unique-reference identifiers in parallel and adds up the
// histograms. BuildBCAT keeps the explicit tree of Algorithm 1 available
// for inspection (Figure 3) and as the tests' literal Algorithm 3
// reference.
package core

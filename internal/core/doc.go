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
// ExploreAnalytical runs that algorithm as the paper describes it, and
// its postlude is the depth-first combined formulation of §2.4: BCAT
// nodes are never materialised beyond the current root-to-leaf path, so
// space stays linear in the trace; the walk is serial. BuildBCAT keeps the explicit tree of Algorithm 1
// available for inspection (Figure 3) and as the tests' literal
// Algorithm 3 reference. Tables 31/32 and Figure 4 time this engine.
//
// Explore, the production entry point, reaches the same histogram without
// the conflict table: |S ∩ C| is the per-set LRU stack distance of
// Mattson et al. (ref. [17]), so one move-to-front pass per depth over the
// stripped trace yields every miss count and A_zero exactly, and an exact
// Hist[0] besides (Σ Hist = N − N' at every depth). Options.Workers runs
// the depths concurrently. Explore also hosts the sampled (SampleRate)
// mode, which runs the same pass over an in-memory trace, and the
// non-LRU (Policy) modes. Neither engine streams: a Source is a
// *trace.Trace or a Prelude.
package core

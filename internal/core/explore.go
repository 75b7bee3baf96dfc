package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// Instance is one cache design point: depth (rows) and associativity.
// Cache size in words is Depth*Assoc (one-word lines, §2.1).
type Instance struct {
	Depth int
	Assoc int
}

// SizeWords returns the instance's total capacity in words.
func (i Instance) SizeWords() int { return i.Depth * i.Assoc }

// String renders the instance as (D,A).
func (i Instance) String() string { return fmt.Sprintf("(D=%d,A=%d)", i.Depth, i.Assoc) }

// Options configures an exploration.
type Options struct {
	// MaxDepth caps the explored depths at the given power of two. Zero
	// explores up to 2^AddrBits, where every unique reference has its own
	// row.
	MaxDepth int
	// Workers sets the postlude parallelism: 0 or 1 runs one depth-first
	// walk, n > 1 splits the unique-reference identifiers into up to n
	// slices walked concurrently, and any negative value uses GOMAXPROCS.
	// Requests beyond GOMAXPROCS are clamped to it — extra workers on a
	// saturated machine only repeat the tree walk and add merge overhead.
	// Results are bit-identical at every setting.
	Workers int
	// SampleRate switches the engine into SHARDS-style approximate mode:
	// spatially hash-sample references at this rate, explore the sampled
	// trace and rescale the miss counts back to full-trace magnitude with
	// confidence bounds (Result.Sample). Zero is exact mode — the default
	// path, byte-identical to an engine without sampling. Valid rates lie
	// in (0, 1]; anything else fails with *sampling.ErrRate.
	SampleRate float64
	// SampleSeed perturbs the sampling hash; zero uses sampling.DefaultSeed.
	SampleSeed uint64
	// SampleFloor floors the expected sampled unique-reference count
	// (sampling.Config.MinUnique): zero means sampling.DefaultMinUnique,
	// negative disables the floor.
	SampleFloor int
	// Policy selects the replacement policy profiled. The zero value
	// (PolicyLRU) is the analytical path above. Any other policy runs the
	// one-pass estimator: an LRU exploration first bounds the useful
	// associativity range per depth (A_zero and the α-threshold), then
	// internal/onepass sweeps the surviving 1..MaxAssoc cells in one trace
	// pass per depth. The resulting Levels carry MissByAssoc instead of
	// Hist, and Result.Prune reports the skipped work. Non-LRU runs need a
	// *trace.Trace source and exact mode (SampleRate 0).
	Policy Policy
	// MaxAssoc caps the associativity axis of a non-LRU run; zero means
	// DefaultMaxAssoc. Ignored for LRU, whose histogram covers every
	// associativity at once.
	MaxAssoc int
}

// workerCount resolves Options.Workers: 0 and 1 are serial, negative is
// GOMAXPROCS, anything else is clamped to GOMAXPROCS.
func (o Options) workerCount() int {
	max := runtime.GOMAXPROCS(0)
	if o.Workers < 0 {
		return max
	}
	if o.Workers == 0 {
		return 1
	}
	if o.Workers > max {
		return max
	}
	return o.Workers
}

// LevelResult holds the analytical profile of one cache depth.
type LevelResult struct {
	// Depth is the cache depth (2^level).
	Depth int
	// Hist[d] counts non-cold occurrences whose conflict-set intersection
	// with their row set has cardinality d. An occurrence with value d
	// misses in every cache of this depth with associativity A <= d.
	//
	// Hist[0] may undercount guaranteed hits at deep levels: rows pruned
	// by the stop criterion (|row| < 2) are never revisited, and their
	// occurrences — always d = 0 — are omitted. Every d >= 1 bucket, and
	// therefore every miss count, is exact.
	Hist []int
	// AZero is the smallest associativity with zero non-cold misses at
	// this depth (the paper's A_zero aggregated over the level's nodes).
	// For a non-LRU profile whose sweep never reaches zero it is one past
	// the largest swept associativity.
	AZero int
	// MissByAssoc holds a non-LRU profile: MissByAssoc[a] is the non-cold
	// miss count at associativity a (index 0 unused). Nil for LRU runs,
	// whose misses derive from the histogram tail. The two representations
	// are mutually exclusive: FIFO/Random/PLRU lack the stack inclusion
	// property, so their per-associativity counts are not monotone and
	// cannot be encoded as a tail sum.
	MissByAssoc []int `json:",omitempty"`
}

// Misses returns the non-cold miss count of an assoc-way cache at this
// depth: the histogram tail at and above assoc for an LRU profile, the
// swept count for a policy profile (clamped to the largest swept
// associativity — no inclusion property holds beyond it).
func (l *LevelResult) Misses(assoc int) int {
	if assoc < 1 {
		panic(fmt.Sprintf("core: associativity %d < 1", assoc))
	}
	if l.MissByAssoc != nil {
		if assoc >= len(l.MissByAssoc) {
			assoc = len(l.MissByAssoc) - 1
		}
		return l.MissByAssoc[assoc]
	}
	m := 0
	for d := assoc; d < len(l.Hist); d++ {
		m += l.Hist[d]
	}
	return m
}

// MinAssoc returns the smallest associativity whose miss count is at most
// k — the paper's min_i for this depth. On a non-LRU profile misses are
// not monotone in associativity, so the scan is explicit; if no swept
// associativity meets the budget, the one with the fewest misses wins
// (smallest on ties).
func (l *LevelResult) MinAssoc(k int) int {
	if k < 0 {
		k = 0
	}
	if l.MissByAssoc != nil {
		best, bestM := 1, -1
		for a := 1; a < len(l.MissByAssoc); a++ {
			m := l.MissByAssoc[a]
			if m <= k {
				return a
			}
			if bestM < 0 || m < bestM {
				best, bestM = a, m
			}
		}
		return best
	}
	tail := 0
	for d := len(l.Hist) - 1; d >= 1; d-- {
		if tail+l.Hist[d] > k {
			return d + 1
		}
		tail += l.Hist[d]
	}
	return 1
}

// Result is the output of an exploration: one LevelResult per power-of-two
// depth from 1 to MaxDepth.
type Result struct {
	// Levels[i] profiles depth 2^i.
	Levels []*LevelResult
	// NUnique and N echo the trace statistics the exploration consumed.
	// Under sampling they are the estimated/true full-trace values, not
	// the sampled subset's.
	NUnique int
	N       int
	// Sample carries the sampling estimate when the exploration ran in
	// approximate mode (Options.SampleRate > 0); nil for exact runs. Miss
	// counts in Levels are then rescaled estimates, and Sample derives
	// their standard errors and confidence intervals.
	Sample *sampling.Estimate `json:",omitempty"`
	// Prune tallies the associativity cells the α-threshold cuts skipped
	// on a non-LRU run (Options.Policy != PolicyLRU); nil otherwise.
	Prune *PruneStats `json:",omitempty"`
}

// Level returns the profile for the given depth, or nil if the depth is
// not a power of two within the explored range.
func (r *Result) Level(depth int) *LevelResult {
	if depth < 1 || depth&(depth-1) != 0 {
		return nil
	}
	i := 0
	for d := depth; d > 1; d >>= 1 {
		i++
	}
	if i >= len(r.Levels) {
		return nil
	}
	return r.Levels[i]
}

// OptimalSet returns, for miss budget k, the paper's output: the set of
// optimal (D, A) pairs, one per explored depth (Algorithm 3's final loop).
func (r *Result) OptimalSet(k int) []Instance {
	out := make([]Instance, len(r.Levels))
	for i, l := range r.Levels {
		out[i] = Instance{Depth: l.Depth, Assoc: l.MinAssoc(k)}
	}
	return out
}

// ParetoSet filters OptimalSet(k) down to the (size, misses) Pareto
// frontier: an instance survives only if no smaller-or-equal-size instance
// achieves as few misses. All entries already meet the budget k; the
// frontier is what a designer actually chooses from.
func (r *Result) ParetoSet(k int) []Instance {
	all := r.OptimalSet(k)
	misses := func(ins Instance) int { return r.Level(ins.Depth).Misses(ins.Assoc) }
	sort.Slice(all, func(i, j int) bool {
		if all[i].SizeWords() != all[j].SizeWords() {
			return all[i].SizeWords() < all[j].SizeWords()
		}
		return misses(all[i]) < misses(all[j])
	})
	var out []Instance
	best := -1
	for _, ins := range all {
		m := misses(ins)
		if best >= 0 && m >= best {
			continue
		}
		out = append(out, ins)
		best = m
	}
	return out
}

// Explore is the one entry point of the analytical engine: it runs the
// prelude (strip + conflict table) over src as needed and the postlude
// selected by opts, returning the per-depth miss profile. Cancellation
// flows from ctx into every phase.
//
// Source accepts three shapes:
//
//	*trace.Trace     — the full prelude runs over the in-memory trace
//	Prelude          — pre-built strip + MRCT (reuse across budgets)
//	trace.RefReader  — streaming: the prelude consumes the reference
//	                   stream without materialising a *trace.Trace
//
// Options.Workers sets how many identifier slices the postlude walks in
// parallel; results are bit-identical at every setting
// (TestCrossCheckEnginesBitIdentical pins this).
func Explore(ctx context.Context, src Source, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Policy != PolicyLRU {
		return explorePolicy(ctx, src, opts)
	}
	if opts.SampleRate != 0 {
		return exploreSampled(ctx, src, opts)
	}
	sc := sharedScratch.Get(scratchHint(src))
	defer sharedScratch.Put(sc)
	s, m, err := resolveSource(ctx, src, sc)
	if err != nil {
		return nil, err
	}
	return runPostlude(ctx, s, m, opts, sc)
}

// runPostlude runs the postlude (§2.3, Algorithm 3) over the resolved
// (stripped, MRCT) pair in its depth-first, linear-space form (§2.4): the
// BCAT is never materialised; each walk carries only the current
// root-to-leaf path of row sets, folding every level's |S ∩ C| histogram
// on the way down.
//
// Options.Workers splits the unique-reference identifiers into contiguous
// slices of about equal occurrence mass (partitionIDs). Every worker walks
// the same tree over the shared zero/one planes, with its own per-level
// (left, right) pairs, but folds only its slice's occurrences — into the
// Result's histograms for the first slice and into private ones for the
// rest, which merge by addition. The Result is therefore bit-identical at
// every worker count, and Workers <= 1 is the one-slice case of the same
// walk. Working memory comes from sc (nil gets a private throwaway
// scratch). Both the exact and the sampled path funnel through here, so
// the postlude failpoint behaves identically in both modes.
func runPostlude(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options, sc *Scratch) (*Result, error) {
	if err := faultinject.Hit("core.postlude"); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	levels, err := levelCount(s, opts)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "postlude")
	r := newResult(s, m, levels)
	nu := s.NUnique()
	if nu == 0 {
		finalize(r)
		endPostludeSpan(span, 1, r, nil, nil)
		return r, nil
	}
	sc.resetSets()
	zo := s.ZeroOneSetsAlloc(levels, sc.newSet)
	root := sc.newSet(nu)
	for id := 0; id < nu; id++ {
		root.Add(id)
	}
	sc.bounds = partitionIDs(m, nu, opts.workerCount(), sc.bounds)
	workers := sc.dfsWorkers(len(sc.bounds) - 1)
	for i, w := range workers {
		w.start(ctx, zo, m, levels, sc.bounds[i], sc.bounds[i+1], span != nil)
		if i == 0 {
			// The first slice folds straight into the Result; the others
			// fold into private histograms merged after every walk ends.
			for _, lr := range r.Levels {
				w.hist = append(w.hist, lr.Hist)
			}
		} else {
			w.privateHists(levels+1, m.maxCard+1)
		}
	}
	if len(workers) == 1 {
		workers[0].walk(root, 0)
	} else {
		var wg sync.WaitGroup
		for _, w := range workers[1:] {
			wg.Add(1)
			go func(w *dfsWorker) {
				defer wg.Done()
				w.walk(root, 0)
			}(w)
		}
		workers[0].walk(root, 0)
		wg.Wait()
	}
	for _, w := range workers {
		if w.chk.err != nil {
			err = w.chk.err
		}
	}
	if err == nil {
		for _, w := range workers[1:] {
			for l, lr := range r.Levels {
				for d, c := range w.hist[l] {
					lr.Hist[d] += c
				}
			}
		}
		finalize(r)
		if span != nil {
			// Every worker walks the same rows, so the first one's counts
			// stand for the tree; level time is summed work across workers.
			for _, w := range workers[1:] {
				for l, ns := range w.ns {
					workers[0].ns[l] += ns
				}
			}
			endPostludeSpan(span, len(workers), r, workers[0].rows, workers[0].ns)
		}
	}
	for _, w := range workers {
		w.finish()
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stripWithSpan wraps the prelude's strip pass in a "strip" span when
// ctx carries a recorder; otherwise it is trace.StripInto over sc's
// pooled stripped form (sc nil falls back to a fresh Strip).
func stripWithSpan(ctx context.Context, t *trace.Trace, sc *Scratch) *trace.Stripped {
	_, span := obs.StartSpan(ctx, "strip")
	var s *trace.Stripped
	if sc != nil {
		s = trace.StripInto(t, &sc.stripped)
		sc.note(s.N())
	} else {
		s = trace.Strip(t)
	}
	if span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", s.NUnique())
		span.End()
	}
	return s
}

// ctxCheck amortises cancellation checks over hot loops: ctx.Err is
// consulted once every `every` calls to stop, and once tripped the error
// sticks.
type ctxCheck struct {
	ctx   context.Context
	every int
	n     int
	err   error
}

func (c *ctxCheck) stop() bool {
	if c.err != nil {
		return true
	}
	if c.n++; c.n >= c.every {
		c.n = 0
		c.err = c.ctx.Err()
	}
	return c.err != nil
}

// partitionIDs splits the identifier range [0, nu) into at most workers
// contiguous slices of about equal occurrence mass (the Σ count of each
// identifier's MRCT runs), cutting only at 64-identifier word boundaries:
// each cut goes at the boundary nearest its target, and never ahead of an
// empty remainder. It returns the bounds in buf's storage: slice i is
// [b[i], b[i+1]). The range yields fewer slices than workers when it has
// fewer words, or when one word carries the mass of several slices; a
// single worker needs no mass pass at all.
func partitionIDs(m *MRCT, nu, workers int, buf []int) []int {
	bounds := append(buf[:0], 0)
	if workers > 1 && nu > 64 {
		total := m.Occurrences()
		next, mass := 1, 0 // the next cut targets next/workers of total
		for lo := 0; lo < nu; lo += 64 {
			word := 0
			for _, os := range m.occ[lo:min(lo+64, nu)] {
				for _, o := range os {
					word += int(o.count)
				}
			}
			// Cut ahead of this word when the target lies before its middle.
			reached := func() bool { return next < workers && (2*mass+word)*workers >= 2*next*total }
			if lo > 0 && mass < total && reached() {
				bounds = append(bounds, lo)
				for reached() {
					next++
				}
			}
			mass += word
		}
	}
	return append(bounds, nu)
}

// dfsWorker is one slice's depth-first walk. The per-level (left, right)
// pairs and the private histograms persist in the Scratch across
// explorations; the run-scoped fields are set by start and dropped by
// finish so a pooled worker pins neither a caller's MRCT nor a Result.
type dfsWorker struct {
	zo     []trace.ZeroOne
	m      *MRCT
	levels int
	lo, hi int
	chk    ctxCheck

	// lefts/rights hold one child pair per level: when the walk returns
	// to a level the previous children are dead, and And overwrites every
	// word, so the pair is reused without clearing.
	lefts, rights []*bitset.Set
	hist          [][]int // per-level histograms, rows of flat or the Result's
	flat          []int   // private histogram storage
	rows          []int   // per-level row counts (traced runs only)
	ns            []int64 // per-level accumulate nanoseconds (traced runs only)
}

// start readies w for one walk over the identifier slice [lo, hi), with
// per-level counters only when traced. The histogram rows are left empty
// for the caller to point at the Result or at privateHists.
func (w *dfsWorker) start(ctx context.Context, zo []trace.ZeroOne, m *MRCT, levels, lo, hi int, traced bool) {
	w.zo, w.m, w.levels, w.lo, w.hi = zo, m, levels, lo, hi
	w.chk = ctxCheck{ctx: ctx, every: 64}
	for len(w.lefts) < levels {
		w.lefts = append(w.lefts, nil)
		w.rights = append(w.rights, nil)
	}
	w.hist = w.hist[:0]
	w.rows, w.ns = nil, nil
	if traced {
		w.rows = make([]int, levels+1)
		w.ns = make([]int64, levels+1)
	}
}

// privateHists points w's histogram rows at its own zeroed storage.
func (w *dfsWorker) privateHists(rows, width int) {
	n := rows * width
	if cap(w.flat) < n {
		w.flat = make([]int, n)
	}
	w.flat = w.flat[:n]
	clear(w.flat)
	for l := 0; l < rows; l++ {
		w.hist = append(w.hist, w.flat[l*width:(l+1)*width])
	}
}

// finish drops w's references to the run's inputs and outputs.
func (w *dfsWorker) finish() {
	w.zo, w.m, w.chk = nil, nil, ctxCheck{}
	clear(w.hist)
}

// walk folds the slice of set's occurrences into the level's histogram,
// then splits set on the level's index bit and recurses. The stop rule
// reads the whole row set, never the slice, so every worker walks the
// same tree.
func (w *dfsWorker) walk(set *bitset.Set, level int) {
	if w.chk.stop() {
		return
	}
	if w.ns != nil {
		t0 := time.Now()
		accumulateRangeHist(w.hist[level], set, w.m, w.lo, w.hi)
		w.ns[level] += time.Since(t0).Nanoseconds()
		w.rows[level]++
	} else {
		accumulateRangeHist(w.hist[level], set, w.m, w.lo, w.hi)
	}
	if level >= w.levels || set.Count() < 2 {
		// A row with fewer than two references can never conflict at
		// this or any deeper depth (Algorithm 1's stop criterion).
		return
	}
	left, right := w.lefts[level], w.rights[level]
	if left == nil {
		left, right = bitset.New(set.Cap()), bitset.New(set.Cap())
		w.lefts[level], w.rights[level] = left, right
	} else if left.Cap() != set.Cap() {
		left.Reset(set.Cap())
		right.Reset(set.Cap())
	}
	left.And(set, w.zo[level].Zero)
	right.And(set, w.zo[level].One)
	w.walk(left, level+1)
	w.walk(right, level+1)
}

// endPostludeSpan closes the postlude phase span: one aggregate child
// span per explored level carrying rows processed, occurrences folded
// (refs, the histogram mass) and — when per-level timing was collected —
// the accumulated duration and refs/sec. Level spans are aggregates: the
// DFS interleaves levels, so each child's duration is summed work, not a
// contiguous wall-clock interval.
func endPostludeSpan(span *obs.Span, workers int, r *Result, lvlRows []int, lvlNS []int64) {
	if span == nil {
		return
	}
	totalRows, totalRefs := 0, 0
	for i, l := range r.Levels {
		refs := 0
		for _, c := range l.Hist {
			refs += c
		}
		totalRefs += refs
		attrs := []obs.Attr{
			{Key: "depth", Value: l.Depth},
			{Key: "refs", Value: refs},
			{Key: "aggregate", Value: true},
		}
		var dur time.Duration
		if lvlRows != nil {
			totalRows += lvlRows[i]
			attrs = append(attrs, obs.Attr{Key: "rows", Value: lvlRows[i]})
		}
		if lvlNS != nil {
			dur = time.Duration(lvlNS[i])
			if secs := dur.Seconds(); secs > 0 {
				attrs = append(attrs, obs.Attr{Key: "refs_per_sec", Value: float64(refs) / secs})
			}
		}
		span.Child("level", span.Start(), dur, attrs...)
	}
	span.SetAttr("algorithm", "dfs")
	span.SetAttr("workers", workers)
	span.SetAttr("levels", len(r.Levels))
	span.SetAttr("refs", totalRefs)
	if lvlRows != nil {
		span.SetAttr("rows", totalRows)
	}
	span.End()
}

// newResult allocates a Result with one LevelResult per depth, every
// histogram pre-sized to the MRCT's maximum conflict-set cardinality:
// |S ∩ C| <= |C|, so no accumulate call can index past it and the
// grow-copy that used to sit in the inner loop is gone. finalize trims the
// unused tail so the emitted Result is bit-identical to the grown form.
func newResult(s *trace.Stripped, m *MRCT, levels int) *Result {
	r := &Result{NUnique: s.NUnique(), N: s.N()}
	r.Levels = make([]*LevelResult, levels+1)
	for i := range r.Levels {
		r.Levels[i] = newLevelResult(i, m)
	}
	return r
}

func newLevelResult(level int, m *MRCT) *LevelResult {
	return &LevelResult{Depth: 1 << uint(level), Hist: make([]int, m.maxCard+1)}
}

// accumulateRangeHist folds the references of row set S whose
// identifiers fall in [lo, hi) into a level's histogram: for every
// non-cold occurrence of each such reference, bump hist[|S ∩ C|] by the
// occurrence's multiplicity. The conflict sets still intersect with the
// whole row set, so summing disjoint ranges reproduces the full fold
// exactly. The intersection runs through the hybrid kernel: packed
// word-wise AND+popcount for dense conflict sets, the sparse
// element-probe kernel otherwise.
func accumulateRangeHist(hist []int, set *bitset.Set, m *MRCT, lo, hi int) {
	set.ForEachRange(lo, hi, func(e int) bool {
		for _, o := range m.occ[e] {
			var d int
			if p := m.packed[o.set]; p != nil {
				d = set.IntersectCount(p)
			} else {
				d = set.IntersectCountSparse(m.sets[o.set])
			}
			hist[d] += int(o.count)
		}
		return true
	})
}

// finalize trims the pre-sized histograms back to their last non-zero
// bucket (matching what incremental growth used to produce) and derives
// AZero for every level.
func finalize(r *Result) {
	for _, l := range r.Levels {
		h := l.Hist
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		if len(h) == 0 {
			h = nil
		}
		l.Hist = h
		l.AZero = 1
		for d := len(l.Hist) - 1; d >= 1; d-- {
			if l.Hist[d] != 0 {
				l.AZero = d + 1
				break
			}
		}
	}
}

func levelCount(s *trace.Stripped, opts Options) (int, error) {
	levels := s.AddrBits()
	if opts.MaxDepth != 0 {
		if opts.MaxDepth < 1 || opts.MaxDepth&(opts.MaxDepth-1) != 0 {
			return 0, fmt.Errorf("core: MaxDepth %d is not a power of two >= 1", opts.MaxDepth)
		}
		cap := 0
		for d := opts.MaxDepth; d > 1; d >>= 1 {
			cap++
		}
		if cap < levels {
			levels = cap
		}
	}
	return levels, nil
}

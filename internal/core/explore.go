package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
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
	// Workers sets Explore's parallelism: 0 or 1 runs serially, n > 1
	// runs up to n depths concurrently, and any negative value uses
	// GOMAXPROCS. Requests beyond GOMAXPROCS are clamped to it. Every
	// mode — exact, sampled and the policy runs' LRU bound —
	// hands each worker one depth's stack-distance pass at a time, so
	// results are bit-identical at every setting. ExploreAnalytical is
	// serial and rejects any other value than 0 or 1.
	Workers int
	// SampleRate switches the engine into SHARDS-style approximate mode:
	// count the re-occurrences of addresses spatially hash-sampled at
	// this rate (every reference still moves the stacks) and rescale the
	// miss counts back to full-trace magnitude with confidence bounds
	// (Result.Sample). It needs a *trace.Trace source and costs about one
	// exact explore: it buys an error bar, not time. Zero is exact mode —
	// the default path, byte-identical to an engine without sampling.
	// Valid rates lie in (0, 1]; anything else fails with
	// *sampling.ErrRate.
	SampleRate float64
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
	// with their row set has cardinality d — equivalently, whose per-set
	// LRU stack distance is d. An occurrence with value d misses in every
	// cache of this depth with associativity A <= d. Every non-cold
	// occurrence lands in exactly one bucket, so Σ Hist = N − N' at every
	// depth.
	//
	// ExploreAnalytical's DFS postlude prunes rows that can no longer
	// conflict (Algorithm 1's stop criterion), so its Hist[0] omits their
	// guaranteed hits; its d >= 1 buckets, and therefore its miss counts,
	// equal Explore's.
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

// Explore profiles every power-of-two depth of src for an exact LRU
// cache, or for the replacement policy and sampling mode selected by
// opts, returning the per-depth miss profile. Cancellation flows from ctx
// into every phase.
//
// The exact LRU path strips the trace and runs the per-depth
// stack-distance engine (runStackDist); no conflict table is built.
// Source accepts two shapes:
//
//	*trace.Trace  — stripped in memory
//	Prelude       — its Stripped is used as is; its MRCT is ignored
//
// Options.Workers runs that many depths concurrently; results are
// bit-identical at every setting. ExploreAnalytical runs the paper's
// engine over the same sources; its miss counts are identical.
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
	s, err := stripSource(ctx, src, sc)
	if err != nil {
		return nil, err
	}
	return runStackDist(ctx, s, opts, sc)
}

// ExploreAnalytical is the paper's engine, kept to reproduce its claims
// (Tables 31/32 and Figure 4 time it): the prelude strips src and builds
// the conflict table (§2.2, Algorithm 2) unless src is a complete
// Prelude, and the depth-first postlude (§2.3–2.4, Algorithm 3) folds
// every level's |S ∩ C| histogram. It serves serial exact LRU only: any
// Policy, SampleRate or Workers other than 0 or 1 is rejected. Its miss
// counts and AZero equal Explore's; see LevelResult.Hist for its Hist[0].
func ExploreAnalytical(ctx context.Context, src Source, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Policy != PolicyLRU || opts.SampleRate != 0 || opts.Workers < 0 || opts.Workers > 1 {
		return nil, fmt.Errorf("core: ExploreAnalytical is serial exact LRU only (policy %s, sample rate %v, workers %d)", opts.Policy, opts.SampleRate, opts.Workers)
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
// BCAT is never materialised; the walk carries only the current
// root-to-leaf path of row sets, folding every level's |S ∩ C| histogram
// on the way down. It runs serially; working memory comes from sc. Only
// ExploreAnalytical reaches it, and like runStackDist it hits the
// core.postlude failpoint.
func runPostlude(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options, sc *Scratch) (*Result, error) {
	if err := faultinject.Hit("core.postlude"); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	levels, err := levelCount(s.AddrBits(), opts)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "postlude")
	r := newResult(s, m, levels)
	nu := s.NUnique()
	if nu == 0 {
		finalize(r)
		endPostludeSpan(span, r, nil, nil)
		return r, nil
	}
	sc.resetSets()
	zo := s.ZeroOneSetsAlloc(levels, sc.newSet)
	root := sc.newSet(nu)
	for id := 0; id < nu; id++ {
		root.Add(id)
	}
	w := &sc.dfs
	w.start(ctx, zo, m, r, span != nil)
	w.walk(root, 0)
	err = w.chk.err
	if err == nil {
		finalize(r)
		endPostludeSpan(span, r, w.rows, w.ns)
	}
	w.finish()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stripWithSpan wraps the prelude's strip pass in a "strip" span when
// ctx carries a recorder; otherwise it is trace.StripInto over sc's
// pooled stripped form.
func stripWithSpan(ctx context.Context, t *trace.Trace, sc *Scratch) *trace.Stripped {
	_, span := obs.StartSpan(ctx, "strip")
	s := trace.StripInto(t, &sc.stripped)
	sc.note(s.N())
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

// dfsWorker is the depth-first walk's state. The per-level (left,
// right) pairs persist in the Scratch across explorations; the run-scoped
// fields are set by start and dropped by finish so a pooled worker pins
// neither a caller's MRCT nor a Result.
type dfsWorker struct {
	zo     []trace.ZeroOne
	m      *MRCT
	levels int
	chk    ctxCheck

	// lefts/rights hold one child pair per level: when the walk returns
	// to a level the previous children are dead, and And overwrites every
	// word, so the pair is reused without clearing.
	lefts, rights []*bitset.Set
	r             *Result // the Result whose histograms the walk folds into
	rows          []int   // per-level row counts (traced runs only)
	ns            []int64 // per-level accumulate nanoseconds (traced runs only)
}

// start readies w for one walk folding into r, with per-level counters
// only when traced.
func (w *dfsWorker) start(ctx context.Context, zo []trace.ZeroOne, m *MRCT, r *Result, traced bool) {
	w.zo, w.m, w.r, w.levels = zo, m, r, len(r.Levels)-1
	w.chk = ctxCheck{ctx: ctx, every: 64}
	for len(w.lefts) < w.levels {
		w.lefts = append(w.lefts, nil)
		w.rights = append(w.rights, nil)
	}
	w.rows, w.ns = nil, nil
	if traced {
		w.rows = make([]int, len(r.Levels))
		w.ns = make([]int64, len(r.Levels))
	}
}

// finish drops w's references to the run's inputs and outputs.
func (w *dfsWorker) finish() {
	w.zo, w.m, w.r, w.chk = nil, nil, nil, ctxCheck{}
}

// walk folds set's occurrences into the level's histogram, then splits
// set on the level's index bit and recurses.
func (w *dfsWorker) walk(set *bitset.Set, level int) {
	if w.chk.stop() {
		return
	}
	hist := w.r.Levels[level].Hist
	if w.ns != nil {
		t0 := time.Now()
		accumulateHist(hist, set, w.m)
		w.ns[level] += time.Since(t0).Nanoseconds()
		w.rows[level]++
	} else {
		accumulateHist(hist, set, w.m)
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
func endPostludeSpan(span *obs.Span, r *Result, lvlRows []int, lvlNS []int64) {
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

// accumulateHist folds the references of row set S into a level's
// histogram: for every non-cold occurrence of each reference, bump
// hist[|S ∩ C|] by the occurrence's multiplicity. The intersection runs
// through the hybrid kernel: packed word-wise AND+popcount for dense
// conflict sets, the sparse element-probe kernel otherwise.
func accumulateHist(hist []int, set *bitset.Set, m *MRCT) {
	set.ForEach(func(e int) bool {
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

// levelCount returns how many levels past depth 1 an exploration
// covers: one per address bit, capped by opts.MaxDepth, which must be a
// power of two when set.
func levelCount(addrBits int, opts Options) (int, error) {
	levels := addrBits
	if opts.MaxDepth != 0 {
		if opts.MaxDepth < 1 || opts.MaxDepth&(opts.MaxDepth-1) != 0 {
			return 0, fmt.Errorf("core: MaxDepth %d is not a power of two >= 1", opts.MaxDepth)
		}
		levels = min(levels, bits.Len(uint(opts.MaxDepth))-1)
	}
	return levels, nil
}

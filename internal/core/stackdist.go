package core

import (
	"context"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// This file holds Explore's exact LRU engine: Mattson's per-set stack
// distance (ref. [17] of the paper, internal/onepass's formulation), run
// once per depth straight over the stripped trace. For a re-occurrence of
// identifier e the per-set stack distance — the number of distinct
// same-set identifiers touched since e's previous occurrence — is exactly
// the paper's |S ∩ C| (§2.3), so every histogram bucket d >= 1 and every
// A_zero equal the MRCT postlude's. Unlike the DFS postlude, no level is
// pruned, so Hist[0] is exact too: at every depth Σ Hist = N − N'.
//
// No conflict table is built. A level costs one pass over the N
// identifiers plus the stack positions scanned (the "steps" work
// counter), which on embedded traces — short per-set stacks — is far
// below the MRCT's N·N' bound.

// runStackDist profiles every depth from 1 to 2^levelCount of the
// stripped trace s. Levels are independent, so Options.Workers > 1 runs
// them concurrently, one level per worker at a time, and the Result is
// bit-identical at every worker count. Per-level working memory comes
// from sc; the Result never aliases it.
func runStackDist(ctx context.Context, s *trace.Stripped, opts Options, sc *Scratch) (*Result, error) {
	rs, err := runStrata(ctx, s, opts, sc, nil, 1)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runStrata is runStackDist with every identifier's re-occurrences
// folded into its stratum's histograms: identifier id belongs to stratum
// stratum[id] < n, and a nil stratum puts every identifier in stratum 0.
// Every reference still moves the stacks, so each distance is exact; the
// strata only partition the histogram mass, and at every depth the n
// Results' histograms sum, bucket by bucket, to runStackDist's. It
// returns one Result per stratum.
func runStrata(ctx context.Context, s *trace.Stripped, opts Options, sc *Scratch, stratum []uint8, n int) ([]*Result, error) {
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
	rs := make([]*Result, n)
	for k := range rs {
		rs[k] = &Result{NUnique: s.NUnique(), N: s.N(), Levels: make([]*LevelResult, levels+1)}
		for l := range rs[k].Levels {
			rs[k].Levels[l] = &LevelResult{Depth: 1 << uint(l)}
		}
	}
	// Levels at and past `passes` hold no set with two identifiers: every
	// re-occurrence is a distance-0 hit (Algorithm 1's stop criterion,
	// restated), so they need no pass.
	passes := min(sc.orderByLowBits(s), levels+1)
	workers := sc.stackWorkers(min(opts.workerCount(), max(passes, 1)))
	if span != nil {
		sc.levelStats = slices.Grow(sc.levelStats[:0], passes)[:passes]
	}
	var next atomic.Int32
	run := func(w *stackWorker) {
		for {
			l := int(next.Add(1)) - 1
			if l >= passes || w.err != nil {
				return
			}
			t0 := time.Now()
			steps, err := w.level(ctx, s, sc.order, stratum, n, l)
			if err != nil {
				w.err = err
				return
			}
			for k, r := range rs {
				r.Levels[l].Hist = trimmedCopy(w.hist[k*w.width : (k+1)*w.width])
			}
			if span != nil {
				sc.levelStats[l] = levelStat{start: t0, dur: time.Since(t0), steps: steps}
			}
		}
	}
	if len(workers) == 1 {
		run(workers[0])
	} else {
		var wg sync.WaitGroup
		for _, w := range workers[1:] {
			wg.Add(1)
			go func(w *stackWorker) {
				defer wg.Done()
				run(w)
			}(w)
		}
		run(workers[0])
		wg.Wait()
	}
	for _, w := range workers {
		if w.err != nil {
			err = w.err
		}
		w.err = nil
	}
	if err != nil {
		return nil, err
	}
	for k, r := range rs {
		// A stratum's re-occurrences all land at distance 0 past the
		// passes: its reuse is its depth-1 mass, or with no pass at all
		// (N' <= 1) the whole trace's N − N', held by identifier 0.
		reuse := 0
		switch {
		case passes > 0:
			for _, c := range r.Levels[0].Hist {
				reuse += c
			}
		case len(stratum) == 0 || int(stratum[0]) == k:
			reuse = s.N() - s.NUnique()
		}
		if reuse > 0 {
			for _, lr := range r.Levels[passes:] {
				lr.Hist = []int{reuse}
			}
		}
		finalize(r)
	}
	endStackDistSpan(span, len(workers), rs, sc.levelStats)
	return rs, nil
}

// orderByLowBits sorts the identifiers by bit-reversed address into
// sc.order. In that order the identifiers sharing their low l address
// bits — one set of a depth-2^l cache — are contiguous at every l, so a
// level numbers its sets densely with one linear scan. It returns how
// many levels, counted from depth 1, hold a set with two or more
// identifiers: one past the longest low-bit prefix two adjacent
// identifiers share.
func (sc *Scratch) orderByLowBits(s *trace.Stripped) int {
	keys := sc.revKeys[:0]
	for id, a := range s.Unique {
		keys = append(keys, uint64(bits.Reverse32(a))<<32|uint64(id))
	}
	slices.Sort(keys)
	order := sc.order[:0]
	passes := 0
	for i, k := range keys {
		order = append(order, int32(uint32(k)))
		if i > 0 {
			// Unique addresses differ somewhere, so the xor is non-zero.
			shared := bits.LeadingZeros32(uint32(k>>32) ^ uint32(keys[i-1]>>32))
			passes = max(passes, shared+1)
		}
	}
	sc.revKeys, sc.order = keys, order
	return passes
}

// stackWorker is one level's pass state, pooled in the Scratch. Each
// buffer is reset by level before use, so a worker carries nothing from
// one level or exploration into the next.
type stackWorker struct {
	slot  []stackSlot // per identifier: its set and histogram offset
	top   []int32     // per set: one past its most recent entry in arena
	arena []int32     // every set's LRU stack, least recent first
	hist  []int       // the level's histograms, one width-long row per stratum
	width int         // one past the largest distance: the widest set's size
	err   error
}

// stackSlot is what the pass loads per reference: the identifier's dense
// set number at this level and the offset of its stratum's histogram row.
type stackSlot struct {
	set, off int32
}

// level runs one Mattson pass at depth 2^l, leaving in w.hist one
// histogram row per stratum of runStrata (stratum nil is the single
// stratum 0 of n == 1). order is the bit-reversed identifier order of
// orderByLowBits. It returns the stack positions scanned.
func (w *stackWorker) level(ctx context.Context, s *trace.Stripped, order []int32, stratum []uint8, n, l int) (int, error) {
	nu := len(order)
	mask := uint32(uint64(1)<<uint(l) - 1)
	w.slot = slices.Grow(w.slot[:0], nu)[:nu]
	w.top = w.top[:0]
	widest := 0
	var prev uint32
	for i, id := range order {
		if key := s.Unique[id] & mask; i == 0 || key != prev {
			if sets := len(w.top); sets > 0 {
				widest = max(widest, i-int(w.top[sets-1]))
			}
			w.top = append(w.top, int32(i))
			prev = key
		}
		w.slot[id] = stackSlot{set: int32(len(w.top) - 1)}
	}
	widest = max(widest, nu-int(w.top[len(w.top)-1]))
	for id, k := range stratum {
		w.slot[id].off = int32(k) * int32(widest)
	}
	w.width = widest
	w.arena = slices.Grow(w.arena[:0], nu)[:nu]
	w.hist = slices.Grow(w.hist[:0], n*widest)[:n*widest]
	clear(w.hist)

	slot, top, arena, hist := w.slot, w.top, w.arena, w.hist
	seen := 0
	for ids := s.IDs; len(ids) > 0; ids = ids[min(len(ids), 4096):] {
		// Cancellation is checked once per chunk, which keeps the call
		// out of the per-reference loop.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, id := range ids[:min(len(ids), 4096)] {
			x := int32(id)
			if id >= seen {
				// Identifiers number addresses in first-appearance order,
				// so the next unseen one is a cold reference: push it.
				if id != seen || seen >= nu {
					return 0, errStripOrder
				}
				k := slot[id].set
				arena[top[k]] = x
				top[k]++
				seen++
				continue
			}
			// Walk down from the most recent entry, shifting each one
			// passed up a slot, until x is found; x then takes the top
			// slot.
			sl := slot[id]
			t := top[sl.set]
			j := t - 1
			if carry := arena[j]; carry != x {
				arena[j] = x
				for {
					j--
					cur := arena[j]
					arena[j] = carry
					if cur == x {
						break
					}
					carry = cur
				}
			}
			hist[sl.off+t-1-j]++
		}
	}
	// Each re-occurrence at distance d scanned d stack positions.
	steps := 0
	for i, c := range hist {
		steps += i % widest * c
	}
	return steps, nil
}

// trimmedCopy returns a fresh copy of hist without its trailing zero
// buckets, nil when every bucket is zero.
func trimmedCopy(hist []int) []int {
	end := len(hist)
	for end > 0 && hist[end-1] == 0 {
		end--
	}
	if end == 0 {
		return nil
	}
	return append([]int(nil), hist[:end]...)
}

// errStripOrder rejects a hand-built Stripped whose identifiers do not
// number its unique addresses in first-appearance order, the invariant
// the pass's cold-reference test relies on.
var errStripOrder = errors.New("core: stripped identifiers are not numbered in first-appearance order")

// levelStat is one pass's telemetry, kept only when traced.
type levelStat struct {
	start time.Time
	dur   time.Duration
	steps int
}

// endStackDistSpan closes the postlude span with one "level" child per
// depth. A level that needed a pass carries its real interval, its
// stack positions scanned (steps) and refs/sec; a level past the last
// shared set was answered without one and carries zero time and steps.
// A level's refs sum every stratum's histogram.
func endStackDistSpan(span *obs.Span, workers int, rs []*Result, stats []levelStat) {
	if span == nil {
		return
	}
	levels := rs[0].Levels
	totalRefs, totalSteps := 0, 0
	for l, lr := range levels {
		refs := 0
		for _, r := range rs {
			for _, c := range r.Levels[l].Hist {
				refs += c
			}
		}
		totalRefs += refs
		st := levelStat{start: span.Start()}
		if l < len(stats) {
			st = stats[l]
		}
		totalSteps += st.steps
		attrs := []obs.Attr{
			{Key: "depth", Value: lr.Depth},
			{Key: "refs", Value: refs},
			{Key: "steps", Value: st.steps},
		}
		if secs := st.dur.Seconds(); secs > 0 {
			attrs = append(attrs, obs.Attr{Key: "refs_per_sec", Value: float64(refs) / secs})
		}
		span.Child("level", st.start, st.dur, attrs...)
	}
	span.SetAttr("algorithm", "stackdist")
	span.SetAttr("workers", workers)
	span.SetAttr("levels", len(levels))
	span.SetAttr("refs", totalRefs)
	span.SetAttr("steps", totalSteps)
	span.End()
}

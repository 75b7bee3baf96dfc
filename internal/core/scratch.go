package core

import (
	"math/bits"
	"sync"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/trace"
)

// This file holds the engine's pooled scratch: every allocation the
// steady-state explore path used to make per request — the stripped form,
// the MRCT build tables (dedup chains, epoch stamps, LRU positions,
// conflict-set arenas, packed bit-vectors, occurrence storage), the
// postlude's zero/one planes and root set, and each postlude worker's
// per-level row sets and private histograms — lives in a Scratch that a
// sync.Pool recycles across explorations. A warm pool drives the data
// plane's allocs/op to the Result envelope alone
// (BenchmarkSteadyStateAllocs and the alloc-smoke CI gate pin this),
// which is what keeps GC pause time out of the p99 under sustained load.
//
// Ownership contract: everything a Scratch hands out (arena-backed
// conflict sets, freelist bit-vectors, the pooled MRCT) is valid only
// until the Scratch is reused or returned to the pool. Nothing reachable
// from a Result may alias scratch storage — Result histograms are always
// freshly allocated — and the public BuildMRCT/Strip entry points build
// caller-owned structures precisely so a retained Prelude can never be
// corrupted by pool reuse.

// Scratch is the reusable working memory of one exploration. A zero
// Scratch is ready to use; buffers grow on first use and are retained.
// A Scratch must not be shared by two explorations at once.
type Scratch struct {
	// hint tracks the largest trace dimension this scratch has served,
	// sizing the pool class it returns to.
	hint int

	// stripped is the pooled strip output for *trace.Trace and RefReader
	// sources (Prelude sources carry their own caller-owned Stripped).
	stripped trace.Stripped

	// mrct is the pooled conflict table, rebuilt in place per exploration.
	mrct MRCT

	// MRCT build state (see buildMRCT).
	dedupHead map[uint64]int32 // commutative hash -> newest set index
	dedupNext []int32          // per set index, next older candidate or -1
	idHash    []uint64         // hashID cache, extended monotonically
	stamp     []uint64         // epoch stamps for O(|C|) set equality
	epoch     uint64           // monotone across builds: stamps never need zeroing
	pos       []int32          // LRU-stack position per id
	stack     []int            // the LRU stack itself
	pairs     []uint64         // (id<<32 | set index) per non-cold occurrence
	occBuf    []occurrence     // backing storage m.occ[id] slices are carved from
	i32       int32Arena       // sparse conflict-set storage
	bs        bitset.Arena     // packed conflict-set storage

	// Postlude freelist: the zero/one planes and the root set, recycled
	// via a cursor (resetSets) instead of being reallocated per run.
	sets      []*bitset.Set
	setCursor int

	// Postlude workers: the identifier-slice bounds and one pooled walk
	// state per slice (pointers stable across runs).
	bounds  []int
	workers []*dfsWorker
}

// note records a trace dimension for pool classing.
func (sc *Scratch) note(n int) {
	if n > sc.hint {
		sc.hint = n
	}
}

// resetSets rewinds the bit-vector freelist; every set previously handed
// out by newSet is up for reuse.
func (sc *Scratch) resetSets() { sc.setCursor = 0 }

// newSet returns an empty set of capacity n from the freelist, growing it
// when exhausted. Signature matches trace.ZeroOneSetsAlloc's allocator.
func (sc *Scratch) newSet(n int) *bitset.Set {
	if sc.setCursor < len(sc.sets) {
		s := sc.sets[sc.setCursor]
		sc.setCursor++
		s.Reset(n)
		return s
	}
	s := bitset.New(n)
	sc.sets = append(sc.sets, s)
	sc.setCursor++
	return s
}

// dfsWorkers returns n pooled postlude workers.
func (sc *Scratch) dfsWorkers(n int) []*dfsWorker {
	for len(sc.workers) < n {
		sc.workers = append(sc.workers, &dfsWorker{})
	}
	return sc.workers[:n]
}

// int32Arena carves []int32 runs (sorted sparse conflict sets) out of
// large reusable blocks, replacing the per-build arena slices of the old
// MRCT construction.
type int32Arena struct {
	blocks [][]int32
	block  int
	used   int
}

const int32ArenaBlock = 1 << 15

// alloc returns an uninitialised slice of length n carved from the arena.
func (a *int32Arena) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	for a.block < len(a.blocks) && len(a.blocks[a.block])-a.used < n {
		a.block++
		a.used = 0
	}
	if a.block >= len(a.blocks) {
		size := int32ArenaBlock
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]int32, size))
		a.used = 0
	}
	blk := a.blocks[a.block]
	out := blk[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

// reset recycles every block; previously returned slices will be
// overwritten.
func (a *int32Arena) reset() {
	a.block, a.used = 0, 0
}

// ScratchPool recycles Scratch values across explorations, size-classed
// by power-of-two trace length so a small probe does not pin the buffers
// of a million-reference job (sync.Pool still releases idle classes under
// GC pressure). Get prefers the requested class but accepts a larger one
// — oversized scratch is merely warm — and Put files the scratch under
// the largest dimension it has served.
type ScratchPool struct {
	classes [scratchClasses]sync.Pool
}

const scratchClasses = 28

func classFor(n int) int {
	c := bits.Len(uint(n))
	if c >= scratchClasses {
		return scratchClasses - 1
	}
	return c
}

// Get returns a Scratch suited to a trace of about hint references (0 =
// unknown: any pooled scratch will do).
func (p *ScratchPool) Get(hint int) *Scratch {
	for c := classFor(hint); c < scratchClasses; c++ {
		if v := p.classes[c].Get(); v != nil {
			return v.(*Scratch)
		}
	}
	return &Scratch{hint: hint}
}

// Put returns sc to the pool. The caller must not use sc, nor anything it
// handed out, afterwards.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc == nil {
		return
	}
	p.classes[classFor(sc.hint)].Put(sc)
}

// sharedScratch is the process-wide pool Explore draws from.
var sharedScratch ScratchPool

// scratchHint sizes the pool request for a source before the prelude has
// run: in-memory traces know their length, streams do not.
func scratchHint(src Source) int {
	if t, ok := src.(*trace.Trace); ok && t != nil {
		return t.Len()
	}
	return 0
}

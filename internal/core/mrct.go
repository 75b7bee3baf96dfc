package core

import (
	"context"
	"slices"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// MRCT is the Memory Reference Conflict Table (Algorithm 2, Table 4): for
// every unique reference, one conflict set per non-cold occurrence holding
// the identifiers of the distinct references touched since the previous
// occurrence.
//
// Conflict sets are deduplicated globally with multiplicities —
// loop-dominated embedded traces repeat a handful of conflict windows
// millions of times, and the postlude phase only needs |S ∩ C| per
// *distinct* C weighted by its count — and stored in a hybrid
// representation: small sets as sorted identifier slices (carved out of a
// shared arena), sets dense relative to the identifier universe
// additionally as packed bit vectors so the postlude can intersect them
// word-wise with AND+popcount. This keeps the structure within the paper's
// stated O(trace) space in practice.
type MRCT struct {
	nunique int
	// sets is the global table of distinct conflict sets, each sorted
	// ascending by identifier. The slices alias shared arena blocks.
	sets [][]int32
	// packed[i] is the bit-vector form of sets[i] when it is dense enough
	// for the word-wise kernel to win, nil otherwise.
	packed []*bitset.Set
	// maxCard is the largest conflict-set cardinality, bounding every
	// |S ∩ C| the postlude can produce.
	maxCard int
	// occ[id] lists, per distinct conflict set of id, the pair (index into
	// sets, number of occurrences with exactly that window).
	occ [][]occurrence
}

type occurrence struct {
	set   int32
	count int32
}

// NUnique returns N', the identifier universe size.
func (m *MRCT) NUnique() int { return m.nunique }

// DistinctSets returns the size of the global deduplicated set table.
func (m *MRCT) DistinctSets() int { return len(m.sets) }

// MaxConflictCard returns the largest conflict-set cardinality in the
// table. Every postlude histogram index |S ∩ C| is at most this, so
// callers can size histograms once instead of growing them in the inner
// loop.
func (m *MRCT) MaxConflictCard() int { return m.maxCard }

// PackedSets returns how many distinct sets also carry a packed bit-vector
// form, for space accounting and tests.
func (m *MRCT) PackedSets() int {
	n := 0
	for _, p := range m.packed {
		if p != nil {
			n++
		}
	}
	return n
}

// Occurrences returns the total number of non-cold occurrences recorded,
// which equals N − N'.
func (m *MRCT) Occurrences() int {
	total := 0
	for _, os := range m.occ {
		for _, o := range os {
			total += int(o.count)
		}
	}
	return total
}

// ConflictSets expands the table for identifier id into one sorted slice
// per non-cold occurrence (multiplicities unrolled). Intended for tests and
// table rendering; the postlude phase iterates the compressed form.
func (m *MRCT) ConflictSets(id int) [][]int32 {
	var out [][]int32
	for _, o := range m.occ[id] {
		for i := int32(0); i < o.count; i++ {
			out = append(out, m.sets[o.set])
		}
	}
	return out
}

// hashID mixes one identifier into a well-distributed 64-bit value
// (splitmix64 finalizer). Conflict-set hashes combine these commutatively
// so the dedup key never needs the set sorted.
func hashID(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// packThreshold converts the universe size into the sparse-set length
// above which the packed word-wise kernel wins: a packed intersection
// touches every word of the universe once, a sparse intersection touches
// one word per element, and BenchmarkMicroIntersect measures the two
// per-step costs as near-equal — so the break-even sits at one element
// per word.
func packThreshold(nunique int) int {
	words := (nunique + 63) / 64
	if words < 8 {
		return 8
	}
	return words
}

// BuildMRCT builds the conflict table in a single pass using a global LRU
// stack, the hash-table formulation §2.4 recommends over the literal double
// loop of Algorithm 2. When reference u is re-accessed at stack position p,
// the identifiers above it (positions 0..p-1) are exactly the distinct
// references touched since u's previous occurrence — the conflict set.
func BuildMRCT(s *trace.Stripped) *MRCT {
	m, _ := BuildMRCTContext(context.Background(), s)
	return m
}

// BuildMRCTContext is BuildMRCT with cancellation: the single pass over
// the trace checks ctx every few thousand references and returns ctx.Err()
// once it is done.
//
// The returned table is caller-owned: it is built through a throwaway
// scratch, so it stays valid indefinitely (a Prelude can retain it across
// explorations). The engine's internal path instead reuses a pooled
// scratch via buildMRCT, whose output lives only until the scratch is
// recycled.
func BuildMRCTContext(ctx context.Context, s *trace.Stripped) (*MRCT, error) {
	m := &MRCT{}
	if err := buildMRCT(ctx, s, &Scratch{}, m); err != nil {
		return nil, err
	}
	return m, nil
}

// buildMRCT builds the conflict table into m using sc's reusable buffers.
//
// Deduplication is by commutative 64-bit hash of the (unsorted) stack
// prefix, verified against the stored candidates with an epoch-stamp
// membership check; the full sort of a conflict set happens only when it
// turns out to be a set never seen before. Repeat-dominated traces
// therefore sort each distinct window once instead of once per occurrence.
// Candidates sharing a hash are chained newest-first through dedupNext;
// at most one candidate can pass the stamp check, so chain order cannot
// affect the result.
//
// All of m's storage — sparse sets, packed bit-vectors, occurrence runs —
// is carved from sc's arenas. A pooled caller must treat m as invalidated
// once sc is reused; BuildMRCTContext passes a fresh scratch precisely so
// its output has no such lifetime.
func buildMRCT(ctx context.Context, s *trace.Stripped, sc *Scratch, m *MRCT) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "mrct")
	nu := s.NUnique()
	sc.note(s.N())
	sc.i32.reset()
	sc.bs.Reset()
	m.nunique = nu
	m.maxCard = 0
	m.sets = m.sets[:0]
	m.packed = m.packed[:0]
	if cap(m.occ) < nu {
		m.occ = make([][]occurrence, nu)
	}
	m.occ = m.occ[:nu]
	for i := range m.occ {
		m.occ[i] = nil
	}
	thresh := packThreshold(nu)
	// dedupHead maps the commutative hash to the newest candidate set
	// index; older candidates chain through dedupNext. Genuine collisions
	// are resolved by the stamp check below.
	if sc.dedupHead == nil {
		sc.dedupHead = make(map[uint64]int32)
	} else {
		clear(sc.dedupHead)
	}
	dedupHead := sc.dedupHead
	dedupNext := sc.dedupNext[:0]
	// idHash[v] caches hashID(v) — a pure function of v, so the cache only
	// ever extends; stamp/epoch implement O(|C|) set equality against an
	// unsorted candidate window. The epoch is monotone across builds, so
	// stamps never need clearing between pooled runs.
	for v := len(sc.idHash); v < nu; v++ {
		sc.idHash = append(sc.idHash, hashID(uint64(v)))
	}
	idHash := sc.idHash
	if len(sc.stamp) < nu {
		sc.stamp = append(sc.stamp, make([]uint64, nu-len(sc.stamp))...)
	}
	stamp := sc.stamp
	// pos[id] is id's position in the LRU stack (-1 when cold), so the
	// linear stack search of the old build is gone; move-to-front already
	// shifts the prefix, and the positions update in the same loop.
	if cap(sc.pos) < nu {
		sc.pos = make([]int32, nu)
	}
	pos := sc.pos[:nu]
	for i := range pos {
		pos[i] = -1
	}
	// pairs records (id, set index) per non-cold occurrence; one global
	// sort at the end replaces the per-id slices of the old build.
	pairs := sc.pairs[:0]

	stack := sc.stack[:0] // identifiers, most recent first
	for i, id := range s.IDs {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p := pos[id]
		if p < 0 {
			// Cold occurrence: no conflict set recorded (Table 4 ignores
			// the first occurrence).
			stack = append(stack, 0)
			copy(stack[1:], stack)
			for _, v := range stack[1:] {
				pos[v]++
			}
			stack[0] = id
			pos[id] = 0
			continue
		}
		// Conflict set = stack prefix above id. Hash it commutatively and
		// stamp its members in one pass; no sort needed for lookup.
		sc.epoch++
		epoch := sc.epoch
		var hsum, hxor uint64
		for _, v := range stack[:p] {
			h := idHash[v]
			hsum += h
			hxor ^= h
			stamp[v] = epoch
		}
		key := hashID(hsum ^ (hxor << 1) ^ uint64(p))
		idx := int32(-1)
		if head, ok := dedupHead[key]; ok {
			for cand := head; cand >= 0; cand = dedupNext[cand] {
				cs := m.sets[cand]
				if len(cs) != int(p) {
					continue
				}
				match := true
				for _, v := range cs {
					if stamp[v] != epoch {
						match = false
						break
					}
				}
				if match {
					idx = cand
					break
				}
			}
		}
		if idx < 0 {
			// First sighting: sort once, copy into the arena, maybe pack.
			cp := sc.i32.alloc(int(p))
			for k, v := range stack[:p] {
				cp[k] = int32(v)
			}
			slices.Sort(cp)
			idx = int32(len(m.sets))
			m.sets = append(m.sets, cp)
			var pk *bitset.Set
			if len(cp) >= thresh {
				pk = sc.bs.New(nu)
				for _, v := range cp {
					pk.Add(int(v))
				}
			}
			m.packed = append(m.packed, pk)
			if int(p) > m.maxCard {
				m.maxCard = int(p)
			}
			if head, ok := dedupHead[key]; ok {
				dedupNext = append(dedupNext, head)
			} else {
				dedupNext = append(dedupNext, -1)
			}
			dedupHead[key] = idx
		}
		pairs = append(pairs, uint64(id)<<32|uint64(uint32(idx)))
		// Move to front.
		copy(stack[1:p+1], stack[:p])
		for _, v := range stack[1 : p+1] {
			pos[v]++
		}
		stack[0] = id
		pos[id] = 0
	}
	sc.stack = stack[:0]
	sc.dedupNext = dedupNext

	// Sort (id, set) pairs and run-length encode into occurrence runs
	// carved from one exactly-sized buffer — occ[id] order per id is by
	// set index, the same as the old per-id sort produced.
	slices.Sort(pairs)
	runs := 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		runs++
		i = j
	}
	occBuf := sc.occBuf[:0]
	if cap(occBuf) < runs {
		// Pre-size before carving: a mid-fill growth would strand the
		// occ[id] slices already handed out on the old backing array.
		occBuf = make([]occurrence, 0, runs)
	}
	for i := 0; i < len(pairs); {
		id := int(pairs[i] >> 32)
		start := len(occBuf)
		for i < len(pairs) && int(pairs[i]>>32) == id {
			j := i
			for j < len(pairs) && pairs[j] == pairs[i] {
				j++
			}
			occBuf = append(occBuf, occurrence{set: int32(uint32(pairs[i])), count: int32(j - i)})
			i = j
		}
		m.occ[id] = occBuf[start:len(occBuf):len(occBuf)]
	}
	sc.occBuf = occBuf
	sc.pairs = pairs[:0]
	if span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", nu)
		span.SetAttr("distinct_sets", len(m.sets))
		span.SetAttr("occurrences", m.Occurrences())
		span.SetAttr("dedup_hit_rate", m.DedupHitRate())
		span.SetAttr("max_card", m.maxCard)
		span.SetAttr("packed_sets", m.PackedSets())
		span.End()
	}
	return nil
}

// DedupHitRate is the fraction of non-cold occurrences whose conflict
// window had already been seen: 1 - distinct/occurrences. Loop-dominated
// traces sit near 1; adversarially random traces near 0.
func (m *MRCT) DedupHitRate() float64 {
	occ := m.Occurrences()
	if occ == 0 {
		return 0
	}
	return 1 - float64(len(m.sets))/float64(occ)
}

// BuildMRCTNaive is the literal double loop of Algorithm 2, with the
// conflict windows accumulated in bit vectors: for every unique reference
// U_i an accumulator S_i collects identifiers until the trace reaches U_i
// again, at which point S_i is emitted and reset. O(N·N') time and only
// suitable for small traces; kept as an executable specification that
// cross-validates BuildMRCT.
func BuildMRCTNaive(s *trace.Stripped) [][][]int32 {
	nu := s.NUnique()
	out := make([][][]int32, nu)
	acc := make([]*bitset.Set, nu)
	started := make([]bool, nu)
	for i := range acc {
		acc[i] = bitset.New(nu)
	}
	for _, id := range s.IDs {
		for i := 0; i < nu; i++ {
			if i == id {
				continue
			}
			if started[i] {
				acc[i].Add(id)
			}
		}
		if started[id] {
			elems := acc[id].Elems()
			set := make([]int32, len(elems))
			for k, e := range elems {
				set[k] = int32(e)
			}
			out[id] = append(out[id], set)
			acc[id].Clear()
		}
		started[id] = true
	}
	return out
}

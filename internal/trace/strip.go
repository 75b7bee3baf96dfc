package trace

import (
	"github.com/example/cachedse/internal/bitset"
)

// Stripped is the stripped form of a trace (Table 2 of the paper): the N'
// unique references in order of first appearance, each assigned a numeric
// identifier, plus the original trace re-expressed as a sequence of those
// identifiers.
//
// Identifiers are zero-based here (the paper numbers from 1); every data
// structure downstream is internally consistent, and rendering helpers add
// one where a table must match the paper's numbering.
type Stripped struct {
	// Unique holds the distinct addresses in first-appearance order;
	// Unique[id] is the address of identifier id. len(Unique) == N'.
	Unique []uint32
	// IDs is the original trace as identifiers: IDs[i] is the identifier of
	// the i-th reference. len(IDs) == N.
	IDs []int
	// index maps address -> identifier.
	index addrIndex
}

// Strip reduces a trace of N references to its N' unique references using a
// hash table, the O(N) formulation recommended in §2.4 over sorting. The
// table is an open-addressed address index (see addrIndex), a few
// nanoseconds per reference.
func Strip(t *Trace) *Stripped {
	return StripInto(t, nil)
}

// StripInto is Strip writing into a reusable Stripped: s is emptied and its
// identifier/unique/index storage reused, so a pooled caller strips trace
// after trace without allocating once the buffers have grown to the
// workload's size. A nil s allocates a fresh one (StripInto(t, nil) is
// exactly Strip).
func StripInto(t *Trace, s *Stripped) *Stripped {
	if s == nil {
		s = &Stripped{IDs: make([]int, 0, t.Len())}
	}
	s.reset(t.Len())
	for _, r := range t.Refs {
		if id, ok := s.index.atHome(r.Addr); ok { // most repeats: no call
			s.IDs = append(s.IDs, id)
			continue
		}
		s.add(r.Addr)
	}
	return s
}

// reset empties the stripped form for a trace of n references, keeping
// the capacity of the identifier sequence, the unique-address table and
// the index; n bounds the index table the strip can need.
func (s *Stripped) reset(n int) {
	s.Unique = s.Unique[:0]
	s.IDs = s.IDs[:0]
	s.index.reset(n)
}

// add appends one reference to the stripped form.
func (s *Stripped) add(addr uint32) {
	id, added := s.index.put(addr)
	if added {
		s.Unique = append(s.Unique, addr)
	}
	s.IDs = append(s.IDs, id)
}

// N returns the original trace length.
func (s *Stripped) N() int { return len(s.IDs) }

// NUnique returns N', the number of unique references.
func (s *Stripped) NUnique() int { return len(s.Unique) }

// ID returns the identifier of addr and whether it appears in the trace.
func (s *Stripped) ID(addr uint32) (int, bool) { return s.index.get(addr) }

// Addr returns the address of identifier id.
func (s *Stripped) Addr(id int) uint32 { return s.Unique[id] }

// AddrBits returns the number of significant address bits over the unique
// references.
func (s *Stripped) AddrBits() int {
	var max uint32
	for _, a := range s.Unique {
		if a > max {
			max = a
		}
	}
	bits := 0
	for max != 0 {
		bits++
		max >>= 1
	}
	return bits
}

// ZeroOne is the pair of sets computed for one address bit (Table 3): Zero
// holds the identifiers whose address has a 0 at that bit, One those with a
// 1.
type ZeroOne struct {
	Zero *bitset.Set
	One  *bitset.Set
}

// ZeroOneSets computes, for each of the given number of low-order address
// bits B_0..B_{bits-1}, the pair (Z_i, O_i) over the unique references.
// These cross-intersect to form the BCAT nodes (Algorithm 1). If bits is
// zero or negative, AddrBits() is used; bits may exceed AddrBits, in which
// case the extra planes have every identifier in Zero.
func (s *Stripped) ZeroOneSets(bits int) []ZeroOne {
	return s.ZeroOneSetsAlloc(bits, bitset.New)
}

// ZeroOneSetsAlloc is ZeroOneSets with the bit-vector allocator injected:
// newSet(n) must return an empty set of capacity n. Pooled engines pass a
// freelist allocator so the 2·bits sets of every exploration are recycled
// instead of handed to the garbage collector; newSet(n) may therefore
// return storage whose lifetime is managed by the caller.
func (s *Stripped) ZeroOneSetsAlloc(bits int, newSet func(n int) *bitset.Set) []ZeroOne {
	if bits <= 0 {
		bits = s.AddrBits()
	}
	n := s.NUnique()
	out := make([]ZeroOne, bits)
	for b := range out {
		out[b] = ZeroOne{Zero: newSet(n), One: newSet(n)}
	}
	for id, addr := range s.Unique {
		for b := 0; b < bits; b++ {
			if addr>>uint(b)&1 == 1 {
				out[b].One.Add(id)
			} else {
				out[b].Zero.Add(id)
			}
		}
	}
	return out
}

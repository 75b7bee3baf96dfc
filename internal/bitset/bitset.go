// Package bitset provides dense bit vectors used throughout the analytical
// cache exploration algorithms.
//
// The paper represents reference sets as bit vectors because the inner loop
// of the postlude phase is dominated by set intersections and cardinality
// queries ("The extensive use of sets in our technique is due to the fact
// that sets are efficient to represent, store, and manipulate on a computer
// system using bit vectors", §2.4). Set elements are the numeric identifiers
// assigned to unique references during trace stripping, so a Set of capacity
// N' (number of unique references) covers every set the algorithms need.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bit vector. The zero value is an empty set
// of capacity zero; use New to create a set able to hold n elements.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a set of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Cap returns the capacity (maximum element + 1) of the set.
func (s *Set) Cap() int { return s.n }

// Add inserts element i. It panics if i is out of range.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes element i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Remove(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether element i is in the set. Out-of-range values
// report false.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set (population count).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset empties the set and re-sizes it to capacity n, reusing the word
// storage when it is large enough. It is the reuse hook for pooled sets:
// a freelist can hand the same Set to explorations over different
// identifier universes without allocating, and the set always comes back
// empty.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o. The sets must have the same
// capacity.
func (s *Set) Copy(o *Set) {
	s.mustMatch(o, "Copy")
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set, op string) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: %s on mismatched capacities %d and %d", op, s.n, o.n))
	}
}

// And stores the intersection of a and b into s (s may alias a or b).
func (s *Set) And(a, b *Set) {
	a.mustMatch(b, "And")
	s.mustMatch(a, "And")
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// Or stores the union of a and b into s (s may alias a or b).
func (s *Set) Or(a, b *Set) {
	a.mustMatch(b, "Or")
	s.mustMatch(a, "Or")
	for i := range s.words {
		s.words[i] = a.words[i] | b.words[i]
	}
}

// AndNot stores the difference a\b into s (s may alias a or b).
func (s *Set) AndNot(a, b *Set) {
	a.mustMatch(b, "AndNot")
	s.mustMatch(a, "AndNot")
	for i := range s.words {
		s.words[i] = a.words[i] &^ b.words[i]
	}
}

// IntersectCount returns |s ∩ o| without allocating. This is the hot
// operation of the postlude phase (Algorithm 3 counts |S ∩ C| per conflict
// set per candidate associativity).
func (s *Set) IntersectCount(o *Set) int {
	s.mustMatch(o, "IntersectCount")
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// IntersectCountAtLeast reports whether |s ∩ o| >= k, short-circuiting as
// soon as the bound is reached. Algorithm 3 only needs the comparison
// against the candidate associativity, never the full cardinality, so the
// early exit matters on long conflict sets.
func (s *Set) IntersectCountAtLeast(o *Set, k int) bool {
	s.mustMatch(o, "IntersectCountAtLeast")
	if k <= 0 {
		return true
	}
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
		if c >= k {
			return true
		}
	}
	return false
}

// IntersectCountSparse returns the number of elements of elems contained
// in s. It is the sparse counterpart of IntersectCount: when the other set
// is a short sorted identifier list, iterating its elements beats scanning
// every word of the universe. Elements must be distinct and in range
// [0, Cap()); elements outside that range panic or (within the trailing
// partial word) count as absent. This is the single audited intersection
// kernel for hybrid (sparse-or-packed) conflict sets.
func (s *Set) IntersectCountSparse(elems []int32) int {
	c := 0
	w := s.words
	for _, e := range elems {
		c += int(w[e>>6] >> (uint32(e) & 63) & 1)
	}
	return c
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o, "Intersects")
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same elements and have
// the same capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o, "SubsetOf")
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. Iteration stops if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachRange calls fn for every element e with lo <= e < hi in ascending
// order. Iteration stops if fn returns false. Bounds outside [0, Cap()] are
// clamped. The postlude uses it to restrict each worker to its slice of
// the identifiers without copying the row set.
func (s *Set) ForEachRange(lo, hi int, fn func(i int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	for wi := loWord; wi <= hiWord; wi++ {
		w := s.words[wi]
		if wi == loWord {
			w &= ^uint64(0) << uint(lo%wordBits)
		}
		if wi == hiWord && hi%wordBits != 0 {
			w &= ^uint64(0) >> uint(wordBits-hi%wordBits)
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elems returns the elements in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Next returns the smallest element >= i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as {a,b,c} in ascending order, matching the
// notation of the paper's running example.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

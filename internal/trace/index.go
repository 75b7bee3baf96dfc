package trace

import (
	"math/bits"
	"math/rand/v2"
)

// addrIndex is the hash table of the §2.4 strip: it maps each distinct
// address to its identifier, the order of its first insertion. It is an
// open-addressed table with linear probing over a power-of-two slot array
// kept at most half full, and a multiply-shift hash: a key's home slot is
// the top log2(len(slots)) bits of uint64(addr)*mul, so a probe is a
// multiply, a shift and usually one 8-byte load. Slots store the
// identifier plus one, so a zero slot is empty and address 0 is an
// ordinary key. Keys are never deleted; reset empties the whole table.
//
// The multiplier starts as goldenMul, which places the strided and
// clustered addresses of real traces with almost no collisions. Trace
// addresses come from clients, though, and a fixed multiplier can be aimed
// at: a crafted trace can put its keys on a few home slots, so that every
// insertion probes a run as long as the keys before it. The index
// therefore tracks how far its keys sit past their home slots, and as soon
// as that exceeds maxDisplacement for one key, or the key count plus
// maxDisplacement in total, it rehashes under a random odd multiplier
// drawn for it alone. Multiply-shift with a random odd multiplier is
// universal, so no fixed set of addresses collides more than chance
// allows; the check is then dropped. Under goldenMul, therefore, no lookup
// probes more than maxDisplacement+1 slots, and identifiers never depend
// on the multiplier.
type addrIndex struct {
	slots []addrSlot
	mul   uint64 // the hash multiplier: goldenMul, or random once clustered
	shift uint8  // 64 - log2(len(slots))
	n     int    // keys held; the next identifier
	// disp and longest are the total and the largest distance of a key
	// past its home slot.
	disp, longest int
}

type addrSlot struct {
	addr uint32
	id1  uint32 // identifier + 1; 0 marks an empty slot
}

const (
	// goldenMul is 2^64 divided by the golden ratio, the Fibonacci hashing
	// multiplier: it spreads strided and clustered addresses (loop bodies,
	// arrays) evenly over the top bits the table indexes by.
	goldenMul = 0x9E3779B97F4A7C15
	// maxDisplacement bounds the clustering tolerated under goldenMul
	// (see addrIndex). Real traces sit at or next to their home slots.
	maxDisplacement = 32
	// minIndexSlots is the smallest table; it holds 32 keys.
	minIndexSlots = 64
)

// indexSlots returns the table size a fill of at most n keys can need:
// the smallest power of two, at least minIndexSlots, that keeps n keys at
// most half full.
func indexSlots(n int) int {
	size := minIndexSlots
	for size < 2*n {
		size *= 2
	}
	return size
}

// reset empties the index for a fill of at most maxKeys keys (negative
// when unknown) and restores goldenMul. The table is reused, trimmed first
// to the size such a fill can need, so an index that once held a large
// trace does not clear that whole table for a small one.
func (x *addrIndex) reset(maxKeys int) {
	x.n, x.disp, x.longest, x.mul = 0, 0, 0, goldenMul
	switch {
	case x.slots == nil:
		x.setSlots(make([]addrSlot, minIndexSlots))
	case maxKeys >= 0 && indexSlots(maxKeys) < len(x.slots):
		// A power-of-two prefix of the table is a table.
		x.setSlots(x.slots[:indexSlots(maxKeys)])
	}
	clear(x.slots)
}

func (x *addrIndex) setSlots(slots []addrSlot) {
	x.slots = slots
	x.shift = uint8(64 - bits.TrailingZeros(uint(len(slots))))
}

// home returns the home slot of addr.
func (x *addrIndex) home(addr uint32) uint64 {
	return uint64(addr) * x.mul >> x.shift
}

// atHome returns the identifier of addr if addr sits in its home slot,
// where a key of a half-full table usually is. It is find's first probe
// alone, small enough to inline into the per-reference loops of the strip
// and the statistics, which then call put only for insertions and for keys
// an earlier insertion displaced.
func (x *addrIndex) atHome(addr uint32) (int, bool) {
	s := x.slots[x.home(addr)]
	return int(s.id1) - 1, s.id1 != 0 && s.addr == addr
}

// put returns the identifier of addr, first inserting it with the next
// identifier if absent; added reports whether it did. The index must have
// been reset.
func (x *addrIndex) put(addr uint32) (id int, added bool) {
	i, found := x.find(addr)
	if found {
		return int(x.slots[i].id1) - 1, false
	}
	if 2*(x.n+1) > len(x.slots) {
		x.rehash(2 * len(x.slots))
		i, _ = x.find(addr)
	}
	x.n++
	x.place(i, addrSlot{addr: addr, id1: uint32(x.n)})
	if x.mul == goldenMul && (x.longest > maxDisplacement || x.disp > x.n+maxDisplacement) {
		x.mul = rand.Uint64() | 1
		x.rehash(len(x.slots))
	}
	return x.n - 1, true
}

// get returns the identifier of addr and whether it is present.
func (x *addrIndex) get(addr uint32) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	i, found := x.find(addr)
	return int(x.slots[i].id1) - 1, found
}

// find returns the slot holding addr, or else the empty slot that ends its
// probe sequence, where an insertion of addr goes.
func (x *addrIndex) find(addr uint32) (slot uint64, found bool) {
	mask := uint64(len(x.slots) - 1)
	for i := x.home(addr); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.id1 == 0 {
			return i, false
		}
		if s.addr == addr {
			return i, true
		}
	}
}

// place stores s in slot i, which find returned for s.addr, and accounts
// for its distance past its home slot.
func (x *addrIndex) place(i uint64, s addrSlot) {
	x.slots[i] = s
	d := int((i - x.home(s.addr)) & uint64(len(x.slots)-1))
	x.disp += d
	x.longest = max(x.longest, d)
}

// rehash rebuilds the table at size slots under the current multiplier,
// re-inserting every key at its home.
func (x *addrIndex) rehash(size int) {
	old := x.slots
	x.setSlots(make([]addrSlot, size))
	x.disp, x.longest = 0, 0
	for _, s := range old {
		if s.id1 != 0 {
			i, _ := x.find(s.addr)
			x.place(i, s)
		}
	}
}

package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mapStrip and mapStats are the map-based formulations the address index
// replaced, kept as the reference it must match.
func mapStrip(t *Trace) (unique []uint32, ids []int, index map[uint32]int) {
	index = make(map[uint32]int)
	for _, r := range t.Refs {
		id, ok := index[r.Addr]
		if !ok {
			id = len(unique)
			index[r.Addr] = id
			unique = append(unique, r.Addr)
		}
		ids = append(ids, id)
	}
	return unique, ids, index
}

func mapStats(t *Trace) Stats {
	s := Stats{N: t.Len()}
	seen := make(map[uint32]bool)
	for i, r := range t.Refs {
		if i > 0 && r.Addr == t.Refs[i-1].Addr {
			// hit
		} else if seen[r.Addr] {
			s.MaxMisses++
		}
		seen[r.Addr] = true
	}
	s.NUnique = len(seen)
	return s
}

// checkStrip requires s to be the map-based strip of t, with ID agreeing
// on every address of t and rejecting each of absent.
func checkStrip(t *testing.T, s *Stripped, tr *Trace, absent []uint32) {
	t.Helper()
	unique, ids, index := mapStrip(tr)
	if s.N() != len(ids) || s.NUnique() != len(unique) {
		t.Fatalf("N=%d N'=%d, want N=%d N'=%d", s.N(), s.NUnique(), len(ids), len(unique))
	}
	for i := range ids {
		if s.IDs[i] != ids[i] {
			t.Fatalf("IDs[%d] = %d, want %d", i, s.IDs[i], ids[i])
		}
	}
	for id, a := range unique {
		if s.Unique[id] != a {
			t.Fatalf("Unique[%d] = %#x, want %#x", id, s.Unique[id], a)
		}
		if got, ok := s.ID(a); !ok || got != id {
			t.Fatalf("ID(%#x) = %d, %v; want %d, true", a, got, ok, id)
		}
	}
	for _, a := range absent {
		if _, in := index[a]; in {
			continue
		}
		if id, ok := s.ID(a); ok {
			t.Fatalf("ID(%#x) of absent address = %d, true", a, id)
		}
	}
}

func TestStripAddressZero(t *testing.T) {
	tr := FromAddrs(DataRead, []uint32{0, 5, 0, 0, 5, 1<<32 - 1, 0})
	s := Strip(tr)
	checkStrip(t, s, tr, []uint32{1, 4, 6, 1<<32 - 2})
	if id, ok := s.ID(0); !ok || id != 0 {
		t.Fatalf("ID(0) = %d, %v; want 0, true", id, ok)
	}
	if st, want := ComputeStats(tr), mapStats(tr); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if _, ok := Strip(FromAddrs(DataRead, []uint32{5})).ID(0); ok {
		t.Fatal("ID(0) present in a trace without address 0")
	}
}

// The table starts at minIndexSlots and doubles; identifiers must survive
// every rehash, and the table must stay a power of two at most half full.
func TestAddrIndexGrowth(t *testing.T) {
	var x addrIndex
	x.reset(-1)
	const n = 5000
	addr := func(i int) uint32 { return uint32(i) * 4096 } // strided, as array walks are
	for i := 0; i < n; i++ {
		if id, added := x.put(addr(i)); !added || id != i {
			t.Fatalf("put(%#x) = %d, %v; want %d, true", addr(i), id, added, i)
		}
		if size := len(x.slots); size&(size-1) != 0 || 2*x.n > size {
			t.Fatalf("after %d keys: %d slots", x.n, size)
		}
	}
	if len(x.slots) != indexSlots(n) {
		t.Fatalf("%d slots for %d keys, want %d", len(x.slots), n, indexSlots(n))
	}
	for i := 0; i < n; i++ {
		if id, added := x.put(addr(i)); added || id != i {
			t.Fatalf("re-put(%#x) = %d, %v; want %d, false", addr(i), id, added, i)
		}
		if id, ok := x.get(addr(i)); !ok || id != i {
			t.Fatalf("get(%#x) = %d, %v; want %d, true", addr(i), id, ok, i)
		}
		if _, ok := x.get(addr(i) + 1); ok {
			t.Fatalf("get(%#x) of absent key reported present", addr(i)+1)
		}
	}
}

// probeCost returns the total and the longest probe sequence of a lookup
// of every key of x: a key displaced d slots past its home costs d+1
// probes, and so did its insertion.
func probeCost(x *addrIndex) (total, longest int) {
	mask := uint64(len(x.slots) - 1)
	for i, s := range x.slots {
		if s.id1 == 0 {
			continue
		}
		probes := int((uint64(i)-x.home(s.addr))&mask) + 1
		total += probes
		longest = max(longest, probes)
	}
	return total, longest
}

// inverse32 returns the multiplicative inverse of odd a modulo 2^32.
func inverse32(a uint32) uint32 {
	x := a // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 4; i++ {
		x *= 2 - a*x
	}
	return x
}

// goldenCluster returns the first n addresses whose goldenMul home slot is
// among the first 1/2048 of any table: a trace aimed at the default hash.
func goldenCluster(n int) []uint32 {
	keys := make([]uint32, 0, n)
	for a := uint32(0); len(keys) < n; a++ {
		if uint64(a)*goldenMul>>53 == 0 {
			keys = append(keys, a)
		}
	}
	return keys
}

// Trace addresses come from clients, so a crafted trace must not be able
// to make the index quadratic. Under a fixed multiplicative hash, keys
// that share a few home slots make inserting N of them cost about N^2/2
// probes; the index must notice and rehash under a random multiplier, so
// that these sets, like regular ones, cost about what random keys do:
// 1.5 probes per key in a table at most half full. Sequential and strided
// sets must keep the golden-ratio hash, which places them without
// collisions.
func TestAddrIndexAdversarialKeys(t *testing.T) {
	const n = 1 << 16
	golden := goldenCluster(n)
	sets := []struct {
		name   string
		addr   func(i uint32) uint32
		golden bool // a regular set, which must keep goldenMul
	}{
		{"golden-cluster", func(i uint32) uint32 { return golden[i] }, false},
		{"inverse-golden-32", func(i uint32) uint32 { return inverse32(goldenMul>>32|1) * i }, false},
		{"high-bits", func(i uint32) uint32 { return i << 16 }, false},
		{"sequential", func(i uint32) uint32 { return i }, true},
		{"word-stride", func(i uint32) uint32 { return 0x400000 + 4*i }, true},
	}
	for _, set := range sets {
		var x addrIndex
		x.reset(-1)
		for i := uint32(0); i < n; i++ {
			if id, added := x.put(set.addr(i)); !added || id != int(i) {
				t.Fatalf("%s: put(%#x) = %d, %v; want %d, true", set.name, set.addr(i), id, added, i)
			}
		}
		for i := uint32(0); i < n; i++ {
			if id, ok := x.get(set.addr(i)); !ok || id != int(i) {
				t.Fatalf("%s: get(%#x) = %d, %v; want %d, true", set.name, set.addr(i), id, ok, i)
			}
		}
		// Quadratic clustering would cost ~n/2 probes per key and a run of
		// ~n; the bounds leave wide room above chance.
		if total, longest := probeCost(&x); total > 4*n || longest > 256 {
			t.Errorf("%s: %d keys cost %d probes (%.2f per key), longest %d",
				set.name, n, total, float64(total)/n, longest)
		}
		if set.golden && x.mul != goldenMul {
			t.Errorf("%s: rehashed under a random multiplier", set.name)
		}
	}
}

func TestStripIDAbsent(t *testing.T) {
	var empty Stripped
	if _, ok := empty.ID(0); ok {
		t.Fatal("ID on a zero Stripped reported present")
	}
	tr := FromAddrs(DataRead, []uint32{10, 20, 30, 10})
	s := Strip(tr)
	// Absent addresses near the present ones and across the space.
	absent := make([]uint32, 0, 3000)
	for a := uint32(0); a < 1000; a++ {
		absent = append(absent, a, a<<20, ^a)
	}
	checkStrip(t, s, tr, absent)
}

// A pooled Stripped reused for a small trace after a large one (and the
// large one again) must give exactly the fresh strip each time, with none
// of the large trace's addresses left behind in the index.
func TestStripIntoReuseAfterLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	large := New(0)
	for i := 0; i < 20000; i++ {
		large.Append(Ref{Addr: rng.Uint32() % 50000})
	}
	small := FromAddrs(DataRead, []uint32{7, 50001, 7, 3})
	var s Stripped
	for _, tr := range []*Trace{large, small, large, small, New(0), small} {
		got := StripInto(tr, &s)
		if got != &s {
			t.Fatal("StripInto did not reuse its argument")
		}
		checkStrip(t, got, tr, []uint32{0, 1, 2, 100, 4999, 49999, 50000, 50002})
	}
}

// Strip and ComputeStats equal the map-based reference on random traces
// over the full 32-bit address space, with repeats drawn in so hits,
// non-cold misses and collisions all occur.
func TestStripStatsMatchMapQuick(t *testing.T) {
	f := func(seed int64, size uint16, poolSize uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]uint32, int(poolSize)+1)
		for i := range pool {
			pool[i] = rng.Uint32()
		}
		tr := New(int(size))
		for i := 0; i < int(size); i++ {
			switch rng.Intn(4) {
			case 0:
				tr.Append(Ref{Addr: rng.Uint32()})
			case 1:
				if n := tr.Len(); n > 0 {
					tr.Append(tr.Refs[n-1])
					continue
				}
				fallthrough
			default:
				tr.Append(Ref{Addr: pool[rng.Intn(len(pool))]})
			}
		}
		checkStrip(t, Strip(tr), tr, []uint32{0, 1, rng.Uint32(), rng.Uint32()})
		return ComputeStats(tr) == mapStats(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

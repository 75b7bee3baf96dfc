package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// traceFromBytes builds a bounded-address trace from random bytes.
func traceFromBytes(bs []uint8, mod uint32) *trace.Trace {
	t := trace.New(len(bs))
	for _, b := range bs {
		t.Append(trace.Ref{Addr: uint32(b) % mod, Kind: trace.DataRead})
	}
	return t
}

// The paper's central guarantee: the analytical model counts exactly the
// non-cold misses of an LRU set-associative cache. Verify against the
// event-driven simulator across random traces, depths and associativities.
func TestQuickAnalyticalMatchesSimulator(t *testing.T) {
	f := func(bs []uint8, depthPow, assocRaw, modRaw uint8) bool {
		mod := uint32(modRaw)%120 + 8
		tr := traceFromBytes(bs, mod)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		depth := 1 << (depthPow % uint8(len(r.Levels)))
		assoc := 1 + int(assocRaw%6)
		res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
		if err != nil {
			return false
		}
		return r.Level(depth).Misses(assoc) == res.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The analytical histogram tail must agree with the Mattson one-pass
// profile at every depth and associativity (two independent formulations
// of the same quantity).
func TestQuickAnalyticalMatchesOnePass(t *testing.T) {
	f := func(bs []uint8, modRaw uint8) bool {
		mod := uint32(modRaw)%120 + 8
		tr := traceFromBytes(bs, mod)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, l := range r.Levels {
			p, err := onepass.Run(tr, l.Depth)
			if err != nil {
				return false
			}
			maxA := l.AZero
			if p.MaxAssoc() > maxA {
				maxA = p.MaxAssoc()
			}
			for a := 1; a <= maxA+1; a++ {
				if l.Misses(a) != p.Misses(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The emitted optimal instances must honour the budget when simulated, and
// must be minimal: one step less associativity must break the budget.
func TestQuickOptimalSetIsOptimal(t *testing.T) {
	f := func(bs []uint8, kRaw uint8) bool {
		tr := traceFromBytes(bs, 64)
		st := trace.ComputeStats(tr)
		k := int(kRaw) % (st.MaxMisses + 1)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, ins := range r.OptimalSet(k) {
			res, err := cache.Simulate(cache.Config{Depth: ins.Depth, Assoc: ins.Assoc}, tr)
			if err != nil {
				return false
			}
			if res.Misses > k {
				return false // budget violated
			}
			if ins.Assoc > 1 {
				res2, err := cache.Simulate(cache.Config{Depth: ins.Depth, Assoc: ins.Assoc - 1}, tr)
				if err != nil {
					return false
				}
				if res2.Misses <= k {
					return false // not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The naive Algorithm 2 and the hash/LRU-stack MRCT must describe the same
// conflict structure: identical miss counts through the postlude.
func TestQuickMRCTNaiveEquivalent(t *testing.T) {
	f := func(bs []uint8) bool {
		if len(bs) > 60 {
			bs = bs[:60] // the naive build is O(N·N')
		}
		tr := traceFromBytes(bs, 32)
		s := trace.Strip(tr)
		fast := BuildMRCT(s)
		naive := BuildMRCTNaive(s)
		// Compare per-id conflict multisets.
		for id := 0; id < s.NUnique(); id++ {
			a := fast.ConflictSets(id)
			b := naive[id]
			if len(a) != len(b) {
				return false
			}
			key := func(set []int32) string {
				out := make([]byte, 0, len(set)*4)
				for _, v := range set {
					out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
				return string(out)
			}
			am := map[string]int{}
			for _, set := range a {
				am[key(set)]++
			}
			for _, set := range b {
				am[key(set)]--
			}
			for _, n := range am {
				if n != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// bcatReference is the literal Algorithm 3 over the literal Algorithm 1:
// materialise the BCAT and fold every level's row sets into that level's
// histogram. The engine's depth-first postlude must reproduce it bit for
// bit at every worker count.
func bcatReference(s *trace.Stripped, m *MRCT) *Result {
	tree := BuildBCAT(s, 0)
	r := newResult(s, m, tree.Levels)
	fold := func(l int, set *bitset.Set) { accumulateRangeHist(r.Levels[l].Hist, set, m, 0, set.Cap()) }
	if s.NUnique() > 0 {
		root := bitset.New(s.NUnique())
		for id := 0; id < s.NUnique(); id++ {
			root.Add(id)
		}
		fold(0, root)
		for l := 1; l <= tree.Levels; l++ {
			for _, set := range tree.LevelSets(l) {
				fold(l, set)
			}
		}
	}
	finalize(r)
	return r
}

// DFS and materialised-BCAT postludes agree on random traces.
func TestQuickDFSMatchesBCAT(t *testing.T) {
	f := func(bs []uint8) bool {
		tr := traceFromBytes(bs, 64)
		s := trace.Strip(tr)
		m := BuildMRCT(s)
		dfs, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
		if err != nil {
			return false
		}
		mat := bcatReference(s, m)
		if len(dfs.Levels) != len(mat.Levels) {
			return false
		}
		for i := range dfs.Levels {
			hi := dfs.Levels[i].AZero + 1
			for a := 1; a <= hi; a++ {
				if dfs.Levels[i].Misses(a) != mat.Levels[i].Misses(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// diffResults demands the strongest equality the engines promise:
// bit-identical Results — same level structure, same AZero, and
// element-for-element equal histograms (not just equal miss counts). It
// returns "" when identical, else a description of the first divergence.
func diffResults(a, b *Result) string {
	if a.N != b.N || a.NUnique != b.NUnique {
		return fmt.Sprintf("stats differ: (N=%d,N'=%d) vs (N=%d,N'=%d)", a.N, a.NUnique, b.N, b.NUnique)
	}
	if len(a.Levels) != len(b.Levels) {
		return fmt.Sprintf("level counts differ: %d vs %d", len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		la, lb := a.Levels[i], b.Levels[i]
		if la.Depth != lb.Depth {
			return fmt.Sprintf("level %d: depth %d vs %d", i, la.Depth, lb.Depth)
		}
		if la.AZero != lb.AZero {
			return fmt.Sprintf("depth %d: AZero %d vs %d", la.Depth, la.AZero, lb.AZero)
		}
		if len(la.Hist) != len(lb.Hist) {
			return fmt.Sprintf("depth %d: Hist lengths %d vs %d", la.Depth, len(la.Hist), len(lb.Hist))
		}
		for d := range la.Hist {
			if la.Hist[d] != lb.Hist[d] {
				return fmt.Sprintf("depth %d: Hist[%d] = %d vs %d", la.Depth, d, la.Hist[d], lb.Hist[d])
			}
		}
	}
	return ""
}

// The postlude must stay bit-identical to the literal materialised-BCAT
// Algorithm 3 at every worker count, over loop-, zipf-, and uniform-shaped
// synthetic workloads with fixed seeds. This is the regression gate for
// the hybrid conflict-set representation, the hash-deduped MRCT, and the
// identifier-range partition of the parallel walk.
func TestCrossCheckEnginesBitIdentical(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	for _, seed := range []int64{1, 7, 4242} {
		rng := rand.New(rand.NewSource(seed))
		workloads := map[string]*trace.Trace{
			"loop":    tracegen.Loop(uint32(rng.Intn(512)), 32+rng.Intn(64), 20+rng.Intn(40)),
			"zipf":    tracegen.Zipf(rng, 0, 128+rng.Intn(256), 3000+rng.Intn(3000), 1.1+rng.Float64()),
			"uniform": tracegen.Uniform(rng, 0, 64+rng.Intn(192), 2000+rng.Intn(2000)),
		}
		for name, tr := range workloads {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				s := trace.Strip(tr)
				m := BuildMRCT(s)
				seq, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, bcatReference(s, m)); d != "" {
					t.Fatalf("BCAT vs DFS: %s", d)
				}
				for _, workers := range []int{1, 2, 3, 4, 8} {
					par, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if d := diffResults(seq, par); d != "" {
						t.Fatalf("parallel(workers=%d) vs DFS: %s", workers, d)
					}
				}
				if nu := s.NUnique(); nu > 4*64 {
					if got := len(partitionIDs(m, nu, 4, nil)) - 1; got < 2 {
						t.Fatalf("N'=%d split into %d slice(s) at workers=4; the parallel walk went unexercised", nu, got)
					}
				}

				// The ctz1 pack/unpack cycle must be invisible to the
				// engine: exploring the round-tripped trace, and
				// streaming the packed bytes straight into the engine
				// without materializing a *Trace, both reproduce the
				// text path's Result bit for bit.
				var packed bytes.Buffer
				if err := trace.WriteCTZ1(&packed, tr); err != nil {
					t.Fatal(err)
				}
				unpacked, err := trace.ReadCTZ1(bytes.NewReader(packed.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				viaPacked, err := Explore(context.Background(), unpacked, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, viaPacked); d != "" {
					t.Fatalf("explore over unpack(pack(t)) vs direct: %s", d)
				}
				dec, err := trace.NewCTZ1Decoder(bytes.NewReader(packed.Bytes()), trace.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := Explore(context.Background(), dec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, streamed); d != "" {
					t.Fatalf("streaming explore over ctz1 vs direct: %s", d)
				}
			})
		}
	}
}

// The identifier-range partition degenerates on small or skewed traces:
// a single identifier, fewer identifiers than one 64-bit word, a universe
// that ends mid-word, and one identifier carrying most of the occurrence
// mass all yield fewer slices than workers. Every slice must still be
// word-aligned, the slices must cover [0, N') in order, and the result
// must stay bit-identical to the one-slice walk and agree with the BCAT
// reference.
func TestCrossCheckPartitionEdgeCases(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(11))
	skewed := trace.New(0)
	for i := 0; i < 6000; i++ {
		addr := uint32(0)
		if i%3 == 2 {
			addr = uint32(rng.Intn(512))
		}
		skewed.Append(trace.Ref{Addr: addr, Kind: trace.DataRead})
	}
	cases := map[string]*trace.Trace{
		"one-id":      trace.FromAddrs(trace.DataRead, []uint32{7, 7, 7, 7}),
		"sub-word":    tracegen.Uniform(rng, 0, 40, 2000),
		"ragged-word": tracegen.Uniform(rng, 0, 200, 4000),
		"heavy-id":    skewed,
	}
	const workers = 8
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			s := trace.Strip(tr)
			m := BuildMRCT(s)
			nu := s.NUnique()
			if name == "ragged-word" && nu%64 == 0 {
				t.Fatalf("N' = %d is a multiple of 64", nu)
			}
			b := partitionIDs(m, nu, workers, nil)
			if got := len(b) - 1; got >= workers {
				t.Fatalf("N'=%d: %d slices, want fewer than %d workers", nu, got, workers)
			}
			if b[0] != 0 || b[len(b)-1] != nu {
				t.Fatalf("bounds %v do not span [0, %d)", b, nu)
			}
			for i := 1; i < len(b)-1; i++ {
				if b[i]%64 != 0 || b[i] <= b[i-1] {
					t.Fatalf("bounds %v: cut %d not word-aligned and increasing", b, b[i])
				}
			}
			one, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Miss counts, not histograms: a one-identifier tree still holds
			// its level-1 rows, whose d = 0 occurrences the walk's stop rule
			// omits (the documented Hist[0] undercount).
			if !resultsIdentical(one, bcatReference(s, m)) {
				t.Fatal("DFS miss counts differ from the BCAT reference")
			}
			for _, w := range []int{2, 3, 4, workers} {
				par, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(one, par); d != "" {
					t.Fatalf("workers=%d vs workers=1: %s", w, d)
				}
			}
		})
	}
}

// Monotonicity observed throughout Tables 7-30: for a fixed depth the
// required associativity never increases as the budget grows.
func TestQuickMinAssocMonotoneInBudget(t *testing.T) {
	f := func(bs []uint8) bool {
		tr := traceFromBytes(bs, 64)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, l := range r.Levels {
			prev := l.MinAssoc(0)
			for k := 1; k <= 20; k++ {
				a := l.MinAssoc(k)
				if a > prev {
					return false
				}
				prev = a
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A deterministic, larger end-to-end cross-check with a loopy synthetic
// workload resembling embedded kernels.
func TestAnalyticalMatchesSimulatorLoopyWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tr := trace.New(0)
	// Three nested loop bodies with strided array walks and a few globals.
	for outer := 0; outer < 40; outer++ {
		for i := 0; i < 32; i++ {
			tr.Append(trace.Ref{Addr: uint32(0x100 + i), Kind: trace.DataRead})
			tr.Append(trace.Ref{Addr: uint32(0x200 + i*2), Kind: trace.DataRead})
			tr.Append(trace.Ref{Addr: 0x400, Kind: trace.DataWrite})
			if i%4 == 0 {
				tr.Append(trace.Ref{Addr: uint32(0x300 + rng.Intn(16)), Kind: trace.DataRead})
			}
		}
	}
	r, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 4, 16, 64, 256} {
		for _, assoc := range []int{1, 2, 4} {
			res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Level(depth).Misses(assoc); got != res.Misses {
				t.Errorf("depth %d assoc %d: analytical %d != simulated %d", depth, assoc, got, res.Misses)
			}
		}
	}
}

package core

import (
	"context"
	"testing"

	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/trace"
)

func stripPaper() *trace.Stripped {
	return trace.Strip(paperex.Trace())
}

// ---- BCAT (Algorithm 1, Figure 3) ----

func TestBCATPaperLevels(t *testing.T) {
	s := stripPaper()
	bcat := BuildBCAT(s, 0)
	if bcat.Levels != 4 {
		t.Fatalf("Levels = %d, want 4", bcat.Levels)
	}
	for l, wantSets := range paperex.BCATLevels {
		got := bcat.LevelSets(l + 1)
		if len(got) != len(wantSets) {
			t.Fatalf("level %d: %d sets, want %d", l+1, len(got), len(wantSets))
		}
		for i, want := range wantSets {
			if got[i].Count() != len(want) {
				t.Errorf("level %d set %d = %v, want %v", l+1, i, got[i], want)
				continue
			}
			for _, id := range want {
				if !got[i].Contains(id - 1) { // paper ids are one-based
					t.Errorf("level %d set %d missing id %d: got %v", l+1, i, id, got[i])
				}
			}
		}
	}
}

func TestBCATRootIsZeroOneSplit(t *testing.T) {
	s := stripPaper()
	bcat := BuildBCAT(s, 0)
	// Root pair = (Z0, O0) = ({2,3,5},{1,4}) one-based.
	if got := bcat.Root.Zero.String(); got != "{1,2,4}" { // zero-based
		t.Errorf("root Zero = %s, want {1,2,4}", got)
	}
	if got := bcat.Root.One.String(); got != "{0,3}" {
		t.Errorf("root One = %s, want {0,3}", got)
	}
}

func TestBCATStopCriterion(t *testing.T) {
	s := stripPaper()
	bcat := BuildBCAT(s, 0)
	// {3} (one-based) is the One child of the root's Left pair; since its
	// cardinality is 1, that branch must not grow.
	left := bcat.Root.Left
	if left == nil {
		t.Fatal("root.Left missing")
	}
	if left.One.Count() != 1 {
		t.Fatalf("left.One = %v, want singleton", left.One)
	}
	if left.Right != nil {
		t.Error("singleton set was split despite |set| < 2")
	}
}

func TestBCATLevelLimit(t *testing.T) {
	s := stripPaper()
	bcat := BuildBCAT(s, 2)
	if bcat.Levels != 2 {
		t.Fatalf("Levels = %d, want 2", bcat.Levels)
	}
	if got := bcat.LevelSets(3); got != nil {
		t.Fatalf("LevelSets(3) = %v, want nil beyond limit", got)
	}
}

func TestBCATDegenerateTraces(t *testing.T) {
	// Empty trace.
	b := BuildBCAT(trace.Strip(trace.New(0)), 0)
	if b.Root != nil || b.NodeCount() != 0 {
		t.Error("empty trace should build an empty tree")
	}
	// Single unique reference: no split needed, but the root pair is
	// still well-formed when levels > 0.
	b = BuildBCAT(trace.Strip(trace.FromAddrs(trace.DataRead, []uint32{5, 5, 5})), 0)
	if b.NUnique != 1 {
		t.Fatalf("NUnique = %d, want 1", b.NUnique)
	}
	if b.Root == nil {
		t.Fatal("single-ref tree should keep its root pair")
	}
	if b.Root.Left != nil || b.Root.Right != nil {
		t.Error("single-ref tree must not grow")
	}
}

func TestBCATNodeCount(t *testing.T) {
	s := stripPaper()
	bcat := BuildBCAT(s, 0)
	// Figure 3: pairs at depth 0 (root), two pairs at depth 1 ({2,5}/{3}
	// and {}/{1,4} parents), two pairs at depth 2, two pairs at depth 3.
	if got := bcat.NodeCount(); got != 7 {
		t.Fatalf("NodeCount = %d, want 7", got)
	}
}

// ---- MRCT (Algorithm 2, Table 4) ----

func TestMRCTPaperTable4(t *testing.T) {
	s := stripPaper()
	m := BuildMRCT(s)
	if m.NUnique() != 5 {
		t.Fatalf("NUnique = %d, want 5", m.NUnique())
	}
	for paperID := 1; paperID <= 5; paperID++ {
		want := paperex.MRCT[paperID]
		got := m.ConflictSets(paperID - 1)
		if len(got) != len(want) {
			t.Fatalf("id %d: %d conflict sets, want %d", paperID, len(got), len(want))
		}
		// Sets may be reordered by deduplication; compare as multisets of
		// sorted-id strings.
		count := func(sets [][]int32) map[string]int {
			out := map[string]int{}
			for _, s := range sets {
				key := ""
				for _, v := range s {
					key += string(rune(v)) + ","
				}
				out[key]++
			}
			return out
		}
		wantSets := make([][]int32, len(want))
		for i, ws := range want {
			for _, id := range ws {
				wantSets[i] = append(wantSets[i], int32(id-1))
			}
		}
		g, w := count(got), count(wantSets)
		if len(g) != len(w) {
			t.Fatalf("id %d: conflict multiset mismatch: got %v want %v", paperID, got, wantSets)
		}
		for k, n := range w {
			if g[k] != n {
				t.Fatalf("id %d: conflict multiset mismatch: got %v want %v", paperID, got, wantSets)
			}
		}
	}
}

func TestMRCTOccurrenceCount(t *testing.T) {
	s := stripPaper()
	m := BuildMRCT(s)
	// Non-cold occurrences = N - N' = 10 - 5 = 5.
	if got := m.Occurrences(); got != 5 {
		t.Fatalf("Occurrences = %d, want 5", got)
	}
}

func TestMRCTNaiveMatchesPaper(t *testing.T) {
	s := stripPaper()
	naive := BuildMRCTNaive(s)
	for paperID := 1; paperID <= 5; paperID++ {
		want := paperex.MRCT[paperID]
		got := naive[paperID-1]
		if len(got) != len(want) {
			t.Fatalf("id %d: %d sets, want %d (got %v)", paperID, len(got), len(want), got)
		}
		for i, ws := range want {
			if len(got[i]) != len(ws) {
				t.Fatalf("id %d set %d: %v, want %v", paperID, i, got[i], ws)
			}
			for j, id := range ws {
				if got[i][j] != int32(id-1) {
					t.Fatalf("id %d set %d: %v, want %v", paperID, i, got[i], ws)
				}
			}
		}
	}
}

func TestMRCTDeduplication(t *testing.T) {
	// A tight loop repeats the same conflict window; the global table must
	// stay small while multiplicities account for every occurrence.
	addrs := make([]uint32, 0, 300)
	for i := 0; i < 100; i++ {
		addrs = append(addrs, 0, 1, 2)
	}
	s := trace.Strip(trace.FromAddrs(trace.DataRead, addrs))
	m := BuildMRCT(s)
	if m.Occurrences() != 297 {
		t.Fatalf("Occurrences = %d, want 297", m.Occurrences())
	}
	if m.DistinctSets() > 3 {
		t.Fatalf("DistinctSets = %d, want <= 3 for a steady loop", m.DistinctSets())
	}
}

func TestMRCTEmptyAndSingle(t *testing.T) {
	m := BuildMRCT(trace.Strip(trace.New(0)))
	if m.NUnique() != 0 || m.Occurrences() != 0 {
		t.Fatal("empty trace MRCT should be empty")
	}
	m = BuildMRCT(trace.Strip(trace.FromAddrs(trace.DataRead, []uint32{9, 9})))
	// Second 9: conflict set is empty (nothing touched in between).
	sets := m.ConflictSets(0)
	if len(sets) != 1 || len(sets[0]) != 0 {
		t.Fatalf("ConflictSets = %v, want one empty set", sets)
	}
}

// ---- Postlude (Algorithm 3) ----

func TestExplorePaperExample(t *testing.T) {
	r, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 10 || r.NUnique != 5 {
		t.Fatalf("N=%d N'=%d, want 10, 5", r.N, r.NUnique)
	}
	// Depths 1,2,4,8,16 -> 5 levels.
	if len(r.Levels) != 5 {
		t.Fatalf("levels = %d, want 5", len(r.Levels))
	}

	// Hand-computed analytical miss counts for the running example.
	wantMisses := map[int]map[int]int{ // depth -> assoc -> misses
		1:  {1: 5, 2: 5, 3: 5, 4: 2, 5: 0},
		2:  {1: 5, 2: 2, 3: 0},
		4:  {1: 4, 2: 0},
		8:  {1: 4, 2: 0},
		16: {1: 0},
	}
	for depth, byAssoc := range wantMisses {
		l := r.Level(depth)
		if l == nil {
			t.Fatalf("missing level for depth %d", depth)
		}
		for a, want := range byAssoc {
			if got := l.Misses(a); got != want {
				t.Errorf("depth %d assoc %d: misses = %d, want %d", depth, a, got, want)
			}
		}
	}

	// The paper's worked statement: depth 2 needs A=3 for zero misses.
	if got := r.Level(2).AZero; got != 3 {
		t.Errorf("depth-2 AZero = %d, want 3", got)
	}
	if got := r.Level(1).AZero; got != 5 {
		t.Errorf("depth-1 AZero = %d, want 5", got)
	}
}

func TestExploreOptimalSet(t *testing.T) {
	r, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget K=0: minimal associativity for zero misses per depth.
	got := r.OptimalSet(0)
	want := []Instance{{1, 5}, {2, 3}, {4, 2}, {8, 2}, {16, 1}}
	if len(got) != len(want) {
		t.Fatalf("OptimalSet(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OptimalSet(0) = %v, want %v", got, want)
		}
	}
	// Budget K=2: depth 1 can drop to A=4, depth 2 to A=2.
	got = r.OptimalSet(2)
	want = []Instance{{1, 4}, {2, 2}, {4, 2}, {8, 2}, {16, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OptimalSet(2) = %v, want %v", got, want)
		}
	}
	// Budget >= max misses: everything direct-mapped.
	for _, ins := range r.OptimalSet(5) {
		if ins.Assoc != 1 {
			t.Fatalf("OptimalSet(5) has %v, want all direct-mapped", ins)
		}
	}
}

func TestExploreParetoSet(t *testing.T) {
	r, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At K=0 every optimal instance has zero misses, so only the smallest
	// size survives the (size, misses) dominance filter: (D=1, A=5).
	p := r.ParetoSet(0)
	if len(p) != 1 || p[0] != (Instance{Depth: 1, Assoc: 5}) {
		t.Fatalf("ParetoSet(0) = %v, want [(D=1,A=5)]", p)
	}
	// With a looser budget the instances trade size against misses:
	// the frontier must be strictly improving on both axes.
	p = r.ParetoSet(4)
	for i := 1; i < len(p); i++ {
		if p[i].SizeWords() <= p[i-1].SizeWords() {
			t.Fatalf("ParetoSet sizes not increasing: %v", p)
		}
		mi := r.Level(p[i].Depth).Misses(p[i].Assoc)
		mp := r.Level(p[i-1].Depth).Misses(p[i-1].Assoc)
		if mi >= mp {
			t.Fatalf("ParetoSet misses not decreasing: %v", p)
		}
	}
}

func TestExploreMaxDepthOption(t *testing.T) {
	r, err := Explore(context.Background(), paperex.Trace(), Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Levels) != 3 { // depths 1, 2, 4
		t.Fatalf("levels = %d, want 3", len(r.Levels))
	}
	if r.Level(8) != nil {
		t.Fatal("Level(8) should be nil with MaxDepth=4")
	}
}

func TestExploreBadMaxDepth(t *testing.T) {
	for _, d := range []int{3, -2, 7} {
		if _, err := Explore(context.Background(), paperex.Trace(), Options{MaxDepth: d}); err == nil {
			t.Errorf("MaxDepth=%d accepted, want error", d)
		}
	}
}

func TestExploreEmptyTrace(t *testing.T) {
	r, err := Explore(context.Background(), trace.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Levels) != 1 || r.Levels[0].Depth != 1 {
		t.Fatalf("empty trace levels = %+v", r.Levels)
	}
	if got := r.Levels[0].MinAssoc(0); got != 1 {
		t.Fatalf("MinAssoc = %d, want 1", got)
	}
}

func TestExploreBCATMatchesDFS(t *testing.T) {
	s := stripPaper()
	m := BuildMRCT(s)
	dfs, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mat := bcatReference(s, m)
	if len(dfs.Levels) != len(mat.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(dfs.Levels), len(mat.Levels))
	}
	for i := range dfs.Levels {
		for a := 1; a <= dfs.Levels[i].AZero+1; a++ {
			if dfs.Levels[i].Misses(a) != mat.Levels[i].Misses(a) {
				t.Errorf("depth %d assoc %d: DFS %d != BCAT %d",
					dfs.Levels[i].Depth, a, dfs.Levels[i].Misses(a), mat.Levels[i].Misses(a))
			}
		}
	}
}

func TestLevelResultMinAssoc(t *testing.T) {
	l := &LevelResult{Depth: 4, Hist: []int{10, 3, 2, 1}} // misses: A1=6, A2=3, A3=1, A4=0
	cases := []struct{ k, want int }{
		{0, 4}, {1, 3}, {2, 3}, {3, 2}, {5, 2}, {6, 1}, {100, 1}, {-1, 4},
	}
	for _, c := range cases {
		if got := l.MinAssoc(c.k); got != c.want {
			t.Errorf("MinAssoc(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestLevelResultMissesPanics(t *testing.T) {
	l := &LevelResult{Depth: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("Misses(0) did not panic")
		}
	}()
	l.Misses(0)
}

func TestResultLevelLookup(t *testing.T) {
	r, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Level(3) != nil || r.Level(0) != nil || r.Level(-4) != nil {
		t.Error("Level should reject non-power-of-two or out-of-range depths")
	}
	if r.Level(1) == nil || r.Level(16) == nil {
		t.Error("Level(1) and Level(16) should exist")
	}
}

func TestInstanceHelpers(t *testing.T) {
	i := Instance{Depth: 256, Assoc: 2}
	if i.SizeWords() != 512 {
		t.Errorf("SizeWords = %d, want 512", i.SizeWords())
	}
	if i.String() != "(D=256,A=2)" {
		t.Errorf("String = %q", i.String())
	}
}

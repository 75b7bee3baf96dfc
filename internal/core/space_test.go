package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

func TestParseRoundTrips(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyFIFO, PolicyRandom, PolicyPLRU} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, tech := range []Technology{TechSRAM, TechNVMHybrid} {
		got, err := ParseTechnology(tech.String())
		if err != nil || got != tech {
			t.Errorf("ParseTechnology(%q) = %v, %v", tech.String(), got, err)
		}
	}
	for _, topo := range []Topology{TopoUnified, TopoSplit, TopoSplitL2} {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo.String(), got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy accepted mru")
	}
	if _, err := ParseTechnology("dram"); err == nil {
		t.Error("ParseTechnology accepted dram")
	}
	if _, err := ParseTopology("ring"); err == nil {
		t.Error("ParseTopology accepted ring")
	}
}

func TestSpaceValidateAndKey(t *testing.T) {
	var zero Space
	if err := zero.Validate(); err != nil {
		t.Errorf("zero Space invalid: %v", err)
	}
	if err := DefaultSpace().Validate(); err != nil {
		t.Errorf("DefaultSpace invalid: %v", err)
	}
	bad := []Space{
		{L1: LevelSpace{MaxDepth: 3}},
		{L1: LevelSpace{MaxAssoc: -1}},
		{L1: LevelSpace{LineWords: []int{3}}},
		{Topology: TopoSplitL2, L2: LevelSpace{MaxDepth: 6}},
		{Topology: Topology(9)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad space %d validated", i)
		}
	}
	// The key is canonical over normalization: a zero space and its
	// explicit default spell the same key.
	explicit := Space{L1: LevelSpace{
		MaxDepth: 64, MaxAssoc: 8, LineWords: []int{1},
		Policies: []Policy{PolicyLRU}, Technologies: []Technology{TechSRAM},
	}}
	if zero.Key() != explicit.Key() {
		t.Errorf("Key not canonical: %q vs %q", zero.Key(), explicit.Key())
	}
	if DefaultSpace().Key() == zero.Key() {
		t.Error("DefaultSpace key collides with the zero space")
	}
}

// TestFrontInvariant drives Front.Add with random points and checks the
// two guarantees the evaluator leans on: no kept point dominates another,
// and the emitted order is deterministic.
func TestFrontInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(i int) Point {
		return Point{
			Levels:   []LevelConfig{{Level: "L1", Depth: 1 << uint(i%8), Assoc: 1 + i%4, LineWords: 1}},
			Misses:   rng.Intn(20),
			EnergyPJ: float64(rng.Intn(10)) * 1.5,
			AreaUM2:  float64(rng.Intn(10)) * 100,
		}
	}
	var f Front
	pts := make([]Point, 120)
	for i := range pts {
		pts[i] = mk(i)
		f.Add(pts[i])
	}
	got := f.Points()
	for i, p := range got {
		for j, q := range got {
			if i != j && p.Dominates(q) {
				t.Fatalf("front point %v dominates kept point %v", p, q)
			}
		}
	}
	// Insertion order must not matter: re-add in reverse.
	var g Front
	for i := len(pts) - 1; i >= 0; i-- {
		g.Add(pts[i])
	}
	want := g.Points()
	if len(got) != len(want) {
		t.Fatalf("front size depends on insertion order: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].Misses != want[i].Misses {
			t.Fatalf("front order depends on insertion order at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestAlphaThreshold(t *testing.T) {
	// Hist tail: misses(1)=100, misses(2)=10, misses(3)=1, misses(4)=0.
	l := &LevelResult{Depth: 8, Hist: []int{0, 90, 9, 1}, AZero: 4}
	// Full axis: floor 0, range 100. 2% of range admits misses(3)=1.
	if got := AlphaThreshold(l, 8, 0.02); got != 3 {
		t.Errorf("AlphaThreshold(eps=0.02) = %d, want 3", got)
	}
	// 15% of range admits misses(2)=10.
	if got := AlphaThreshold(l, 8, 0.15); got != 2 {
		t.Errorf("AlphaThreshold(eps=0.15) = %d, want 2", got)
	}
	// Near-zero slack demands the full curve.
	if got := AlphaThreshold(l, 8, 1e-9); got != 4 {
		t.Errorf("AlphaThreshold(eps~0) = %d, want AZero", got)
	}
	// A capped axis renormalizes: floor = misses(2) = 10, range 90, so
	// 2% slack (budget 11) is already met at a=2.
	if got := AlphaThreshold(l, 2, 0.02); got != 2 {
		t.Errorf("AlphaThreshold(maxAssoc=2) = %d, want 2", got)
	}
	clean := &LevelResult{Depth: 8, Hist: []int{5}, AZero: 1}
	if got := AlphaThreshold(clean, 8, 0.01); got != 1 {
		t.Errorf("AlphaThreshold(no misses) = %d, want 1", got)
	}
}

// TestExplorePolicyMatchesProfileShape pins the non-LRU branch of
// Explore: MissByAssoc levels, prune accounting, and the option errors.
func TestExplorePolicyMatchesProfileShape(t *testing.T) {
	tr := trace.New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(1 << 10)), Kind: trace.DataRead})
	}
	ctx := context.Background()
	r, err := Explore(ctx, tr, Options{MaxDepth: 32, Policy: PolicyFIFO, MaxAssoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Prune == nil {
		t.Fatal("non-LRU result has no Prune stats")
	}
	if r.Prune.Candidates != len(r.Levels)*4 {
		t.Errorf("Candidates = %d, want %d", r.Prune.Candidates, len(r.Levels)*4)
	}
	if r.Prune.Evaluated+r.Prune.Pruned() != r.Prune.Candidates {
		t.Errorf("prune tally does not partition: %+v", r.Prune)
	}
	lru, err := Explore(ctx, tr, Options{MaxDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r.Levels {
		if l.MissByAssoc == nil {
			t.Fatalf("level %d has no MissByAssoc", i)
		}
		if l.Hist != nil {
			t.Fatalf("level %d carries both representations", i)
		}
		// The α-threshold and A_zero cuts bound the sweep by the LRU
		// profile of the same depth.
		capZero := lru.Levels[i].AZero
		if capZero > 4 {
			capZero = 4
		}
		if len(l.MissByAssoc)-1 > capZero {
			t.Errorf("level %d swept %d assocs, beyond cap %d", i, len(l.MissByAssoc)-1, capZero)
		}
	}

	// A policy run needs the raw trace and exact mode.
	if _, err := Explore(ctx, trace.Strip(tr), Options{Policy: PolicyPLRU}); err == nil {
		t.Error("policy run accepted a Stripped source")
	}
	if _, err := Explore(ctx, tr, Options{Policy: PolicyPLRU, SampleRate: 0.5}); err == nil {
		t.Error("policy run accepted sampled mode")
	}
	if _, err := Explore(ctx, tr, Options{Policy: Policy(9)}); err == nil {
		t.Error("Explore accepted an invalid policy")
	}
}

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/trace"
)

// workersOpt returns opts with the worker count set.
func workersOpt(opts Options, workers int) Options {
	opts.Workers = workers
	return opts
}

// raiseGOMAXPROCS lifts GOMAXPROCS to at least n for the duration of the
// test. Options.Workers clamps to GOMAXPROCS, so on a small CI host a
// test that wants the parallel walk actually exercised (not the one-slice
// walk the clamp would pick) must raise the ceiling first.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func resultsIdentical(a, b *Result) bool {
	if len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		la, lb := a.Levels[i], b.Levels[i]
		if la.Depth != lb.Depth || la.AZero != lb.AZero {
			return false
		}
		hi := la.AZero
		if lb.AZero > hi {
			hi = lb.AZero
		}
		for d := 1; d <= hi+1; d++ {
			if la.Misses(d) != lb.Misses(d) {
				return false
			}
		}
	}
	return true
}

func TestExploreParallelPaperExample(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	seq, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		par, err := Explore(context.Background(), paperex.Trace(), workersOpt(Options{}, workers))
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seq, par) {
			t.Fatalf("workers=%d: parallel result differs", workers)
		}
	}
}

func TestExploreParallelDegenerate(t *testing.T) {
	// Empty and single-reference traces take the one-slice walk.
	for _, tr := range []*trace.Trace{
		trace.New(0),
		trace.FromAddrs(trace.DataRead, []uint32{7, 7, 7}),
	} {
		seq, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Explore(context.Background(), tr, workersOpt(Options{}, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seq, par) {
			t.Fatal("degenerate parallel result differs")
		}
	}
}

func TestExploreParallelBadOptions(t *testing.T) {
	if _, err := Explore(context.Background(), paperex.Trace(), workersOpt(Options{MaxDepth: 3}, 4)); err == nil {
		t.Fatal("bad MaxDepth accepted")
	}
}

// Property: parallel and sequential exploration agree on random traces for
// every worker count.
func TestQuickParallelMatchesSequential(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	f := func(bs []uint8, workersRaw uint8) bool {
		tr := trace.New(0)
		for _, b := range bs {
			tr.Append(trace.Ref{Addr: uint32(b), Kind: trace.DataRead})
		}
		seq, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		par, err := Explore(context.Background(), tr, workersOpt(Options{}, 1+int(workersRaw%8)))
		if err != nil {
			return false
		}
		return resultsIdentical(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Determinism under scheduling: repeated parallel runs are identical.
func TestExploreParallelDeterministic(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(99))
	tr := trace.New(0)
	for i := 0; i < 5000; i++ {
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(700)), Kind: trace.DataRead})
	}
	first, err := Explore(context.Background(), tr, workersOpt(Options{}, 8))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Explore(context.Background(), tr, workersOpt(Options{}, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(first, again) {
			t.Fatalf("run %d differs", run)
		}
	}
}

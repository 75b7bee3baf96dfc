package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

// fuzzTrace decodes fuzz bytes into a trace: the first byte picks the
// address width (1..12 bits) and a word stride (1..16, so strided layouts
// leave low address bits constant and push conflicts to deep levels);
// each following byte pair is one address. The length is capped so the
// oracles stay fast.
func fuzzTrace(data []byte) *trace.Trace {
	tr := trace.New(0)
	if len(data) == 0 {
		return tr
	}
	width := uint(data[0]%12) + 1
	stride := uint32(data[0]>>4) + 1
	for i := 1; i+1 < len(data) && tr.Len() < 1024; i += 2 {
		a := (uint32(data[i])<<8 | uint32(data[i+1])) & (1<<width - 1)
		tr.Append(trace.Ref{Addr: a * stride, Kind: trace.DataRead})
	}
	return tr
}

// FuzzExploreMatchesOnePass is the differential gate on the service
// engine: on every decoded trace, Explore's full histogram (Hist[0]
// included) equals the Mattson one-pass oracle at every depth and sums to
// N − N', its miss counts and AZero equal the paper engine's at every
// (D, A), one cell agrees with the simulator, the Result is identical at
// every worker count, and a stratified pass under a stratum assignment
// drawn from the input partitions Explore's histograms exactly.
func FuzzExploreMatchesOnePass(f *testing.F) {
	raiseGOMAXPROCS(f, 8)
	f.Add([]byte{})
	f.Add([]byte{0x0f, 0, 1, 0, 2, 0, 1, 0, 3, 0, 2, 0, 1})
	f.Add([]byte{0x3b, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 9, 9, 5, 6})
	f.Fuzz(checkExploreMatchesOnePass)
}

func checkExploreMatchesOnePass(t *testing.T, data []byte) {
	tr := fuzzTrace(data)
	exact, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range exact.Levels {
		p, err := onepass.Run(tr, l.Depth)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(l.Hist, p.Hist) {
			t.Fatalf("depth %d: Hist %v, one-pass %v", l.Depth, l.Hist, p.Hist)
		}
		sum := 0
		for _, c := range l.Hist {
			sum += c
		}
		if sum != exact.N-exact.NUnique {
			t.Fatalf("depth %d: Σ Hist = %d, want N - N' = %d", l.Depth, sum, exact.N-exact.NUnique)
		}
	}
	analytical, err := ExploreAnalytical(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMissProfiles(exact, analytical); d != "" {
		t.Fatalf("stack distance vs paper engine: %s", d)
	}
	for i, l := range exact.Levels {
		for a := 1; a <= l.AZero+1; a++ {
			if l.Misses(a) != analytical.Levels[i].Misses(a) {
				t.Fatalf("(D=%d, A=%d): %d misses, paper engine %d", l.Depth, a, l.Misses(a), analytical.Levels[i].Misses(a))
			}
		}
	}
	if len(data) > 0 {
		depth := 1 << (int(data[0]) % len(exact.Levels))
		assoc := 1 + int(data[len(data)-1]%4)
		sim, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := exact.Level(depth).Misses(assoc); got != sim.Misses {
			t.Fatalf("(D=%d, A=%d): %d misses, simulated %d", depth, assoc, got, sim.Misses)
		}
	}
	for _, w := range []int{1, 2, 3, 8} {
		par, err := Explore(context.Background(), tr, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, exact) {
			t.Fatalf("workers=%d: %s", w, diffResults(exact, par))
		}
	}
	checkStrataPartition(t, data, exact)
}

// checkStrataPartition runs the stratified pass under a stratum
// assignment drawn from data and requires it to partition exact, the
// trace's Explore Result: at every depth the strata's histograms sum,
// bucket by bucket, to exact's, and each stratum's mass is its
// identifiers' re-occurrence count.
func checkStrataPartition(t *testing.T, data []byte, exact *Result) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	s := trace.Strip(fuzzTrace(data))
	n := 1 + int(data[len(data)-1])%3
	stratum := make([]uint8, s.NUnique())
	for id := range stratum {
		stratum[id] = data[id%len(data)] % uint8(n)
	}
	reuse := make([]int, n)
	for _, id := range s.IDs {
		reuse[stratum[id]]++
	}
	for _, k := range stratum {
		reuse[k]-- // each identifier's first reference is cold
	}
	rs, err := runStrata(context.Background(), s, Options{Workers: 3}, &Scratch{}, stratum, n)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range exact.Levels {
		sum := make([]int, len(want.Hist))
		for k, r := range rs {
			mass := 0
			for d, c := range r.Levels[l].Hist {
				if d >= len(sum) {
					t.Fatalf("depth %d: stratum %d has Hist[%d] = %d past Explore's %v", want.Depth, k, d, c, want.Hist)
				}
				sum[d] += c
				mass += c
			}
			if mass != reuse[k] {
				t.Fatalf("depth %d: stratum %d holds %d re-occurrences, want %d", want.Depth, k, mass, reuse[k])
			}
		}
		if !slices.Equal(sum, want.Hist) {
			t.Fatalf("depth %d: strata sum to %v, Explore %v", want.Depth, sum, want.Hist)
		}
	}
}

// On the paper's own workload the service engine must reproduce the paper
// engine's miss profile exactly — every d >= 1 bucket and AZero on all 24
// PowerStone instruction and data traces — while its own histogram
// accounts for every non-cold reference at every depth.
func TestExploreMatchesAnalyticalPowerStone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 benchmark kernels")
	}
	for _, name := range powerstone.Names() {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			t.Fatal(err)
		}
		for stream, tr := range map[string]*trace.Trace{"instr": res.Instr, "data": res.Data} {
			t.Run(name+"/"+stream, func(t *testing.T) {
				exact, err := Explore(context.Background(), tr, Options{})
				if err != nil {
					t.Fatal(err)
				}
				analytical, err := ExploreAnalytical(context.Background(), tr, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffMissProfiles(exact, analytical); d != "" {
					t.Fatal(d)
				}
				for _, l := range exact.Levels {
					sum := 0
					for _, c := range l.Hist {
						sum += c
					}
					if sum != exact.N-exact.NUnique {
						t.Fatalf("depth %d: Σ Hist = %d, want N - N' = %d", l.Depth, sum, exact.N-exact.NUnique)
					}
				}
			})
		}
	}
}

// tripCtx is a context whose Err turns to context.Canceled from its
// (after+1)-th call on, so a test can cancel at an exact check inside the
// engine. Safe for the parallel engine's concurrent checks.
type tripCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// Cancelling inside a level's pass abandons it at the next amortised
// check with the typed context error, and Explore returns no Result.
func TestExploreCancelMidLevel(t *testing.T) {
	tr := bigTrace(20_000, 1<<10)
	s := trace.Strip(tr)
	sc := &Scratch{}
	sc.orderByLowBits(s)
	ctx := &tripCtx{Context: context.Background(), after: 1}
	w := &stackWorker{}
	if _, err := w.level(ctx, s, sc.order, nil, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("level pass: err = %v, want context.Canceled", err)
	}
	if got := ctx.calls.Load(); got != 2 {
		t.Fatalf("level pass consulted ctx %d times, want 2: it must stop at the first check past reference 0", got)
	}
	for _, workers := range []int{1, 4} {
		// Explore and runStackDist each check once before the passes and
		// a level checks at its first reference, so the fourth check —
		// 4096 references into a level — is the first to see the cancel.
		ctx := &tripCtx{Context: context.Background(), after: 3}
		r, err := Explore(ctx, tr, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) || r != nil {
			t.Fatalf("workers=%d: (%v, %v), want (nil, context.Canceled)", workers, r, err)
		}
	}
}

// A hand-built Stripped whose identifiers are not numbered in
// first-appearance order, or name an address it does not hold, fails
// with a typed error instead of corrupting the stacks — also in a
// stratified pass, whose per-identifier strata must not be indexed by an
// identifier the pass has not validated.
func TestExploreRejectsMisnumberedStripped(t *testing.T) {
	for _, c := range []struct {
		name     string
		s        *trace.Stripped
		stratify bool
	}{
		{"out-of-order", &trace.Stripped{Unique: []uint32{1, 2}, IDs: []int{1, 0, 1}}, false},
		{"unknown-id", &trace.Stripped{Unique: []uint32{4, 6}, IDs: []int{0, 1, 2, 0}}, false},
		{"out-of-order/stratified", &trace.Stripped{Unique: []uint32{1, 2}, IDs: []int{1, 0, 1}}, true},
		{"unknown-id/stratified", &trace.Stripped{Unique: []uint32{4, 6}, IDs: []int{0, 1, 2, 0}}, true},
	} {
		var err error
		if c.stratify {
			_, err = runStrata(context.Background(), c.s, Options{}, &Scratch{}, []uint8{stratumCert, stratumSampled}, postludeStrata)
		} else {
			_, err = Explore(context.Background(), Prelude{Stripped: c.s}, Options{})
		}
		if !errors.Is(err, errStripOrder) {
			t.Errorf("%s: err = %v, want errStripOrder", c.name, err)
		}
	}
}

// The paper engine serves serial exact LRU only: a policy, sampling or
// parallel request is an error, not a silently exact or serial answer.
func TestExploreAnalyticalRejectsNonLRU(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 1})
	for _, opts := range []Options{{Policy: PolicyFIFO}, {SampleRate: 0.5}, {Workers: 2}, {Workers: -1}} {
		if _, err := ExploreAnalytical(context.Background(), tr, opts); err == nil {
			t.Errorf("ExploreAnalytical accepted %+v", opts)
		}
	}
}

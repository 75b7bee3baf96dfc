package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

// scratchTestTrace builds a mid-sized mixed trace whose exploration
// exercises every pooled structure: dedup chains, sparse and packed
// conflict sets, multi-level DFS pairs.
func scratchTestTrace(seed int64, n, unique int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(unique)) * 4, Kind: trace.Kind(i % 3)})
	}
	return tr
}

// The steady-state allocation gate: once the shared pool is warm, Explore
// must allocate only the Result envelope it hands to the caller — a few
// dozen objects — not per-reference or per-set garbage. The bound is
// deliberately loose (the measured value is ~25) so it trips on a pooling
// regression, not on envelope-shape tweaks.
func TestAllocsSteadyStateExplore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := scratchTestTrace(7, 20000, 300)
	run := func() {
		if _, err := Explore(context.Background(), tr, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	// A GC between runs may drop pooled scratch (sync.Pool semantics) and
	// charge a full rebuild to one unlucky run; pause collection so the
	// gate measures the steady state it claims to.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, run)
	const maxAllocs = 200
	if allocs > maxAllocs {
		t.Fatalf("steady-state Explore allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// Streaming explores carry no length hint; they must still converge onto
// warm scratch rather than re-growing a fresh Scratch every call.
func TestAllocsSteadyStateExploreStream(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := scratchTestTrace(11, 20000, 300)
	run := func() {
		if _, err := Explore(context.Background(), trace.RefReader(trace.NewReader(tr)), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, run)
	// The stream path additionally allocates its reader adapter per run.
	const maxAllocs = 250
	if allocs > maxAllocs {
		t.Fatalf("steady-state streaming Explore allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// Warm pooled runs must be bit-identical to the cold first run and to the
// materialised-BCAT reference: reused arenas and freelists may never leak
// state between explorations.
func TestPooledRunsBitIdentical(t *testing.T) {
	tr := scratchTestTrace(13, 8000, 200)
	cold, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		warm, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(cold, warm) {
			t.Fatalf("warm pooled run %d differs from cold run", run)
		}
	}
	s := trace.Strip(tr)
	if !resultsIdentical(cold, bcatReference(s, BuildMRCT(s))) {
		t.Fatal("pooled DFS differs from the BCAT reference")
	}
	// Interleave a differently-shaped trace through the same pool, then
	// re-run the original: a stale-arena read would surface here.
	if _, err := Explore(context.Background(), scratchTestTrace(17, 500, 40), Options{}); err != nil {
		t.Fatal(err)
	}
	again, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, again) {
		t.Fatal("pooled run differs after interleaved exploration")
	}
}

// ScratchPool churn under concurrency: many goroutines explore distinct
// traces through the shared pool simultaneously. Primarily a -race
// target — any sharing of live scratch between two explorations is a
// detected race — but the result checks also catch value corruption in
// non-race runs.
func TestScratchPoolConcurrentChurn(t *testing.T) {
	const goroutines = 8
	const iters = 6
	type job struct {
		tr   *trace.Trace
		want *Result
	}
	jobs := make([]job, goroutines)
	for g := range jobs {
		tr := scratchTestTrace(int64(100+g), 2000+g*311, 60+g*13)
		want, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[g] = job{tr: tr, want: want}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(j job, g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := Explore(context.Background(), j.tr, Options{})
				if err != nil {
					errs <- err
					return
				}
				if !resultsIdentical(j.want, got) {
					errs <- fmt.Errorf("goroutine %d iter %d: result corrupted under churn", g, i)
					return
				}
			}
		}(jobs[g], g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The pool serves hint-less requests (streaming sources) from whatever
// warm scratch exists and files returns under the largest dimension the
// scratch has served, so alternating sized and streaming explorations
// share one scratch instead of ping-ponging two.
func TestScratchPoolHintRouting(t *testing.T) {
	var p ScratchPool
	sc := p.Get(100_000)
	sc.note(100_000)
	p.Put(sc)
	if got := p.Get(0); got != sc {
		t.Fatal("hint-0 Get did not find the warm scratch")
	}
	p.Put(sc)
	if got := p.Get(50_000); got != sc {
		t.Fatal("smaller-hint Get did not find the larger warm scratch")
	}
	p.Put(sc)
	// A scratch that only ever served small jobs is not handed to a
	// much larger request's class... but larger requests scan upward from
	// their own class, so a small scratch is simply not found.
	small := p.Get(1 << 30)
	if small == sc {
		t.Fatal("warm scratch from a lower class served a much larger hint")
	}
}

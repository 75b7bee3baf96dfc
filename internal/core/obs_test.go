package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/obs/profiler"
	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/trace"
)

// obsTestTrace builds a conflict-heavy random trace for span assertions.
func obsTestTrace(n int, space uint32) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Ref{Addr: rng.Uint32() % space, Kind: trace.DataRead})
	}
	return tr
}

// spansByName indexes an exported trace for lookup assertions.
func spansByName(tr obs.Trace) map[string][]obs.SpanRecord {
	m := make(map[string][]obs.SpanRecord)
	for _, s := range tr.Spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

// TestExploreContextRecordsPhaseSpans locks the engine's phase hook
// contract: one strip, one mrct and one postlude span per run, the mrct
// span carrying the dedup telemetry and the postlude span one aggregate
// "level" child per cache level whose refs equal the non-cold occurrence
// count (every occurrence lands in exactly one row set per level).
func TestExploreContextRecordsPhaseSpans(t *testing.T) {
	tr := obsTestTrace(4_000, 1<<7)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := Explore(ctx, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := spansByName(rec.Export())
	for _, want := range []string{"strip", "mrct", "postlude"} {
		if len(byName[want]) != 1 {
			t.Fatalf("%d %q spans, want 1 (have %v)", len(byName[want]), want, byName)
		}
	}
	s := trace.Strip(tr)
	m := BuildMRCT(s)

	mrctAttrs := byName["mrct"][0].Attrs
	if got := mrctAttrs["n"]; got != s.N() {
		t.Errorf("mrct span n = %v, want %d", got, s.N())
	}
	if got := mrctAttrs["n_unique"]; got != s.NUnique() {
		t.Errorf("mrct span n_unique = %v, want %d", got, s.NUnique())
	}
	if got := mrctAttrs["dedup_hit_rate"]; got != m.DedupHitRate() {
		t.Errorf("mrct span dedup_hit_rate = %v, want %v", got, m.DedupHitRate())
	}
	if got := mrctAttrs["occurrences"]; got != m.Occurrences() {
		t.Errorf("mrct span occurrences = %v, want %d", got, m.Occurrences())
	}

	post := byName["postlude"][0]
	if got := post.Attrs["algorithm"]; got != "dfs" {
		t.Errorf("postlude algorithm = %v, want dfs", got)
	}
	levels := byName["level"]
	if len(levels) != len(r.Levels) {
		t.Fatalf("%d level spans, want %d", len(levels), len(r.Levels))
	}
	occ := m.Occurrences()
	for _, lv := range levels {
		if lv.Parent != post.ID {
			t.Errorf("level span parented to %d, want postlude %d", lv.Parent, post.ID)
		}
		if got := lv.Attrs["refs"]; got != occ {
			t.Errorf("level %v refs = %v, want %d", lv.Attrs["depth"], got, occ)
		}
		if agg, _ := lv.Attrs["aggregate"].(bool); !agg {
			t.Errorf("level span not marked aggregate: %v", lv.Attrs)
		}
	}
}

// TestExploreParallelPostludeSpan checks the parallel walk's telemetry:
// no "split" phase, one postlude span carrying the slice count, and
// per-level children whose rows and refs equal the serial run's — every
// worker walks the same tree, and each occurrence is folded by exactly
// one slice. Level time is work summed across the workers, so refs/sec
// is a per-core rate.
func TestExploreParallelPostludeSpan(t *testing.T) {
	raiseGOMAXPROCS(t, 4)
	tr := obsTestTrace(4_000, 1<<9)
	record := func(workers int) map[string][]obs.SpanRecord {
		rec := obs.NewRecorder(0)
		if _, err := Explore(obs.WithRecorder(context.Background(), rec), tr, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return spansByName(rec.Export())
	}
	serial, par := record(1), record(4)
	if n := len(par["split"]); n != 0 {
		t.Fatalf("%d split spans, want none", n)
	}
	if len(par["postlude"]) != 1 {
		t.Fatalf("%d postlude spans, want 1", len(par["postlude"]))
	}
	s := trace.Strip(tr)
	wantWorkers := len(partitionIDs(BuildMRCT(s), s.NUnique(), 4, nil)) - 1
	if wantWorkers < 2 {
		t.Fatalf("test trace splits into %d slice(s); it must exercise the parallel walk", wantWorkers)
	}
	if got := par["postlude"][0].Attrs["workers"]; got != wantWorkers {
		t.Errorf("postlude workers = %v, want %d", got, wantWorkers)
	}
	if got := serial["postlude"][0].Attrs["workers"]; got != 1 {
		t.Errorf("serial postlude workers = %v, want 1", got)
	}
	sl, pl := serial["level"], par["level"]
	if len(pl) != len(sl) {
		t.Fatalf("%d parallel level spans, want %d", len(pl), len(sl))
	}
	sumRefs := func(levels []obs.SpanRecord) int {
		total := 0
		for _, lv := range levels {
			total += lv.Attrs["refs"].(int)
		}
		return total
	}
	if got, want := sumRefs(pl), sumRefs(sl); got != want {
		t.Errorf("parallel level refs sum to %d, serial to %d", got, want)
	}
	for i, lv := range pl {
		if lv.Parent != par["postlude"][0].ID {
			t.Errorf("level span parented to %d, want postlude", lv.Parent)
		}
		for _, key := range []string{"depth", "refs", "rows"} {
			if lv.Attrs[key] != sl[i].Attrs[key] {
				t.Errorf("level %d %s = %v, serial %v", i, key, lv.Attrs[key], sl[i].Attrs[key])
			}
		}
		if _, ok := lv.Attrs["refs_per_sec"]; !ok && lv.Attrs["refs"].(int) > 0 {
			t.Errorf("parallel level span %v lacks refs_per_sec", lv.Attrs)
		}
	}
}

// TestExploreSameResultWithRecorder guards against instrumentation ever
// perturbing the answer: the histograms must be bit-identical with and
// without a recorder installed, sequential and parallel.
func TestExploreSameResultWithRecorder(t *testing.T) {
	tr := paperex.Trace()
	plain, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
	traced, err := Explore(ctx, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(plain, traced) {
		t.Fatal("recorded sequential exploration differs from plain run")
	}
	tracedPar, err := Explore(ctx, tr, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(plain, tracedPar) {
		t.Fatal("recorded parallel exploration differs from plain run")
	}
}

// BenchmarkExploreObs measures the phase-hook overhead on the full
// exploration: "off" runs with no recorder on the context (the production
// default — every StartSpan is one context lookup returning nil), "on"
// records the full span tree. The acceptance bar is "off" within 2% of
// the pre-instrumentation baseline; compare BENCH_core.json snapshots.
func BenchmarkExploreObs(b *testing.B) {
	tr := obsTestTrace(20_000, 1<<9)
	s := trace.Strip(tr)
	m := BuildMRCT(s)
	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// "on+profiler" adds the continuous profiler on top of full span
	// recording — the worst-case production configuration. The interval
	// is compressed so captures actually overlap the measurement window,
	// but the duty cycle (CPU sampling ~8% of the time) matches the
	// production default of 5s every 60s; per-capture fixed costs are
	// therefore overstated here relative to a real 60s interval. The
	// acceptance bar is within 2% of "off".
	b.Run("on+profiler", func(b *testing.B) {
		p, err := profiler.New(profiler.Config{
			Dir:         b.TempDir(),
			Interval:    1 * time.Second,
			CPUDuration: 80 * time.Millisecond,
			MaxPerKind:  4,
		})
		if err != nil {
			b.Fatal(err)
		}
		p.Start()
		defer p.Stop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

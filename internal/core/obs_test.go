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

// TestExploreContextRecordsPhaseSpans locks the service engine's phase
// hook contract: one strip and one postlude span per run and no conflict
// table, the postlude span naming the stack-distance algorithm and
// carrying one "level" child per cache level whose refs equal the
// non-cold occurrence count N − N' (every occurrence lands in exactly one
// bucket per level) and whose steps sum to the span's.
func TestExploreContextRecordsPhaseSpans(t *testing.T) {
	tr := obsTestTrace(4_000, 1<<7)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := Explore(ctx, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := spansByName(rec.Export())
	for _, want := range []string{"strip", "postlude"} {
		if len(byName[want]) != 1 {
			t.Fatalf("%d %q spans, want 1 (have %v)", len(byName[want]), want, byName)
		}
	}
	if n := len(byName["mrct"]); n != 0 {
		t.Fatalf("%d mrct spans; the service engine builds no conflict table", n)
	}
	post := byName["postlude"][0]
	if got := post.Attrs["algorithm"]; got != "stackdist" {
		t.Errorf("postlude algorithm = %v, want stackdist", got)
	}
	levels := byName["level"]
	if len(levels) != len(r.Levels) {
		t.Fatalf("%d level spans, want %d", len(levels), len(r.Levels))
	}
	reuse := r.N - r.NUnique
	steps := 0
	for _, lv := range levels {
		if lv.Parent != post.ID {
			t.Errorf("level span parented to %d, want postlude %d", lv.Parent, post.ID)
		}
		if got := lv.Attrs["refs"]; got != reuse {
			t.Errorf("level %v refs = %v, want N - N' = %d", lv.Attrs["depth"], got, reuse)
		}
		n, ok := lv.Attrs["steps"].(int)
		if !ok {
			t.Fatalf("level span lacks an int steps counter: %v", lv.Attrs)
		}
		steps += n
	}
	if got := post.Attrs["steps"]; got != steps || steps == 0 {
		t.Errorf("postlude steps = %v, level steps sum to %d (want equal and non-zero)", got, steps)
	}
}

// TestExploreAnalyticalRecordsPhaseSpans locks the paper engine's phase
// hook contract: one strip, one mrct and one postlude span per run, the
// mrct span carrying the dedup telemetry and the postlude span one
// aggregate "level" child per cache level whose refs equal the non-cold
// occurrence count (every occurrence lands in exactly one row set per
// level).
func TestExploreAnalyticalRecordsPhaseSpans(t *testing.T) {
	tr := obsTestTrace(4_000, 1<<7)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := ExploreAnalytical(ctx, tr, Options{})
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

// TestExploreParallelPostludeSpan checks the parallel engine's telemetry.
// The stack-distance engine runs one depth per worker: its postlude span
// carries the worker count and its per-level refs and steps equal the
// serial run's.
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
	if got := par["postlude"][0].Attrs["workers"]; got != 4 {
		t.Errorf("stackdist postlude workers = %v, want 4", got)
	}
	if got := serial["postlude"][0].Attrs["workers"]; got != 1 {
		t.Errorf("serial stackdist postlude workers = %v, want 1", got)
	}
	if len(par["level"]) != len(serial["level"]) {
		t.Fatalf("%d parallel level spans, want %d", len(par["level"]), len(serial["level"]))
	}
	for i, lv := range par["level"] {
		for _, key := range []string{"depth", "refs", "steps"} {
			if lv.Attrs[key] != serial["level"][i].Attrs[key] {
				t.Errorf("stackdist level %d %s = %v, serial %v", i, key, lv.Attrs[key], serial["level"][i].Attrs[key])
			}
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

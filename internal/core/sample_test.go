package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// zipfTrace builds the deterministic zipfian workload the sampling
// property tests run on; the tests disable the MinUnique floor to
// exercise the literal requested rates.
func zipfTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return tracegen.Zipf(rand.New(rand.NewSource(7)), 0x1000, 20000, 200000, 1.2)
}

// A rate-1 run, and a run whose rate the s_min floor raises to exact,
// must be bit-identical to the exact engine, Hist[0] included. The small
// strided trace's deep levels hold single-identifier rows — the levels
// the exact engine answers without a pass — and the stream source takes
// the thinning sampler's degenerate path.
func TestSampleRateOneBitIdentical(t *testing.T) {
	strided := trace.New(0)
	for rep := 0; rep < 30; rep++ {
		for i := uint32(0); i < 24; i++ {
			strided.Append(trace.Ref{Addr: 0x40 + i*12, Kind: trace.DataRead})
		}
	}
	cases := []struct {
		name string
		tr   *trace.Trace
		opts Options
	}{
		{"zipf/rate-1", zipfTrace(t), Options{MaxDepth: 256, SampleRate: 1}},
		{"strided/rate-1", strided, Options{SampleRate: 1}},
		{"strided/floored", strided, Options{SampleRate: 0.01}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exactOpts := c.opts
			exactOpts.SampleRate = 0
			exact, err := Explore(context.Background(), c.tr, exactOpts)
			if err != nil {
				t.Fatal(err)
			}
			sources := map[string]Source{"trace": c.tr}
			if c.opts.SampleRate == 1 {
				sources["stream"] = trace.RefReader(trace.NewReader(c.tr))
			}
			for name, src := range sources {
				sampled, err := Explore(context.Background(), src, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if sampled.Sample == nil || !sampled.Sample.Exact() {
					t.Fatalf("%s: estimate not exact: %+v", name, sampled.Sample)
				}
				if sampled.N != exact.N || sampled.NUnique != exact.NUnique {
					t.Fatalf("%s: totals (%d, %d) differ from exact (%d, %d)",
						name, sampled.N, sampled.NUnique, exact.N, exact.NUnique)
				}
				if !reflect.DeepEqual(sampled.Levels, exact.Levels) {
					t.Fatalf("%s: levels are not bit-identical to the exact engine: %s", name, diffResults(exact, sampled))
				}
			}
		})
	}
}

func TestSampleFloorClampsSmallTraceToExact(t *testing.T) {
	// 500 uniques at R=0.01 would keep ~5; the default s_min floor must
	// raise the effective rate — here all the way to exact — keeping the
	// estimate usable on paper-scale traces.
	tr := tracegen.Zipf(rand.New(rand.NewSource(3)), 0, 500, 5000, 1.1)
	res, err := Explore(context.Background(), tr, Options{MaxDepth: 64, SampleRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample == nil {
		t.Fatal("sampled run returned no estimate")
	}
	if res.Sample.EffectiveRate < 0.5 {
		t.Errorf("effective rate %v; the MinUnique floor should have raised it above 0.5",
			res.Sample.EffectiveRate)
	}
	// And disabling the floor honours the literal rate.
	res, err = Explore(context.Background(), tr, Options{MaxDepth: 64, SampleRate: 0.01, SampleFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.EffectiveRate != 0.01 {
		t.Errorf("floor-disabled effective rate %v, want 0.01", res.Sample.EffectiveRate)
	}
}

func TestSampledTotalsConvergeMonotone(t *testing.T) {
	tr := zipfTrace(t)
	exact, err := Explore(context.Background(), tr, Options{MaxDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	exactMisses := exact.Levels[0].Misses(1)

	rates := []float64{0.05, 0.2, 0.5, 1}
	var lastKept int64 = -1
	var lastWidth = math.Inf(1)
	for _, r := range rates {
		res, err := Explore(context.Background(), tr, Options{MaxDepth: 256, SampleRate: r, SampleFloor: -1})
		if err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
		est := res.Sample

		// Nested thresholds: the kept reference count is monotone in R.
		if est.KeptRefs <= lastKept {
			t.Errorf("rate %v kept %d refs, not more than %d at the lower rate",
				r, est.KeptRefs, lastKept)
		}
		lastKept = est.KeptRefs

		// The scaled depth-1 miss total tracks the exact engine's; the CI
		// half-width is the estimator's own claim about that error.
		got := res.Levels[0].Misses(1)
		lo, hi := est.CI95(0, 1, got)
		if exactMisses < lo || exactMisses > hi {
			relErr := math.Abs(float64(got-exactMisses)) / float64(exactMisses)
			if relErr > 0.05 {
				t.Errorf("rate %v: scaled misses %d vs exact %d (rel err %.3f), CI [%d, %d]",
					r, got, exactMisses, relErr, lo, hi)
			}
		}

		// CI widths must shrink (weakly) as the rate grows.
		width := float64(hi - lo)
		if width > lastWidth {
			t.Errorf("rate %v: CI width %v wider than %v at the lower rate", r, width, lastWidth)
		}
		lastWidth = width

		// Totals are restored to full-trace values at every rate.
		if res.N != tr.Len() {
			t.Errorf("rate %v: N = %d, want %d", r, res.N, tr.Len())
		}
	}
}

func TestSampledDualModes(t *testing.T) {
	// The two source shapes select the two estimator modes: an in-memory
	// trace gets the exact-distance postlude sampler, a blind stream gets
	// the thinning filter. Both must restore full-trace magnitude; the
	// stream mode trades accuracy for its memory bound, so its tolerance
	// is looser.
	tr := zipfTrace(t)
	exact, err := Explore(context.Background(), tr, Options{MaxDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	exactMisses := exact.Levels[0].Misses(1)

	fromTrace, err := Explore(context.Background(), tr, Options{MaxDepth: 128, SampleRate: 0.2, SampleFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fromTrace.Sample.Mode != sampling.ModePostlude {
		t.Errorf("trace source mode = %q, want %q", fromTrace.Sample.Mode, sampling.ModePostlude)
	}
	if fromTrace.Sample.KnownUnique != exact.NUnique {
		t.Errorf("trace source KnownUnique = %d, want %d", fromTrace.Sample.KnownUnique, exact.NUnique)
	}
	if fromTrace.Sample.Stretch != 1 {
		t.Errorf("postlude mode stretch = %v, want 1 (distances are exact)", fromTrace.Sample.Stretch)
	}
	if rel := math.Abs(float64(fromTrace.Levels[0].Misses(1)-exactMisses)) / float64(exactMisses); rel > 0.05 {
		t.Errorf("postlude-sampled depth-1 misses off by %.3f (>5%%)", rel)
	}

	fromReader, err := Explore(context.Background(), trace.RefReader(trace.NewReader(tr)),
		Options{MaxDepth: 128, SampleRate: 0.2, SampleFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fromReader.Sample.Mode != sampling.ModeStream {
		t.Errorf("stream source mode = %q, want %q", fromReader.Sample.Mode, sampling.ModeStream)
	}
	if fromReader.Sample.KnownUnique != 0 {
		t.Errorf("stream source claims KnownUnique = %d", fromReader.Sample.KnownUnique)
	}
	if fromReader.N != tr.Len() {
		t.Errorf("stream source N = %d, want %d", fromReader.N, tr.Len())
	}
	if rel := math.Abs(float64(fromReader.Levels[0].Misses(1)-exactMisses)) / float64(exactMisses); rel > 0.25 {
		t.Errorf("stream-sampled depth-1 misses off by %.3f (>25%%)", rel)
	}
	// Both modes draw the same spatial sample, so the stream's kept total
	// can't exceed the postlude plan's non-certainty stratum plus its
	// certainty refs.
	if fromReader.Sample.KeptRefs+fromReader.Sample.DroppedRefs != fromTrace.Sample.KeptRefs+fromTrace.Sample.DroppedRefs {
		t.Errorf("modes disagree on trace length: %d vs %d",
			fromReader.Sample.KeptRefs+fromReader.Sample.DroppedRefs,
			fromTrace.Sample.KeptRefs+fromTrace.Sample.DroppedRefs)
	}
}

func TestSampledRejectsPreludeAndBadRates(t *testing.T) {
	tr := tracegen.Loop(0, 16, 8)
	s := trace.Strip(tr)
	m := BuildMRCT(s)
	if _, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{SampleRate: 0.5}); err == nil {
		t.Error("sampled exploration accepted a Prelude source")
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		_, err := Explore(context.Background(), tr, Options{SampleRate: bad})
		var er *sampling.ErrRate
		if !errors.As(err, &er) {
			t.Errorf("SampleRate=%v: err = %v, want *sampling.ErrRate", bad, err)
		}
	}
}

func TestSampledExactModeUntouched(t *testing.T) {
	// SampleRate 0 must not attach an estimate — the exact path is
	// byte-identical to an engine without sampling.
	res, err := Explore(context.Background(), tracegen.Loop(0, 16, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample != nil {
		t.Fatal("exact exploration carries a sampling estimate")
	}
}

// Every sampled reference lands in exactly one bucket of its stratum's
// raw histogram at every explored depth, Hist[0] included: in stream mode
// Σ_d RawHist[l][d] = N_s − N'_s, the sampled trace's re-occurrences, and
// in postlude mode the raw and certainty histograms together hold the
// kept identifiers' re-occurrences.
func TestSampledRawHistsConserveMass(t *testing.T) {
	tr := tracegen.Zipf(rand.New(rand.NewSource(5)), 0x1000, 3000, 30000, 1.1)
	opts := Options{SampleRate: 0.2, SampleFloor: -1}
	for name, src := range map[string]Source{
		"stream":   trace.RefReader(trace.NewReader(tr)),
		"postlude": tr,
	} {
		res, err := Explore(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		est := res.Sample
		if est.Exact() || len(est.RawHist) == 0 {
			t.Fatalf("%s: the run was not sampled: %+v", name, est)
		}
		want := int(est.KeptRefs) - est.KeptUnique
		for l, raw := range est.RawHist {
			mass := 0
			for _, c := range raw {
				mass += c
			}
			if l < len(est.CertHist) {
				for _, c := range est.CertHist[l] {
					mass += c
				}
			}
			if mass != want {
				t.Errorf("%s: depth %d holds %d sampled re-occurrences, want KeptRefs − KeptUnique = %d", name, 1<<l, mass, want)
			}
		}
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
// the exact engine answers without a pass.
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
			sampled, err := Explore(context.Background(), c.tr, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Sample == nil || !sampled.Sample.Exact() {
				t.Fatalf("estimate not exact: %+v", sampled.Sample)
			}
			if sampled.N != exact.N || sampled.NUnique != exact.NUnique {
				t.Fatalf("totals (%d, %d) differ from exact (%d, %d)",
					sampled.N, sampled.NUnique, exact.N, exact.NUnique)
			}
			if !reflect.DeepEqual(sampled.Levels, exact.Levels) {
				t.Fatalf("levels are not bit-identical to the exact engine: %s", diffResults(exact, sampled))
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

// A reference stream is not a Source: every LRU entry point, exact or
// sampled, rejects it with an error naming its type.
func TestExploreRejectsRefReader(t *testing.T) {
	var packed bytes.Buffer
	if err := trace.WriteCTZ1(&packed, tracegen.Loop(0, 16, 8)); err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name   string
		engine func(context.Context, Source, Options) (*Result, error)
		opts   Options
	}{
		{"exact", Explore, Options{}},
		{"sampled", Explore, Options{SampleRate: 0.5}},
		{"analytical", ExploreAnalytical, Options{}},
	}
	for _, e := range engines {
		dec, err := trace.NewCTZ1Decoder(bytes.NewReader(packed.Bytes()), trace.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.engine(context.Background(), dec, e.opts)
		if err == nil || !strings.Contains(err.Error(), "unsupported Source type *trace.CTZ1Decoder") {
			t.Errorf("%s: err = %v, want an unsupported Source type error", e.name, err)
		}
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

// Every kept reference lands in exactly one bucket of its stratum's
// histogram at every explored depth, Hist[0] included: the raw and
// certainty histograms together hold the kept identifiers'
// re-occurrences.
func TestSampledRawHistsConserveMass(t *testing.T) {
	tr := tracegen.Zipf(rand.New(rand.NewSource(5)), 0x1000, 3000, 30000, 1.1)
	res, err := Explore(context.Background(), tr, Options{SampleRate: 0.2, SampleFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	est := res.Sample
	if est.Exact() || len(est.RawHist) == 0 {
		t.Fatalf("the run was not sampled: %+v", est)
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
			t.Errorf("depth %d holds %d kept re-occurrences, want KeptRefs − KeptUnique = %d", 1<<l, mass, want)
		}
	}
}

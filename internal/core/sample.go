package core

import (
	"context"
	"fmt"
	"math"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// exploreSampled is the approximate twin of Explore (postlude sampling,
// sampling.ModePostlude). It runs the stack-distance engine over a
// *trace.Trace: every reference of the stripped trace moves the per-set
// stacks, so every distance is exact, but only the certainty and
// spatially-sampled identifiers' re-occurrences are counted, one
// histogram per stratum in the same pass; the sampled mass is rescaled.
// The pass costs about one exact explore, so sampling buys an error bar
// on a sample, not time. Only a *trace.Trace source is accepted.
func exploreSampled(ctx context.Context, src Source, opts Options) (*Result, error) {
	cfg := sampling.Config{Rate: opts.SampleRate, MinUnique: opts.SampleFloor}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := faultinject.Hit("core.sample"); err != nil {
		return nil, err
	}
	sc := sharedScratch.Get(scratchHint(src))
	defer sharedScratch.Put(sc)
	switch v := src.(type) {
	case *trace.Trace:
		if v == nil {
			return nil, fmt.Errorf("core: Explore given a nil *trace.Trace")
		}
		return explorePostludeSampled(ctx, v, cfg, opts, sc)
	case Prelude:
		return nil, fmt.Errorf("core: sampled exploration needs a raw reference source, not a pre-built Prelude")
	case nil:
		return nil, fmt.Errorf("core: Explore given a nil Source")
	default:
		return nil, fmt.Errorf("core: unsupported Source type %T for sampled exploration (want *trace.Trace)", src)
	}
}

// Postlude-mode strata of runStrata: a dropped identifier's
// re-occurrences are counted nowhere, a certainty identifier's enter the
// result unscaled, a sampled identifier's are mass-scaled.
const (
	stratumDropped = iota
	stratumCert
	stratumSampled
	postludeStrata
)

// explorePostludeSampled runs one stack-distance pass over the whole
// stripped trace, stratified so that heavy addresses — whose
// all-or-nothing inclusion would dominate the estimator's variance — are
// certainty units while the flat remainder is hash-sampled.
func explorePostludeSampled(ctx context.Context, tr *trace.Trace, cfg sampling.Config, opts Options, sc *Scratch) (*Result, error) {
	s := stripWithSpan(ctx, tr, sc)
	eff := cfg.EffectiveRate(s.NUnique())
	const seed = sampling.DefaultSeed

	// Per-identifier non-cold occurrence masses drive the stratum plan.
	cnt := make([]int, s.NUnique())
	for _, id := range s.IDs {
		cnt[id]++
	}
	mass := make([]int, len(cnt))
	for id, c := range cnt {
		mass[id] = c - 1
	}

	est := &sampling.Estimate{
		RequestedRate: cfg.Rate,
		EffectiveRate: eff,
		Seed:          seed,
		KnownUnique:   s.NUnique(),
	}

	if eff >= 1 {
		// Degenerate exact run: Explore's own engine, so the Result is
		// bit-identical to the exact path, with the estimate attached so
		// callers still see rate/CI metadata (all zero-width).
		res, err := runStackDist(ctx, s, opts, sc)
		if err != nil {
			return nil, err
		}
		est.KeptRefs = int64(s.N())
		est.KeptUnique = s.NUnique()
		est.CertUnique = s.NUnique()
		est.CalibratePostlude(0, 0)
		est.Scale = 1
		est.CertHist = rawHists(res)
		res.Sample = est
		return res, nil
	}

	cert, sampRate := sampling.PlanStrata(mass, eff*float64(s.NUnique()))
	threshold := sampling.Threshold(sampRate)
	stratum := make([]uint8, s.NUnique())
	certUnique, keptUnique := 0, 0
	certMass, sampMass := 0, 0
	var keptRefs int64
	for id := range stratum {
		switch {
		case cert[id]:
			stratum[id] = stratumCert
			certUnique++
			certMass += mass[id]
		case sampRate > 0 && sampling.Keep(s.Addr(id), seed, threshold):
			stratum[id] = stratumSampled
			sampMass += mass[id]
		default:
			continue
		}
		keptUnique++
		keptRefs += int64(cnt[id])
	}
	est.KeptRefs = keptRefs
	est.DroppedRefs = int64(s.N()) - keptRefs
	est.KeptUnique = keptUnique
	est.CertUnique = certUnique

	_, span := obs.StartSpan(ctx, "sample")
	if span != nil {
		span.SetAttr("mode", sampling.ModePostlude)
		span.SetAttr("requested_rate", cfg.Rate)
		span.SetAttr("effective_rate", eff)
		span.SetAttr("sampled_rate", sampRate)
		span.SetAttr("kept", keptRefs)
		span.SetAttr("dropped", int64(s.N())-keptRefs)
		span.SetAttr("kept_unique", keptUnique)
		span.SetAttr("cert_unique", certUnique)
		span.End()
	}

	rs, err := runStrata(ctx, s, opts, sc, stratum, postludeStrata)
	if err != nil {
		return nil, err
	}
	if certUnique > 0 {
		est.CertHist = rawHists(rs[stratumCert])
	}
	est.RawHist = rawHists(rs[stratumSampled])
	est.CalibratePostlude(certMass, sampMass)

	r := &Result{
		Levels:  make([]*LevelResult, len(rs[stratumSampled].Levels)),
		N:       s.N(),
		NUnique: s.NUnique(),
		Sample:  est,
	}
	for i := range r.Levels {
		r.Levels[i] = &LevelResult{Depth: 1 << uint(i), Hist: roundHist(est.RescaleLevel(i))}
	}
	finalize(r)
	return r, nil
}

// rawHists snapshots a result's per-level histograms for the estimate.
func rawHists(r *Result) [][]int {
	out := make([][]int, len(r.Levels))
	for i, l := range r.Levels {
		out[i] = append([]int(nil), l.Hist...)
	}
	return out
}

func roundHist(f []float64) []int {
	h := make([]int, len(f))
	for d, v := range f {
		h[d] = int(math.Round(v))
	}
	return h
}

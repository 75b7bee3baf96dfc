// Package sampling implements SHARDS-style spatial hash sampling for the
// analytical exploration engine: a stratum plan that keeps an address iff
// a 64-bit mix of it falls under a threshold T = R·2^64 (heavy addresses
// are kept with certainty), plus the estimator that rescales the kept
// addresses' per-depth stack-distance histograms back to full-trace miss
// counts with a quantified standard error.
//
// Spatial (address-hash) sampling is the key property: either every
// occurrence of an address is counted or none is. The engine still moves
// every reference through its stacks, so each counted distance is exact
// and only occurrence mass shrinks by ~R. The estimator scales it back
// with the SHARDS-adj correction: the scale is calibrated against the
// measured kept/dropped totals rather than the nominal rate, which
// removes the systematic bias of the fixed-rate estimator on small
// samples (Waldspurger et al., "Efficient MRC Construction with SHARDS",
// FAST'15; see PAPERS.md survey).
//
// Because hash thresholds nest (T(R1) <= T(R2) for R1 <= R2 under the
// same seed), the kept address set at a lower rate is always a subset of
// the kept set at a higher rate — the monotonicity the property tests
// pin.
package sampling

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSeed is the address hash's seed. Any fixed value works; one
// seed keeps CLI, server and tests deterministic and lets result caches
// key on the rate alone.
const DefaultSeed = 0x9e3779b97f4a7c15

// DefaultMinUnique is the default floor on the expected number of sampled
// unique references — SHARDS's s_min guard, at SHARDS's own default of
// 8K. The estimator's per-cell error scales with 1/sqrt(kept unique
// references), not with the rate: a workload with few distinct addresses
// cannot be sampled accurately at any rate, because dropping even one
// address moves a visible fraction of the histogram. The floor therefore
// raises the effective rate (up to 1.0, i.e. exact) whenever R·N' would
// fall under s_min, which is what bounds the error near 1%: paper-scale
// traces — tens to a few thousand unique references — are explored
// exactly, and sampling engages only where it is statistically sound.
// Callers that want the literal fixed-rate estimator (benchmarking, or
// error/rate trade-off studies) disable the floor with a negative
// MinUnique.
const DefaultMinUnique = 8192

// ConfidenceLevel is the confidence level of the intervals the estimator
// reports.
const ConfidenceLevel = 0.95

// z95 is the two-sided 95% normal quantile used for the intervals.
const z95 = 1.959963984540054

// Config parameterises one sampled exploration.
type Config struct {
	// Rate is the requested spatial sampling rate in (0, 1]. 1 keeps
	// every reference (the sampled path degenerates to the exact engine).
	Rate float64
	// MinUnique floors the expected sampled unique-reference count: when
	// Rate·N' < MinUnique the effective rate rises to MinUnique/N'
	// (clamped to 1). Zero uses DefaultMinUnique; negative disables the
	// floor (the literal fixed-rate estimator).
	MinUnique int
}

// ErrRate reports a sampling rate outside (0, 1]. Callers surface it as a
// typed API error (the server's invalid_sample_rate code).
type ErrRate struct{ Rate float64 }

func (e *ErrRate) Error() string {
	return fmt.Sprintf("sampling: rate %v outside (0, 1]", e.Rate)
}

// Validate checks the configured rate.
func (c Config) Validate() error {
	if math.IsNaN(c.Rate) || c.Rate <= 0 || c.Rate > 1 {
		return &ErrRate{Rate: c.Rate}
	}
	return nil
}

// FloorValue resolves the zero-means-default unique floor; negative
// disables it (returns 0).
func (c Config) FloorValue() int {
	if c.MinUnique == 0 {
		return DefaultMinUnique
	}
	if c.MinUnique < 0 {
		return 0
	}
	return c.MinUnique
}

// EffectiveRate resolves the rate actually used given the trace's
// unique-reference count (0 when unknown): the
// requested rate raised to meet the MinUnique floor, clamped to 1.
func (c Config) EffectiveRate(knownUnique int) float64 {
	r := c.Rate
	if floor := c.FloorValue(); floor > 0 && knownUnique > 0 {
		if r*float64(knownUnique) < float64(floor) {
			r = float64(floor) / float64(knownUnique)
		}
	}
	if r > 1 {
		r = 1
	}
	return r
}

// PlanStrata computes the two-stratum sampling plan for the postlude
// estimator from per-identifier non-cold occurrence masses and a target
// expected number of kept identifiers: heavy identifiers whose mass
// makes their all-or-nothing inclusion dominate the estimator's variance
// become certainty units (always kept, weight 1), and the remainder is
// spatially sampled at a uniform rate sized to spend the rest of the
// budget. The split is the waterfilling solution of
// inclusion-probability-proportional-to-size sampling (π_i = min(1,
// λ·m_i) with Σπ = target), binarised to one uniform rate for the
// non-certainty stratum so the engine's integer histograms stay
// weight-free. For flat mass distributions — loop traces, where every
// address repeats about equally — the certainty stratum is empty and the
// plan degenerates to plain spatial sampling at target/len(mass).
func PlanStrata(mass []int, target float64) (cert []bool, rate float64) {
	n := len(mass)
	cert = make([]bool, n)
	if n == 0 {
		return cert, 0
	}
	if target >= float64(n) {
		for i := range cert {
			cert[i] = true
		}
		return cert, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return mass[order[a]] > mass[order[b]] })
	restMass := 0.0
	for _, m := range mass {
		restMass += float64(m)
	}
	k := 0
	for k < n && float64(k) < target {
		m := float64(mass[order[k]])
		if m <= 0 || restMass <= 0 {
			break
		}
		// λ for the current split is (target−k)/restMass; the heaviest
		// remaining id is a certainty unit iff λ·m ≥ 1.
		if m*(target-float64(k)) < restMass {
			break
		}
		cert[order[k]] = true
		restMass -= m
		k++
	}
	if k >= n {
		return cert, 0
	}
	rate = (target - float64(k)) / float64(n-k)
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return cert, rate
}

// Threshold converts a rate to the 64-bit keep threshold T = R·2^64. A
// hash is kept when hash < T; rate 1 maps to the largest threshold (one
// cannot represent 2^64), and callers plan rate-1 runs as exact.
func Threshold(rate float64) uint64 {
	if rate >= 1 {
		return math.MaxUint64
	}
	if rate <= 0 {
		return 0
	}
	f := rate * 0x1p64
	if f >= 0x1p64 {
		return math.MaxUint64
	}
	return uint64(f)
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-distributed 64-bit mix (three multiplies and shifts), the hash
// SHARDS-style samplers conventionally use over block addresses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Keep reports whether addr falls in the sample at the given threshold
// and seed.
func Keep(addr uint32, seed, threshold uint64) bool {
	return splitmix64(uint64(addr)^seed) < threshold
}

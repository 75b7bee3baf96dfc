package sampling

import "math"

// ModePostlude is the estimator's mode name, reported in Estimate.Mode and
// API responses.
const ModePostlude = "postlude"

// Estimate carries everything the rescaled exploration result needs to
// explain itself: the rates actually used, the measured kept/dropped
// totals the SHARDS-adj correction was calibrated from, and the raw
// (sampled-space) per-level histograms that standard errors are derived
// from. It is attached to core.Result, persisted with cached results and
// serialized into API responses, so every field is exported with a stable
// JSON name.
//
// The estimator samples which addresses' re-occurrences the engine
// counts while every reference of the full trace still moves its stacks:
// conflict distances are exact, only occurrence mass is scaled, and
// intervals are plain Horvitz-Thompson.
type Estimate struct {
	// Mode records which estimator produced the result (ModePostlude).
	Mode string `json:"mode"`
	// RequestedRate is the rate the caller asked for.
	RequestedRate float64 `json:"requested_rate"`
	// EffectiveRate is the rate actually applied after the MinUnique
	// floor; 1 means the sampled path degenerated to exact.
	EffectiveRate float64 `json:"effective_rate"`
	// Seed is the address hash's seed.
	Seed uint64 `json:"seed"`
	// KeptRefs / DroppedRefs count the references of kept and dropped
	// addresses; their sum is the true trace length N.
	KeptRefs    int64 `json:"kept_refs"`
	DroppedRefs int64 `json:"dropped_refs"`
	// KeptUnique counts the kept addresses, certainty stratum included.
	KeptUnique int `json:"kept_unique"`
	// KnownUnique is the full trace's unique-reference count N'.
	KnownUnique int `json:"known_unique,omitempty"`
	// Scale is the occurrence-mass multiplier w applied to the sampled
	// stratum's histogram bins (the SHARDS-adj correction); 1 when exact.
	Scale float64 `json:"scale"`
	// RawHist holds, per explored level, the sampled-stratum conflict
	// histogram before rescaling — the counts the standard errors come
	// from.
	RawHist [][]int `json:"raw_hist,omitempty"`
	// CertUnique counts the certainty-stratum identifiers: addresses
	// heavy enough that the estimator always keeps them (weight 1, zero
	// variance contribution).
	CertUnique int `json:"cert_unique,omitempty"`
	// CertHist holds the certainty stratum's per-level histograms; they
	// enter the rescaled result unscaled.
	CertHist [][]int `json:"cert_hist,omitempty"`
}

// CalibratePostlude sets Mode and fills Scale: the ratio of the sampled
// stratum's true non-cold mass — the full trace's N − N' minus the
// certainty stratum's — to its measured kept mass. This is the
// SHARDS-adj rule of calibrating against measured totals rather than the
// nominal rate, applied per stratum (the certainty stratum needs no scale
// at all).
func (e *Estimate) CalibratePostlude(certMass, sampledMass int) {
	e.Mode = ModePostlude
	stratumTrue := e.KeptRefs + e.DroppedRefs - int64(e.KnownUnique) - int64(certMass)
	switch {
	case sampledMass > 0 && stratumTrue > 0:
		e.Scale = float64(stratumTrue) / float64(sampledMass)
	case e.EffectiveRate > 0:
		e.Scale = 1 / e.EffectiveRate
	default:
		e.Scale = 1
	}
	if e.Scale < 1 {
		e.Scale = 1
	}
}

// RescaleLevel produces one level's full-magnitude histogram: the
// certainty stratum's histogram enters unscaled, the sampled stratum's
// is mass-scaled (RescaleHist).
func (e *Estimate) RescaleLevel(level int) []float64 {
	var cert, samp []int
	if level < len(e.CertHist) {
		cert = e.CertHist[level]
	}
	if level < len(e.RawHist) {
		samp = e.RawHist[level]
	}
	f := e.RescaleHist(samp)
	if len(cert) > len(f) {
		g := make([]float64, len(cert))
		copy(g, f)
		f = g
	}
	for d, c := range cert {
		f[d] += float64(c)
	}
	return f
}

// Exact reports whether the estimate is degenerate: every reference was
// kept, so the result is the exact engine's answer and all intervals are
// zero-width.
func (e *Estimate) Exact() bool {
	return e.DroppedRefs == 0 && e.Scale <= 1
}

// RescaleHist maps one level's sampled histogram to full-trace
// magnitude: src trimmed to its last non-zero bin (one bin when it holds
// no mass), each bin multiplied by Scale.
func (e *Estimate) RescaleHist(src []int) []float64 {
	last := 0
	for k, c := range src {
		if c > 0 {
			last = k
		}
	}
	f := make([]float64, last+1)
	for k := range f {
		if c := src[k]; c > 0 {
			f[k] = float64(c) * e.Scale
		}
	}
	return f
}

// SE returns the standard error of the scaled miss count for
// (level, assoc). Each kept occurrence is a Horvitz-Thompson draw with
// inclusion probability 1/Scale, so its variance contribution is
// Scale·(Scale−1) and the tail's variance sums them; exact runs report
// zero. The derivation treats occurrences as independent, which
// understates clustering within an address — DESIGN.md §10 discusses the
// approximation.
func (e *Estimate) SE(level, assoc int) float64 {
	if e.Scale <= 1 || level < 0 || level >= len(e.RawHist) {
		return 0
	}
	w := e.Scale
	v := 0.0
	for k, n := range e.RawHist[level] {
		if n > 0 && k >= assoc {
			v += float64(n) * w * (w - 1)
		}
	}
	return math.Sqrt(v)
}

// CI95 returns the two-sided 95% confidence bounds around a scaled miss
// count, clamped at zero.
func (e *Estimate) CI95(level, assoc, scaledMisses int) (lo, hi int) {
	se := e.SE(level, assoc)
	if se == 0 {
		return scaledMisses, scaledMisses
	}
	delta := z95 * se
	lo = int(math.Floor(float64(scaledMisses) - delta))
	if lo < 0 {
		lo = 0
	}
	hi = int(math.Ceil(float64(scaledMisses) + delta))
	return lo, hi
}

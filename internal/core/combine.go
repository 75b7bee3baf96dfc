package core

import "fmt"

// Combine merges explorations of several application traces into one
// Result whose miss counts describe a cache shared by the applications
// under time multiplexing with a flush at every switch — the usual
// worst-case provisioning model for multi-application SoCs.
//
// Exactness: with a flush between applications, each application's
// non-cold misses are exactly what it incurs in isolation (its first touch
// of every line after the switch is a cold miss by the paper's definition
// of unavoidable misses, and no foreign lines remain to perturb LRU
// order). Non-cold miss histograms therefore add level-wise, and
// MinAssoc(K) on the combined Result sizes one cache for the whole
// application set against a global budget K.
//
// All inputs must have been explored with the same MaxDepth option so
// their level ranges line up; the result spans the smallest common range.
func Combine(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("core: Combine needs at least one result")
	}
	minLevels := len(results[0].Levels)
	for _, r := range results[1:] {
		if len(r.Levels) < minLevels {
			minLevels = len(r.Levels)
		}
	}
	out := &Result{}
	out.Levels = make([]*LevelResult, minLevels)
	for i := range out.Levels {
		out.Levels[i] = &LevelResult{Depth: 1 << uint(i)}
	}
	for _, r := range results {
		out.N += r.N
		out.NUnique += r.NUnique
		for i := 0; i < minLevels; i++ {
			mergeHist(out.Levels[i], r.Levels[i].Hist)
		}
	}
	finalize(out)
	return out, nil
}

// mergeHist adds src into dst.Hist, growing as needed.
func mergeHist(dst *LevelResult, src []int) {
	if len(src) > len(dst.Hist) {
		grown := make([]int, len(src))
		copy(grown, dst.Hist)
		dst.Hist = grown
	}
	for d, c := range src {
		dst.Hist[d] += c
	}
}

package core

import (
	"context"
	"fmt"

	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
)

// explorePolicy is the non-LRU branch of Explore: an exact LRU
// exploration first profiles every depth, the α-threshold (Bender et
// al.) and A_zero cuts bound the associativity axis per depth, and the
// one-pass estimator sweeps the surviving cells — one trace pass per
// depth covering all of 1..cap at once. The cuts are recorded in
// Result.Prune.
func explorePolicy(ctx context.Context, src Source, opts Options) (*Result, error) {
	t, ok := src.(*trace.Trace)
	if !ok {
		return nil, fmt.Errorf("core: policy %s needs a *trace.Trace source, got %T (the one-pass estimator replays raw references)", opts.Policy, src)
	}
	if opts.SampleRate != 0 {
		return nil, fmt.Errorf("core: policy %s does not support sampled mode", opts.Policy)
	}
	var repl onepass.ReplPolicy
	switch opts.Policy {
	case PolicyFIFO:
		repl = onepass.ReplFIFO
	case PolicyRandom:
		repl = onepass.ReplRandom
	case PolicyPLRU:
		repl = onepass.ReplPLRU
	default:
		return nil, fmt.Errorf("core: invalid policy %d", uint8(opts.Policy))
	}
	maxAssoc := opts.MaxAssoc
	if maxAssoc == 0 {
		maxAssoc = DefaultMaxAssoc
	}
	if maxAssoc < 1 {
		return nil, fmt.Errorf("core: MaxAssoc %d < 1", opts.MaxAssoc)
	}

	lruOpts := opts
	lruOpts.Policy = PolicyLRU
	lruOpts.MaxAssoc = 0
	lru, err := Explore(ctx, t, lruOpts)
	if err != nil {
		return nil, err
	}

	prune := &PruneStats{}
	out := &Result{
		Levels:  make([]*LevelResult, len(lru.Levels)),
		NUnique: lru.NUnique,
		N:       lru.N,
		Prune:   prune,
	}
	for i, ll := range lru.Levels {
		prune.Candidates += maxAssoc
		capZero := ll.AZero
		if capZero > maxAssoc {
			capZero = maxAssoc
		}
		capEval := AlphaThreshold(ll, maxAssoc, DefaultAlphaEps)
		if capEval > capZero {
			capEval = capZero
		}
		// Past A_zero LRU already achieves zero non-cold misses at no
		// greater cost, so any policy there is dominated; between the
		// α-threshold and A_zero the LRU profile is within eps of its
		// floor and the axis is cut analytically.
		prune.PrunedDominated += maxAssoc - capZero
		prune.PrunedThreshold += capZero - capEval
		prune.Evaluated += capEval
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sw, err := onepass.PolicySweep(t, ll.Depth, capEval, 1, repl)
		if err != nil {
			return nil, err
		}
		lr := &LevelResult{Depth: ll.Depth, MissByAssoc: sw.MissByAssoc}
		lr.AZero = len(lr.MissByAssoc)
		for a := 1; a < len(lr.MissByAssoc); a++ {
			if lr.MissByAssoc[a] == 0 {
				lr.AZero = a
				break
			}
		}
		out.Levels[i] = lr
	}
	return out, nil
}

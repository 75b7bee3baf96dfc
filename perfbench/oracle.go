package main

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// The answer check. Every response the benchmark receives is compared,
// after the timed region, with what Mattson's one-pass stack-distance
// algorithm (internal/onepass) gives for the same trace. That oracle
// shares no code with the analytical engine, the simulator or the
// service, so agreement means the service's answers are right.

// oracle holds one trace's ground truth: its statistics and the LRU
// stack-distance profile of every explored depth.
type oracle struct {
	digest    string
	n         int
	nUnique   int
	maxMisses int
	prof      []*onepass.Profile // prof[i] profiles depth 2^i
}

// newOracle profiles t at every power-of-two depth the service explores
// by default: 1 .. 2^AddrBits, where each unique address has its own row.
func newOracle(t *trace.Trace, digest string) (*oracle, error) {
	prof, err := onepass.Sweep(t, 1<<t.AddrBits())
	if err != nil {
		return nil, err
	}
	return &oracle{
		digest:  digest,
		n:       t.Len(),
		nUnique: prof[0].Cold, // every distinct address misses cold exactly once
		// A one-slot cache misses on every reference that does not repeat
		// its predecessor: that is the trace's maximum non-cold miss count.
		maxMisses: prof[0].Misses(1),
		prof:      prof,
	}, nil
}

func (o *oracle) level(depth int) (*onepass.Profile, error) {
	if depth < 1 || depth&(depth-1) != 0 || bits.TrailingZeros(uint(depth)) >= len(o.prof) {
		return nil, fmt.Errorf("depth %d outside the oracle's range 1..%d", depth, 1<<(len(o.prof)-1))
	}
	return o.prof[bits.TrailingZeros(uint(depth))], nil
}

// budget applies the service's documented K rule: an absolute k wins,
// otherwise kpct percent of the trace's maximum misses, truncated.
func (o *oracle) budget(k *int, kpct *float64) int {
	if k != nil {
		return *k
	}
	return int(float64(o.maxMisses) * *kpct / 100)
}

// optimal is the paper's answer for budget k: per depth, the smallest
// associativity whose miss count is within k.
func (o *oracle) optimal(k int) []client.Instance {
	out := make([]client.Instance, len(o.prof))
	for i, p := range o.prof {
		a := p.MinAssoc(k)
		out[i] = client.Instance{Depth: p.Depth, Assoc: a, SizeWords: p.Depth * a, Misses: p.Misses(a)}
	}
	return out
}

// paretoFront filters instances to the (size, misses) frontier: ascending
// size, keeping an instance only if it misses strictly less than every
// smaller one.
func paretoFront(all []client.Instance) []client.Instance {
	s := append([]client.Instance(nil), all...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].SizeWords != s[j].SizeWords {
			return s[i].SizeWords < s[j].SizeWords
		}
		return s[i].Misses < s[j].Misses
	})
	var out []client.Instance
	for _, ins := range s {
		if len(out) > 0 && ins.Misses >= out[len(out)-1].Misses {
			continue
		}
		out = append(out, ins)
	}
	return out
}

func (o *oracle) checkInfo(got client.TraceInfo) error {
	if got.Digest != o.digest || got.N != o.n || got.NUnique != o.nUnique || got.MaxMisses != o.maxMisses {
		return fmt.Errorf("trace info %s N=%d N'=%d max=%d, oracle %s N=%d N'=%d max=%d",
			got.Digest, got.N, got.NUnique, got.MaxMisses, o.digest, o.n, o.nUnique, o.maxMisses)
	}
	return nil
}

// exploreAnswer is the part of an explore response the check needs; the
// rendered table is dropped to keep recorded answers small.
type exploreAnswer struct {
	Trace     string
	K         int
	MaxMisses int
	Instances []client.Instance
	Cached    bool
}

func compactExplore(r client.ExploreResponse) exploreAnswer {
	return exploreAnswer{Trace: r.Trace, K: r.K, MaxMisses: r.MaxMisses, Instances: r.Instances, Cached: r.Cached}
}

// checkExplore compares an explore answer with the oracle under the same
// K rule, and under the Pareto rule when pareto was requested. Pareto
// ties (equal size and misses) may break either way, so a Pareto answer
// must consist of oracle-optimal instances whose (size, misses) sequence
// equals the oracle's frontier.
func (o *oracle) checkExplore(got exploreAnswer, k *int, kpct *float64, pareto bool) error {
	wantK := o.budget(k, kpct)
	if got.Trace != o.digest || got.K != wantK || got.MaxMisses != o.maxMisses {
		return fmt.Errorf("explore header trace=%s K=%d max=%d, oracle trace=%s K=%d max=%d",
			got.Trace, got.K, got.MaxMisses, o.digest, wantK, o.maxMisses)
	}
	opt := o.optimal(wantK)
	want := opt
	if pareto {
		want = paretoFront(opt)
	}
	if len(got.Instances) != len(want) {
		return fmt.Errorf("explore K=%d pareto=%v: %d instances, oracle %d", wantK, pareto, len(got.Instances), len(want))
	}
	for i, g := range got.Instances {
		w := want[i]
		if pareto {
			if g.SizeWords != w.SizeWords || g.Misses != w.Misses {
				return fmt.Errorf("explore K=%d pareto: point %d is (size %d, misses %d), oracle (size %d, misses %d)",
					wantK, i, g.SizeWords, g.Misses, w.SizeWords, w.Misses)
			}
			lvl := bits.TrailingZeros(uint(g.Depth))
			if g.Depth < 1 || lvl >= len(opt) {
				return fmt.Errorf("explore K=%d pareto: depth %d outside the explored range", wantK, g.Depth)
			}
			w = opt[lvl]
		}
		if g != w {
			return fmt.Errorf("explore K=%d: instance %+v, oracle %+v", wantK, g, w)
		}
	}
	return nil
}

func (o *oracle) checkSimulate(got client.SimulateResponse, depth, assoc int) error {
	p, err := o.level(depth)
	if err != nil {
		return err
	}
	misses := p.Misses(assoc)
	if got.Trace != o.digest || got.Accesses != o.n || got.ColdMisses != p.Cold ||
		got.Misses != misses || got.Hits != o.n-p.Cold-misses {
		return fmt.Errorf("simulate D=%d A=%d: accesses=%d cold=%d misses=%d hits=%d, oracle %d/%d/%d/%d",
			depth, assoc, got.Accesses, got.ColdMisses, got.Misses, got.Hits, o.n, p.Cold, misses, o.n-p.Cold-misses)
	}
	return nil
}

func (o *oracle) checkVerify(got client.VerifyResponse, k int, instances []client.VerifyInstance) error {
	want := true
	for _, ins := range instances {
		p, err := o.level(ins.Depth)
		if err != nil {
			return err
		}
		if p.Misses(ins.Assoc) > k {
			want = false
		}
	}
	if got.Trace != o.digest || got.K != k || got.OK != want {
		return fmt.Errorf("verify K=%d %v: ok=%v, oracle ok=%v", k, instances, got.OK, want)
	}
	return nil
}

package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

// pinHash folds integers and float bit patterns into one FNV-1a digest.
type pinHash struct{ h hash.Hash64 }

func newPinHash() *pinHash { return &pinHash{h: fnv.New64a()} }

func (p *pinHash) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	p.h.Write(b[:])
}

func (p *pinHash) float(v float64) { p.int(int64(math.Float64bits(v))) }

func (p *pinHash) str(s string) {
	p.int(int64(len(s)))
	p.h.Write([]byte(s))
}

func (p *pinHash) hists(hs [][]int) {
	p.int(int64(len(hs)))
	for _, h := range hs {
		p.int(int64(len(h)))
		for _, c := range h {
			p.int(int64(c))
		}
	}
}

func (p *pinHash) sum() string { return fmt.Sprintf("%016x", p.h.Sum64()) }

// postludePin is the four digests TestSampledPostludePinned compares:
// the rescaled histograms with N and N', every Estimate field, the SE
// and CI95 of every (level, assoc) cell, and every level's AZero.
type postludePin struct{ hist, estimate, interval, azero string }

func pinPostlude(r *Result) postludePin {
	hist := newPinHash()
	hist.int(int64(r.N))
	hist.int(int64(r.NUnique))
	azero := newPinHash()
	for _, l := range r.Levels {
		hist.int(int64(l.Depth))
		hist.hists([][]int{l.Hist})
		azero.int(int64(l.AZero))
	}

	e := r.Sample
	est := newPinHash()
	est.str(e.Mode)
	est.float(e.RequestedRate)
	est.float(e.EffectiveRate)
	est.int(int64(e.Seed))
	est.int(e.KeptRefs)
	est.int(e.DroppedRefs)
	est.int(int64(e.KeptUnique))
	est.int(int64(e.KnownUnique))
	est.float(e.Scale)
	est.hists(e.RawHist)
	est.int(int64(e.CertUnique))
	est.hists(e.CertHist)

	iv := newPinHash()
	for lvl, l := range r.Levels {
		for assoc := 1; assoc <= len(l.Hist)+1; assoc++ {
			misses := l.Misses(assoc)
			lo, hi := e.CI95(lvl, assoc, misses)
			iv.float(e.SE(lvl, assoc))
			iv.int(int64(lo))
			iv.int(int64(hi))
		}
	}
	return postludePin{hist: hist.sum(), estimate: est.sum(), interval: iv.sum(), azero: azero.sum()}
}

// TestSampledPostludePinned pins postlude-mode sampling bit for bit on
// workloads where the estimator genuinely samples (the MinUnique floor
// is off, so no run degenerates to exact): any change to the stratum
// plan, the calibration, the rescaling or the interval arithmetic moves
// at least one digest.
func TestSampledPostludePinned(t *testing.T) {
	g3fax, err := powerstone.Get("g3fax").Run()
	if err != nil {
		t.Fatal(err)
	}
	zipf := zipfTrace(t)
	cases := []struct {
		name string
		tr   *trace.Trace
		rate float64
		want postludePin
	}{
		{"zipf/0.5", zipf, 0.5, postludePin{
			hist: "e7f7e1b577295376", estimate: "f0b0cde5ece7bf50", interval: "1b694284124c48e6", azero: "07d405b79f4515a2"}},
		{"zipf/0.1", zipf, 0.1, postludePin{
			hist: "4d410c07f5f3082c", estimate: "6fadac9e16d04dc7", interval: "fdb2b26e5934c92d", azero: "96a93cc0586b6cf7"}},
		{"g3fax-data/0.1", g3fax.Data, 0.1, postludePin{
			hist: "e1ce24767bd5d1a6", estimate: "bfaeee9ac08baa3e", interval: "95dcd0a9aaaacc9e", azero: "fb541139454ebb64"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Explore(context.Background(), c.tr, Options{SampleRate: c.rate, SampleFloor: -1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sample == nil || res.Sample.Exact() {
				t.Fatalf("run did not sample: %+v", res.Sample)
			}
			if got := pinPostlude(res); got != c.want {
				t.Errorf("postlude digests changed:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

package sampling

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestThresholdRange(t *testing.T) {
	cases := []struct {
		rate float64
		want uint64
	}{
		{0, 0},
		{-0.5, 0},
		{1, math.MaxUint64},
		{1.5, math.MaxUint64},
		{0.5, 1 << 63},
	}
	for _, c := range cases {
		if got := Threshold(c.rate); got != c.want {
			t.Errorf("Threshold(%v) = %#x, want %#x", c.rate, got, c.want)
		}
	}
	// A quarter-rate threshold keeps about a quarter of uniformly mixed
	// hashes; the splitmix64 finalizer is close enough to uniform that
	// 10k sequential addresses land within a few points of it.
	const n = 10000
	kept := 0
	th := Threshold(0.25)
	for a := uint32(0); a < n; a++ {
		if Keep(a, DefaultSeed, th) {
			kept++
		}
	}
	if frac := float64(kept) / n; frac < 0.22 || frac > 0.28 {
		t.Errorf("Threshold(0.25) kept fraction %v, want ~0.25", frac)
	}
}

func TestNestedThresholdsAreSubsets(t *testing.T) {
	// SHARDS monotonicity: under one seed, the kept set at a lower rate
	// must be a subset of the kept set at any higher rate.
	rates := []float64{0.01, 0.1, 0.3, 0.7, 1.0}
	for a := uint32(0); a < 4096; a++ {
		keptBefore := false
		for _, r := range rates {
			k := Keep(a, DefaultSeed, Threshold(r))
			if keptBefore && !k {
				t.Fatalf("addr %d kept at a lower rate but dropped at %v", a, r)
			}
			keptBefore = k
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 1.0001, 2, math.NaN()} {
		err := Config{Rate: bad}.Validate()
		var er *ErrRate
		if !errors.As(err, &er) {
			t.Errorf("Validate(rate=%v) = %v, want *ErrRate", bad, err)
		}
	}
	for _, ok := range []float64{1e-9, 0.01, 0.5, 1} {
		if err := (Config{Rate: ok}).Validate(); err != nil {
			t.Errorf("Validate(rate=%v) = %v, want nil", ok, err)
		}
	}
}

func TestEffectiveRateFloor(t *testing.T) {
	cases := []struct {
		rate   float64
		floor  int
		unique int
		want   float64
	}{
		// 0.01·100 = 1 < default floor 8192 → clamp to exact.
		{0.01, 0, 100, 1},
		// 0.01·100000 = 1000 < 8192 → the floor raises the rate to s_min/N'.
		{0.01, 0, 100000, 8192.0 / 100000},
		// 0.5·100000 = 50000 >= 8192 → requested rate survives.
		{0.5, 0, 100000, 0.5},
		// Explicit floor raises the rate to floor/unique.
		{0.01, 2000, 100000, 0.02}, // 2000/100000
		// Negative floor disables the guard entirely.
		{0.01, -1, 100, 0.01},
		// Unknown unique count: the floor cannot engage.
		{0.01, 0, 0, 0.01},
	}
	for _, c := range cases {
		got := Config{Rate: c.rate, MinUnique: c.floor}.EffectiveRate(c.unique)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("EffectiveRate(rate=%v floor=%d unique=%d) = %v, want %v",
				c.rate, c.floor, c.unique, got, c.want)
		}
	}
}

func TestEstimateExactIdentity(t *testing.T) {
	e := &Estimate{RequestedRate: 1, EffectiveRate: 1, KeptRefs: 100, DroppedRefs: 0, KnownUnique: 10}
	e.CalibratePostlude(0, 90)
	if !e.Exact() {
		t.Fatalf("rate-1 estimate not Exact: %+v", e)
	}
	if e.Scale != 1 {
		t.Errorf("exact estimate scale=%v, want 1", e.Scale)
	}
	e.RawHist = [][]int{{0, 50, 30}}
	if se := e.SE(0, 1); se != 0 {
		t.Errorf("exact SE = %v, want 0", se)
	}
	if lo, hi := e.CI95(0, 1, 80); lo != 80 || hi != 80 {
		t.Errorf("exact CI = [%d, %d], want [80, 80]", lo, hi)
	}
}

func TestEstimateCalibrateSHARDSAdj(t *testing.T) {
	// N = 1000, N' = 100; the certainty stratum holds 300 non-cold
	// occurrences and the kept sampled stratum 60, at an effective rate
	// of 0.1. SHARDS-adj scale = (1000-100-300)/60 = 10 — the stratum's
	// measured true mass over its kept mass, not the nominal 10x.
	e := &Estimate{RequestedRate: 0.1, EffectiveRate: 0.1, KeptRefs: 400, DroppedRefs: 600, KnownUnique: 100}
	e.CalibratePostlude(300, 60)
	if e.Mode != ModePostlude {
		t.Errorf("Mode = %q, want %q", e.Mode, ModePostlude)
	}
	if want := 600.0 / 60.0; math.Abs(e.Scale-want) > 1e-12 {
		t.Errorf("Scale = %v, want %v", e.Scale, want)
	}
	if e.Exact() {
		t.Error("sampled estimate reports Exact")
	}
	// Without a measured kept mass the nominal rate is all there is.
	e.CalibratePostlude(300, 0)
	if e.Scale != 10 {
		t.Errorf("uncalibrated Scale = %v, want 1/rate = 10", e.Scale)
	}
}

func TestEstimateRescaleAndSE(t *testing.T) {
	e := &Estimate{Scale: 2, RawHist: [][]int{{40, 25, 10, 0}}, CertHist: [][]int{{1, 0, 0, 0, 3}}}
	// The sampled histogram is trimmed to its last non-zero bin and
	// scaled; the certainty stratum's bins enter unscaled.
	if got, want := e.RescaleHist(e.RawHist[0]), []float64{80, 50, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("RescaleHist = %v, want %v", got, want)
	}
	if got, want := e.RescaleHist([]int{0, 0}), []float64{0}; !reflect.DeepEqual(got, want) {
		t.Errorf("RescaleHist of an empty level = %v, want %v", got, want)
	}
	if got, want := e.RescaleLevel(0), []float64{81, 50, 20, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("RescaleLevel = %v, want %v", got, want)
	}
	// Each kept occurrence at or above assoc is a Horvitz-Thompson draw
	// of weight 2: assoc 1 sees 35 of them, assoc 2 only the 10.
	if got, want := e.SE(0, 1), math.Sqrt(35*2*1); math.Abs(got-want) > 1e-9 {
		t.Errorf("SE(0,1) = %v, want %v", got, want)
	}
	if got, want := e.SE(0, 2), math.Sqrt(10*2*1); math.Abs(got-want) > 1e-9 {
		t.Errorf("SE(0,2) = %v, want %v", got, want)
	}
	lo, hi := e.CI95(0, 1, 70)
	if lo >= hi || lo < 0 || lo > 70 || hi < 70 {
		t.Errorf("CI95 = [%d, %d] does not bracket 70", lo, hi)
	}
	// Tiny estimates clamp at zero rather than going negative.
	if lo, _ := e.CI95(0, 2, 1); lo != 0 {
		t.Errorf("clamped CI lo = %d, want 0", lo)
	}
}

func TestEstimateCIWidthShrinksWithScale(t *testing.T) {
	width := func(scale float64) int {
		e := &Estimate{Scale: scale, RawHist: [][]int{{0, 1000}}}
		lo, hi := e.CI95(0, 1, int(scale*1000))
		return hi - lo
	}
	// Larger scale (lower rate) → wider interval for the same sampled mass.
	if w1, w2 := width(2), width(10); w1 >= w2 {
		t.Errorf("CI width at scale 2 (%d) not narrower than at scale 10 (%d)", w1, w2)
	}
}

func TestPlanStrataWaterfilling(t *testing.T) {
	// One dominant identifier over a flat field: the heavy id must become
	// a certainty unit and the remainder's rate must spend the rest of the
	// expected-size budget.
	mass := []int{1000, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	cert, rate := PlanStrata(mass, 4)
	if !cert[0] {
		t.Fatal("dominant identifier not a certainty unit")
	}
	for i := 1; i < len(mass); i++ {
		if cert[i] {
			t.Errorf("flat identifier %d promoted to certainty", i)
		}
	}
	// Budget: 1 certainty + rate·9 sampled ≈ 4 expected keeps.
	if want := 3.0 / 9.0; math.Abs(rate-want) > 1e-12 {
		t.Errorf("remainder rate = %v, want %v", rate, want)
	}
}

func TestPlanStrataFlatMassHasNoCertainty(t *testing.T) {
	// A loop trace's masses are all equal: no identifier dominates, so the
	// plan degenerates to plain spatial sampling at target/n.
	mass := make([]int, 100)
	for i := range mass {
		mass[i] = 7
	}
	cert, rate := PlanStrata(mass, 10)
	for i, c := range cert {
		if c {
			t.Fatalf("identifier %d is a certainty unit in a flat plan", i)
		}
	}
	if math.Abs(rate-0.1) > 1e-12 {
		t.Errorf("flat plan rate = %v, want 0.1", rate)
	}
}

func TestPlanStrataDegenerateTargets(t *testing.T) {
	mass := []int{5, 3, 2}
	// Target at or above n keeps everything with certainty.
	cert, rate := PlanStrata(mass, 3)
	for i, c := range cert {
		if !c {
			t.Errorf("target=n: identifier %d not certain", i)
		}
	}
	if rate != 0 {
		t.Errorf("target=n: rate = %v, want 0", rate)
	}
	// Empty input.
	cert, rate = PlanStrata(nil, 1)
	if len(cert) != 0 || rate != 0 {
		t.Errorf("empty plan = (%v, %v)", cert, rate)
	}
	// Steeply skewed: every id's mass clears the waterfilling bar, so all
	// become certain even below target=n.
	cert, _ = PlanStrata([]int{1 << 20, 1 << 10, 1}, 2.5)
	if !cert[0] || !cert[1] {
		t.Errorf("skewed plan certainty = %v, want the two heavy ids certain", cert)
	}
}

func TestPlanStrataExpectedSizeBudget(t *testing.T) {
	// Whatever the split, certainty count plus rate times the remainder
	// must equal the requested expected size.
	masses := [][]int{
		{100, 50, 25, 12, 6, 3, 1, 1, 1, 1, 1, 1},
		{9, 9, 9, 9, 9, 9},
		{1000, 1, 1, 1},
	}
	for _, mass := range masses {
		for _, target := range []float64{1, 2.5, 4, float64(len(mass)) - 0.5} {
			cert, rate := PlanStrata(mass, target)
			k := 0
			for _, c := range cert {
				if c {
					k++
				}
			}
			got := float64(k) + rate*float64(len(mass)-k)
			if math.Abs(got-target) > 1e-9 {
				t.Errorf("mass=%v target=%v: expected size %v (cert=%d rate=%v)",
					mass, target, got, k, rate)
			}
		}
	}
}

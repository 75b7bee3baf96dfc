package server

import (
	"strings"
	"testing"
)

func TestRegistryRendersPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A plain counter.")
	c.Add(3)
	cv := r.CounterVec("test_requests_total", "A labelled counter.", "endpoint", "code")
	cv.With("explore", "200").Inc()
	cv.With("explore", "200").Inc()
	cv.With("explore", "503").Inc()
	r.GaugeFunc("test_depth", "A gauge read at scrape time.", func() float64 { return 7 })
	hv := r.HistogramVec("test_latency_seconds", "A histogram.", []float64{0.1, 1}, "endpoint")
	hv.With("explore").Observe(0.05)
	hv.With("explore").Observe(0.5)
	hv.With("explore").Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP test_total A plain counter.\n# TYPE test_total counter\ntest_total 3\n",
		`test_requests_total{endpoint="explore",code="200"} 2`,
		`test_requests_total{endpoint="explore",code="503"} 1`,
		"# TYPE test_depth gauge\ntest_depth 7\n",
		`test_latency_seconds_bucket{endpoint="explore",le="0.1"} 1`,
		`test_latency_seconds_bucket{endpoint="explore",le="1"} 2`,
		`test_latency_seconds_bucket{endpoint="explore",le="+Inf"} 3`,
		`test_latency_seconds_sum{endpoint="explore"} 5.55`,
		`test_latency_seconds_count{endpoint="explore"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryReusesFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second registration reuses the family")
	if a != b {
		t.Fatal("re-registering a counter produced a distinct series")
	}
	a.Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if got := strings.Count(sb.String(), "# TYPE dup_total"); got != 1 {
		t.Fatalf("family rendered %d times, want 1", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("h", "boundaries", []float64{1, 2}, "l")
	h := hv.With("x")
	h.Observe(1) // exactly on a bound counts as le=1 (le is inclusive)
	h.Observe(2)
	h.Observe(3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`h_bucket{l="x",le="1"} 1`,
		`h_bucket{l="x",le="2"} 2`,
		`h_bucket{l="x",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// Label values are escaped on every instrumented request, so escaping
// must be correct and must not allocate when a value needs no escape.
func TestEscapeLabel(t *testing.T) {
	if got, want := escapeLabel("a\\b\"c\nd"), `a\\b\"c\nd`; got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = escapeLabel("explore") }); n != 0 {
		t.Errorf("escapeLabel allocates %.0f objects on a plain value, want 0", n)
	}
}

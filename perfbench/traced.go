package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/pkg/client"
)

// layerSpans are the replayed calls reported as per-layer self time, in
// milliseconds per traced op.
var layerSpans = []string{
	"core.mrct", "core.postlude",
	"trace.decode", "trace.digest", "trace.stats", "trace.strip", "trace.encode",
	"dse.select", "dse.verify", "cache.simulate",
	"tracestore.put", "tracestore.get",
	"cluster.route", "server.lookup", "server.classify",
}

// endpointOf is the service's metric label for each request kind.
var endpointOf = [nKinds]string{"traces_upload", "explore", "traces_get", "simulate", "verify"}

// runTraced produces the per-layer metrics from three passes over the
// same op sequence, splitting the run time: an untraced HTTP pass (half)
// with /metrics scraped before and after, then two replays of the ops
// through direct layer calls (a quarter each), the first recording
// nothing and the second recording every call as a span. The two
// replays differ only in recording, so their op times give the tracing
// overhead.
func runTraced(w *workload, d time.Duration) (*result, error) {
	var attempts atomic.Int64
	root, err := newStoreRoot("traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	svc, h, preOps, preRes, err := setUp(w, root, &attempts)
	if err != nil {
		return nil, err
	}
	urls := svc.urls()
	before, err := scrape(urls)
	if err != nil {
		h.close()
		svc.stop()
		return nil, err
	}
	a0 := attempts.Load()
	alloc0, gc0 := gcCounters()
	results := loop{n: len(w.ops), d: d / 2, stage: w.stager(),
		do: func(worker, i int) opResult { return h.do(worker, w.ops[i]) }}.run().results
	alloc1, gc1 := gcCounters()
	reqs := attempts.Load() - a0
	after, err := scrape(urls)
	hop := 0.0
	var hopOps []op
	var hopRes []opResult
	if err == nil && w.nodes > 1 {
		hop, hopOps, hopRes, err = measureHop(w, svc)
	}
	h.close()
	svc.stop()
	if err != nil {
		return nil, err
	}

	_, plainRes, err := replayPass(w, d/4, false)
	if err != nil {
		return nil, err
	}
	rp, tracedRes, err := replayPass(w, d/4, true)
	if err != nil {
		return nil, err
	}
	var spans []spanRecord
	for _, s := range rp.tr.spans {
		spans = append(spans, s...)
	}
	if err := writeSpans(w.name, spans); err != nil {
		return nil, err
	}

	c := newChecker(w)
	if failed, errs := c.checkAll(preOps, preRes); failed > 0 {
		return nil, fmt.Errorf("set-up: %d preload ops failed: %v", failed, errors.Join(errs...))
	}
	attempted, failed := 0, 0
	for _, pass := range []struct {
		ops []op
		res []opResult
	}{{w.ops, results}, {hopOps, hopRes}, {w.ops, plainRes}, {w.ops, tracedRes}} {
		f, errs := c.checkAll(pass.ops, pass.res)
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		attempted += len(pass.res)
		failed += f
	}

	m := map[string]metric{}
	ops := float64(max(len(tracedRes), 1))
	self := selfTimes(rp.tr)
	for _, name := range layerSpans {
		m[name+"_ms"] = metric{self[name] / 1e6 / ops, "ms"}
	}
	var opNS, traceNS, coreNS float64
	for _, r := range tracedRes {
		opNS += float64(r.dur)
	}
	for name, ns := range self {
		switch {
		case strings.HasPrefix(name, "trace."):
			traceNS += ns
		case strings.HasPrefix(name, "core."):
			coreNS += ns
		}
	}
	m["traced.ops"] = metric{float64(len(tracedRes)), "count"}
	m["traced.op_ms"] = metric{opNS / 1e6 / ops, "ms"}
	m["trace.share"] = metric{ratio(traceNS, opNS), "ratio"}
	m["core.share"] = metric{ratio(coreNS, opNS), "ratio"}
	m["core.ns_per_nnprime"] = metric{ratio(self["core.mrct"]+self["core.postlude"], rp.eng.nnPrime), "ns"}
	m["core.mrct_builds"] = metric{float64(rp.eng.builds), "count"}
	m["core.dedup_hit_rate"] = metric{ratio(rp.eng.dedupSum, float64(rp.eng.builds)), "ratio"}
	m["tracing.overhead_ratio"] = metric{overhead(plainRes, tracedRes), "ratio"}

	httpKind := latencies(results)
	// The overhead compares the ops both passes completed, so each side's
	// median is over the same requests.
	common := min(len(results), len(tracedRes))
	httpCommon, tracedKind := latencies(results[:common]), latencies(tracedRes[:common])
	for k := reqKind(0); k < nKinds; k++ {
		over := 0.0
		if len(tracedKind[k]) > 0 {
			over = median(httpCommon[k]) - median(tracedKind[k])
		}
		m["server.overhead_ms."+kindNames[k]] = metric{over, "ms"}
		ep := fmt.Sprintf(`endpoint="%s"`, endpointOf[k])
		sum := delta(before, after, "cachedse_request_duration_seconds_sum", ep)
		cnt := delta(before, after, "cachedse_request_duration_seconds_count", ep)
		m["server.handler_ms."+kindNames[k]] = metric{ratio(sum*1e3, cnt), "ms"}
	}
	hits := delta(before, after, "cachedse_result_cache_hits_total")
	lookups := hits + delta(before, after, "cachedse_result_cache_misses_total")
	m["server.result_cache_hit_ratio"] = metric{ratio(hits, lookups), "ratio"}
	m["server.result_cache_lookups"] = metric{lookups, "count"}
	m["server.shed_total"] = metric{delta(before, after, "cachedse_shed_total"), "count"}
	m["cluster.proxied_ratio"] = metric{ratio(delta(before, after, "cachedse_cluster_proxied_total"), float64(reqs)), "ratio"}
	m["cluster.requests"] = metric{float64(reqs), "count"}
	m["cluster.hop_ms"] = metric{hop, "ms"}
	httpOps := float64(max(len(results), 1))
	m["client.ops"] = metric{float64(len(results)), "count"}
	m["client.attempts_per_op"] = metric{float64(reqs) / httpOps, "ratio"}
	var opLat []float64
	for _, r := range results {
		opLat = append(opLat, ms(r.dur))
	}
	p99 := 0.0
	if len(opLat) >= 1000 { // at least ten samples above the 99th percentile
		p99 = quantile(opLat, 0.99)
	}
	m["client.latency_p99_ms"] = metric{p99, "ms"}
	m["client.simulate_p50_ms"] = metric{median(httpKind[kSimulate]), "ms"}
	m["client.verify_p50_ms"] = metric{median(httpKind[kVerify]), "ms"}
	m["go.alloc_bytes_per_op"] = metric{float64(alloc1-alloc0) / httpOps, "B"}
	m["go.gc_cycles_per_op"] = metric{float64(gc1-gc0) / httpOps, "count"}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies groups request latencies (ms) by kind.
func latencies(results []opResult) [nKinds][]float64 {
	var out [nKinds][]float64
	for _, r := range results {
		for _, q := range r.reqs {
			out[q.kind] = append(out[q.kind], ms(q.dur))
		}
	}
	return out
}

// selfTimes sums each span name's self time in nanoseconds: its duration
// minus the time its children cover. A client's spans are sequential, so
// a span's children never overlap.
func selfTimes(t *tracer) map[string]float64 {
	self := map[string]float64{}
	for _, spans := range t.spans {
		children := make([]int64, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range spans {
			self[s.Name] += float64(s.End - s.Start - children[i])
		}
	}
	return self
}

// overhead compares the traced replay with the untraced one over the ops
// both completed: total op time traced over untraced, minus one.
func overhead(plain, traced []opResult) float64 {
	n := min(len(plain), len(traced))
	var p, t float64
	for i := 0; i < n; i++ {
		p += float64(plain[i].dur)
		t += float64(traced[i].dur)
	}
	return ratio(t, p) - 1
}

// hopTraces is how many preloaded traces the hop measurement explores.
const hopTraces = 24

// measureHop times warm explores of the same traces sent to an owner
// node and to the node that owns neither replica, one request at a time.
// The difference of the medians is what the forwarding hop adds.
func measureHop(w *workload, svc *service) (float64, []op, []opResult, error) {
	nodes := make([]cluster.Node, len(svc.nodes))
	direct := make([]*client.Client, len(svc.nodes))
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	for i, nd := range svc.nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: nd.url}
		direct[i] = client.New(nd.url, client.WithHTTPClient(hc))
	}
	ring := cluster.NewRing(nodes)
	var ops []op
	var res []opResult
	var viaOwner, viaOther []float64
	ctx := context.Background()
	for i := 0; i < min(hopTraces, len(w.preload)); i++ {
		in := w.preload[i]
		owners := ring.Owners(w.inputs[in].digest, replicas)
		owner, other := -1, -1
		for j, n := range nodes {
			isOwner := false
			for _, o := range owners {
				isOwner = isOwner || o.ID == n.ID
			}
			if isOwner && owner < 0 {
				owner = j
			}
			if !isOwner {
				other = j
			}
		}
		if other < 0 {
			return 0, nil, nil, errors.New("hop: every node owns the trace")
		}
		// The first explore warms the owner's result cache.
		for round, target := range []int{owner, owner, other, owner, other} {
			q := request{kind: kExplore, input: in, kpct: ptr(float64(5 + round))}
			start := time.Now()
			resp, err := direct[target].Explore(ctx, client.ExploreRequest{Trace: w.inputs[in].digest, KPct: q.kpct})
			dur := time.Since(start)
			ops = append(ops, op{reqs: []request{q}})
			res = append(res, opResult{dur: dur, reqs: []reqResult{{kind: kExplore, dur: dur, err: err, ans: compactExplore(resp)}}})
			switch {
			case round == 0:
			case target == owner:
				viaOwner = append(viaOwner, ms(dur))
			default:
				viaOther = append(viaOther, ms(dur))
			}
		}
	}
	return median(viaOther) - median(viaOwner), ops, res, nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/pkg/client"
)

// reqResult is one request's outcome: its latency and either an error or
// the compact answer the oracle check reads.
type reqResult struct {
	kind reqKind
	dur  time.Duration
	err  error
	ans  any // client.TraceInfo, exploreAnswer, client.SimulateResponse or client.VerifyResponse
}

// opResult is one op's outcome. Its latency is the time the client spent
// waiting on the service: the sum of its requests' latencies.
type opResult struct {
	dur  time.Duration
	reqs []reqResult
}

// loop is one closed-loop run over ops 0..n-1 by `clients` workers: each
// worker takes the next op only after its previous one finished, and do
// times the op itself.
type loop struct {
	n  int
	d  time.Duration // no op starts once d of timed run has passed
	do func(worker, i int) opResult
	// stage, when set, prepares ops [lo, hi) with the clock stopped; the
	// ops then run as one batch of at most stageBatch. Work staged this
	// way counts neither in latencies nor in the elapsed time.
	stage func(lo, hi int)
	// memOps is the op count at which resident memory is last sampled.
	memOps int
}

// loopResult is a run's outcome: the results of the ops taken, in op
// order; the timed time from the start until the last of them finished;
// and the resident-set high-water mark over the first memOps ops.
type loopResult struct {
	results []opResult
	elapsed time.Duration
	memMB   float64
}

// stageBatch is how many ops are staged at a time: enough that the
// closed loop's drain at a batch's end costs little throughput, few
// enough that the staged bodies stay small.
const stageBatch = 32

// run starts every op it takes before the deadline; ops in flight at the
// deadline finish and count.
func (l loop) run() loopResult {
	results := make([]opResult, l.n)
	// Every run starts from a collected heap, so where the collector's
	// cycles fall in the timed window does not depend on set-up leftovers.
	runtime.GC()
	mem := &memWatch{ops: l.memOps}
	done := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		mem.watch(done)
	}()
	batch := l.n
	if l.stage != nil {
		batch = stageBatch
	}
	var elapsed time.Duration
	taken := 0
	for lo := 0; lo < l.n && elapsed < l.d && !mem.over.Load(); lo += batch {
		hi := min(lo+batch, l.n)
		if l.stage != nil {
			l.stage(lo, hi)
		}
		var next atomic.Int64
		next.Store(int64(lo))
		start := time.Now()
		deadline := start.Add(l.d - elapsed)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) && !mem.over.Load() {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					results[i] = l.do(w, i)
					mem.opDone()
				}
			}(w)
		}
		wg.Wait()
		elapsed += time.Since(start)
		taken = min(int(next.Load()), hi)
	}
	close(done)
	<-watchDone
	return loopResult{results: results[:taken], elapsed: elapsed, memMB: mem.peakMB()}
}

// rssLimitMB guards a shared host: past it a run takes no new ops. The
// service keeps finished jobs, and with them their traces and conflict
// tables, so its memory grows with the ops run; a faster engine on
// cold_data could otherwise reach several gigabytes.
const rssLimitMB = 3072

// memWatch samples the resident set while a run goes. It keeps the
// largest sample taken before the run's first `ops` ops completed, with
// one taken as the last of them completes, so the figure covers a fixed
// amount of work however fast the run gets through it. It also sets over
// once the resident set passes rssLimitMB.
type memWatch struct {
	ops  int
	done atomic.Int64 // ops completed
	over atomic.Bool
	mu   sync.Mutex
	peak float64
	shut bool // the ops-th op completed: no further samples count
}

func (m *memWatch) sample() float64 {
	v := rssMB()
	m.mu.Lock()
	if !m.shut && v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
	return v
}

func (m *memWatch) opDone() {
	if int(m.done.Add(1)) == m.ops {
		m.sample()
		m.mu.Lock()
		m.shut = true
		m.mu.Unlock()
	}
}

// peakMB is the high-water mark; a run that stopped short of `ops` ops
// is sampled once more at its end.
func (m *memWatch) peakMB() float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// watch samples every 20 ms until done is closed.
func (m *memWatch) watch(done <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if v := m.sample(); v > rssLimitMB && !m.over.Load() {
				fmt.Fprintf(os.Stderr, "perfbench: resident set passed %d MB; taking no new ops\n", rssLimitMB)
				m.over.Store(true)
			}
		}
	}
}

// httpRunner sends a workload's ops through the SDK, one endpoint per
// closed-loop client.
type httpRunner struct {
	w   *workload
	eps []*endpoint
}

func newHTTPRunner(w *workload, svc *service, attempts *atomic.Int64) *httpRunner {
	h := &httpRunner{w: w}
	for i := 0; i < clients; i++ {
		h.eps = append(h.eps, newEndpoint(svc.urls(), attempts))
	}
	return h
}

func (h *httpRunner) close() {
	for _, e := range h.eps {
		e.close()
	}
}

func (h *httpRunner) do(worker int, o op) opResult {
	ep := h.eps[worker]
	res := opResult{reqs: make([]reqResult, len(o.reqs))}
	uploaded := ""
	for j, r := range o.reqs {
		body, digest := h.w.inputs[r.input].prepare(uploaded)
		c := ep.pick()
		start := time.Now()
		ans, err := h.send(c, r, body, digest)
		res.reqs[j] = reqResult{kind: r.kind, dur: time.Since(start), err: err, ans: ans}
		res.dur += res.reqs[j].dur
		if err != nil {
			break
		}
		if info, ok := ans.(client.TraceInfo); ok && r.kind == kUpload {
			uploaded = info.Digest
		}
	}
	return res
}

// prepare returns what a request of the input sends: the upload body
// and the digest it names, which is the op's own upload's answer for a
// trace not preloaded.
func (in *input) prepare(uploaded string) ([]byte, string) {
	if in.digest != "" {
		return in.body, in.digest
	}
	return in.body, uploaded
}

func (h *httpRunner) send(c *client.Client, r request, body []byte, digest string) (any, error) {
	ctx := context.Background()
	switch r.kind {
	case kUpload:
		return c.UploadTrace(ctx, body)
	case kExplore:
		resp, err := c.Explore(ctx, client.ExploreRequest{Trace: digest, K: r.k, KPct: r.kpct, Pareto: r.pareto})
		return compactExplore(resp), err
	case kGet:
		return c.GetTrace(ctx, digest)
	case kSimulate:
		return c.Simulate(ctx, client.SimulateRequest{Trace: digest, Depth: r.depth, Assoc: r.assoc})
	case kVerify:
		return c.Verify(ctx, client.VerifyRequest{Trace: digest, K: r.vk, Instances: r.vins})
	}
	return nil, fmt.Errorf("unknown request kind %d", r.kind)
}

// preloadOps is the set-up traffic: upload each preloaded trace and, for
// a warm workload, explore it once so its depth profile is cached.
func (w *workload) preloadOps() []op {
	ops := make([]op, len(w.preload))
	for i, in := range w.preload {
		ops[i].reqs = []request{{kind: kUpload, input: in}}
		if w.preExplore {
			ops[i].reqs = append(ops[i].reqs, request{kind: kExplore, input: in, kpct: ptr(10.0)})
		}
	}
	return ops
}

// setUp boots the service and runs the preload through two closed-loop
// clients, returning the running service, its runner and the preload's
// results (checked with the timed ones).
func setUp(w *workload, storeRoot string, attempts *atomic.Int64) (*service, *httpRunner, []op, []opResult, error) {
	svc, err := startService(w.nodes, storeRoot)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	h := newHTTPRunner(w, svc, attempts)
	pre := w.preloadOps()
	run := loop{n: len(pre), d: time.Hour, do: func(worker, i int) opResult { return h.do(worker, pre[i]) }}.run()
	return svc, h, pre, run.results, nil
}

// stateDir is where the run keeps store directories and span dumps:
// inside the checkout, under the build directory.
func stateDir() string { return filepath.Join(".bench_build", "perfbench") }

func newStoreRoot(tag string) (string, error) {
	dir := filepath.Join(stateDir(), fmt.Sprintf("stores-%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

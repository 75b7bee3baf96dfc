package main

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// engineAnswer is what the service's explore would answer, computed with
// the analytical engine directly.
func engineAnswer(t *testing.T, tr *trace.Trace, digest string, k int, pareto bool) exploreAnswer {
	t.Helper()
	res, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxMisses := trace.ComputeStats(tr).MaxMisses
	instances, _ := dse.InstanceTable(res, k, maxMisses, pareto)
	ans := exploreAnswer{Trace: digest, K: k, MaxMisses: maxMisses}
	for _, ins := range instances {
		ans.Instances = append(ans.Instances, client.Instance{Depth: ins.Depth, Assoc: ins.Assoc,
			SizeWords: ins.SizeWords(), Misses: res.Level(ins.Depth).Misses(ins.Assoc)})
	}
	return ans
}

func TestOracleCatchesPlantedWrongMissCount(t *testing.T) {
	tr := smallTrace(traceRNG(7, "test", 0), 3000, 150)
	d := server.TraceDigest(tr)
	o, err := newOracle(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	k := o.maxMisses / 10
	for _, pareto := range []bool{false, true} {
		ans := engineAnswer(t, tr, d, k, pareto)
		if err := o.checkExplore(ans, &k, nil, pareto); err != nil {
			t.Fatalf("pareto=%v: correct answer rejected: %v", pareto, err)
		}
		for i := range ans.Instances {
			bad := ans
			bad.Instances = append([]client.Instance(nil), ans.Instances...)
			bad.Instances[i].Misses++
			if o.checkExplore(bad, &k, nil, pareto) == nil {
				t.Fatalf("pareto=%v: planted miss count at instance %d not caught", pareto, i)
			}
		}
	}
	kpct := 10.0
	ans := engineAnswer(t, tr, d, o.budget(nil, &kpct), false)
	ans.K++
	if o.checkExplore(ans, nil, &kpct, false) == nil {
		t.Fatal("wrong K for a kpct budget not caught")
	}

	p, _ := o.level(16)
	sim := client.SimulateResponse{Trace: d, Accesses: o.n, ColdMisses: p.Cold, Misses: p.Misses(2), Hits: o.n - p.Cold - p.Misses(2)}
	if err := o.checkSimulate(sim, 16, 2); err != nil {
		t.Fatalf("correct simulate answer rejected: %v", err)
	}
	sim.Misses, sim.Hits = sim.Misses+1, sim.Hits-1
	if o.checkSimulate(sim, 16, 2) == nil {
		t.Fatal("planted simulate miss count not caught")
	}

	ins := []client.VerifyInstance{{Depth: 16, Assoc: 2}}
	ok := p.Misses(2) <= k
	if err := o.checkVerify(client.VerifyResponse{Trace: d, K: k, OK: ok}, k, ins); err != nil {
		t.Fatalf("correct verify answer rejected: %v", err)
	}
	if o.checkVerify(client.VerifyResponse{Trace: d, K: k, OK: !ok}, k, ins) == nil {
		t.Fatal("flipped verify verdict not caught")
	}
}

func digests(w *workload) []string {
	out := make([]string, len(w.inputs))
	for i, in := range w.inputs {
		out[i] = server.TraceDigest(in.gen())
	}
	return out
}

func TestSeedDeterminesTraceDigests(t *testing.T) {
	for _, build := range []func(seed int64) *workload{
		func(seed int64) *workload { return coldData(seed, 4) },
		func(seed int64) *workload { return coldInstr(seed, 4) },
		func(seed int64) *workload { return warmHits(seed, 10) },
	} {
		a, b, c := digests(build(1)), digests(build(1)), digests(build(2))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed 1 gave digest %s then %s for input %d", a[i], b[i], i)
			}
			if a[i] == c[i] {
				t.Fatalf("seeds 1 and 2 gave the same digest %s for input %d", a[i], i)
			}
		}
	}
	w1, w2 := warmHits(1, 50), warmHits(1, 50)
	for i := range w1.ops {
		if w1.ops[i].reqs[0].kind != w2.ops[i].reqs[0].kind || w1.ops[i].reqs[0].input != w2.ops[i].reqs[0].input {
			t.Fatalf("seed 1 gave two op sequences, differing at op %d", i)
		}
	}
}

// TestColdTracesAreNew checks that every cold op uploads a trace no other
// op of the run uploads, so its explore cannot be answered from the
// result cache, which is keyed by trace digest.
func TestColdTracesAreNew(t *testing.T) {
	seen := map[string]string{}
	for _, w := range []*workload{coldData(1, 24), coldInstr(1, 24)} {
		for i, d := range digests(w) {
			if prev, ok := seen[d]; ok {
				t.Fatalf("%s input %d repeats %s", w.name, i, prev)
			}
			seen[d] = w.name
		}
	}
}

// TestServiceAnswersMatchOracle drives a small workload of every request
// kind through the service, single-node and clustered, and checks every
// answer, including those of the traced replay.
func TestServiceAnswersMatchOracle(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		w := &workload{name: "test", nodes: nodes, preExplore: true}
		for i := 0; i < 4; i++ {
			i := i
			w.inputs = append(w.inputs, ctz1Input(func() *trace.Trace {
				return smallTrace(traceRNG(3, "svc", i), 2000, 100)
			}, true))
			w.preload = append(w.preload, i)
		}
		fresh := len(w.inputs)
		w.inputs = append(w.inputs, ctz1Input(func() *trace.Trace { return smallTrace(traceRNG(3, "svc", 99), 2000, 100) }, false))
		w.ops = []op{
			{reqs: []request{{kind: kUpload, input: fresh}, {kind: kExplore, input: fresh, kpct: ptr(7.5)}}},
			{reqs: []request{{kind: kExplore, input: 0, k: ptr(40), pareto: true}}},
			{reqs: []request{{kind: kGet, input: 1}}},
			{reqs: []request{{kind: kSimulate, input: 2, depth: 8, assoc: 2}}},
			{reqs: []request{{kind: kVerify, input: 3, vk: 30, vins: []client.VerifyInstance{{Depth: 4, Assoc: 1}, {Depth: 64, Assoc: 4}}}}},
		}
		var attempts atomic.Int64
		svc, h, pre, preRes, err := setUp(w, t.TempDir(), &attempts)
		if err != nil {
			t.Fatal(err)
		}
		res := loop{n: len(w.ops), d: time.Minute, do: func(worker, i int) opResult { return h.do(worker, w.ops[i]) }}.run().results
		h.close()
		svc.stop()
		r, err := newReplayer(w, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r.tr.on = true
		var replayed []opResult
		for i, o := range append(pre, w.ops...) {
			replayed = append(replayed, r.do(0, i, o))
		}
		c := newChecker(w)
		for _, pass := range []struct {
			name string
			ops  []op
			res  []opResult
		}{{"preload", pre, preRes}, {"timed", w.ops, res}, {"replay", append(pre, w.ops...), replayed}} {
			if len(pass.res) != len(pass.ops) {
				t.Fatalf("nodes=%d %s: %d of %d ops ran", nodes, pass.name, len(pass.res), len(pass.ops))
			}
			if failed, errs := c.checkAll(pass.ops, pass.res); failed > 0 {
				t.Fatalf("nodes=%d %s: %d ops failed: %v", nodes, pass.name, failed, errs)
			}
		}
		if got := len(r.tr.spans[0]); got == 0 {
			t.Fatalf("nodes=%d: traced replay recorded no spans", nodes)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	tr.spans[0] = []spanRecord{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "req.explore", Parent: 0, Start: 10, End: 90},
		{Name: "core.mrct", Parent: 1, Start: 20, End: 50},
		{Name: "core.postlude", Parent: 1, Start: 50, End: 80},
	}
	self := selfTimes(tr)
	want := map[string]float64{"op": 20, "req.explore": 20, "core.mrct": 30, "core.postlude": 30}
	for name, v := range want {
		if self[name] != v {
			t.Errorf("self(%s) = %v, want %v", name, self[name], v)
		}
	}
}

func TestAppendDinMatchesWriteText(t *testing.T) {
	tr := smallTrace(traceRNG(5, "din", 0), 500, 40)
	tr.Append(trace.Ref{Addr: 0x1234, Kind: trace.Instr})
	var sb strings.Builder
	if err := trace.WriteText(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if got := string(appendDin(nil, tr)); got != sb.String() {
		t.Fatal("appendDin output differs from trace.WriteText")
	}
}

func TestStageWritesOneBatchOfTextBodies(t *testing.T) {
	w := coldInstr(4, 4)
	w.stage(0, 2)
	for i, in := range w.inputs {
		if staged := in.body != nil; staged != (i < 2) {
			t.Fatalf("after stage(0, 2): input %d staged = %v", i, staged)
		}
	}
	w.stage(2, 4)
	for i, in := range w.inputs {
		if staged := in.body != nil; staged != (i >= 2) {
			t.Fatalf("after stage(2, 4): input %d staged = %v", i, staged)
		}
	}
	if string(w.inputs[3].body) != string(appendDin(nil, w.inputs[3].gen())) {
		t.Fatal("staged body differs from the input's Dinero text")
	}
}

func TestLoopLeavesStagingOutOfElapsed(t *testing.T) {
	const pause = 100 * time.Millisecond
	run := loop{n: 3 * stageBatch, d: time.Minute, memOps: stageBatch,
		stage: func(lo, hi int) { time.Sleep(pause) },
		do:    func(worker, i int) opResult { return opResult{} }}.run()
	if len(run.results) != 3*stageBatch {
		t.Fatalf("ran %d of %d ops", len(run.results), 3*stageBatch)
	}
	if run.elapsed >= pause {
		t.Fatalf("elapsed %v includes staging (%v a batch)", run.elapsed, pause)
	}
	if run.memMB <= 0 {
		t.Fatalf("resident set %v MB", run.memMB)
	}
}

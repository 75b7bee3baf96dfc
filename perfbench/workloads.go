package main

import (
	"math/rand"

	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// reqKind names one kind of API request.
type reqKind int

const (
	kUpload reqKind = iota
	kExplore
	kGet
	kSimulate
	kVerify
	nKinds
)

var kindNames = [nKinds]string{"upload", "explore", "get", "simulate", "verify"}

// request is one API call of an op. Traces are named by their index in
// the workload's inputs; the digest comes from the upload response or,
// for preloaded traces, from the set-up.
type request struct {
	kind   reqKind
	input  int
	k      *int
	kpct   *float64
	pareto bool
	depth  int // simulate
	assoc  int // simulate
	vk     int // verify budget
	vins   []client.VerifyInstance
}

// op is one closed-loop operation: the requests a client sends back to
// back before taking its next op.
type op struct {
	reqs []request
}

// input is one generated trace: its upload bytes and a generator that
// rebuilds the trace for the oracle after the run (the decoded form is
// not kept, to bound the benchmark's own memory). A Dinero text body is
// not kept either: at 7 bytes a reference, a run's worth of instruction
// traces would take hundreds of megabytes, so it is written out from the
// generator by workload.stage, a batch of ops at a time, with the clock
// stopped.
type input struct {
	body []byte // ctz1 upload bytes; for a Dinero text upload, set only while staged
	text bool   // uploaded as Dinero text
	// digest is set for preloaded traces, which timed requests name; an
	// op that uploads its own trace names it by the upload's answer.
	digest string
	refs   int
	gen    func() *trace.Trace
}

// workload is one traffic mix against the service.
type workload struct {
	name  string
	nodes int
	// inputs are every trace the workload may upload, generated from the
	// seed before timing starts.
	inputs []input
	// preload are the inputs uploaded during set-up; with preExplore set
	// each is also explored once, so its depth profile is cached.
	preload    []int
	preExplore bool
	// ops is the timed op sequence, generated with the inputs; a run ends
	// early only if it uses them all up.
	ops []op
	// memOpsPerSecond sets how many ops peak_rss_mb covers per second of
	// run: about half what the reference host completes at its slowest,
	// so every run reaches it and the figure does not grow with
	// throughput.
	memOpsPerSecond int
	// staged are the inputs whose text bodies the last stage call wrote,
	// into the reused buffers bufs.
	staged []int
	bufs   [][]byte
}

// stager returns the loop's stage hook: nil unless some input is
// uploaded as Dinero text.
func (w *workload) stager() func(lo, hi int) {
	for _, in := range w.inputs {
		if in.text {
			return w.stage
		}
	}
	return nil
}

// stage writes the Dinero text bodies that ops [lo, hi) upload, dropping
// those of the previous batch. Buffers are reused across batches.
func (w *workload) stage(lo, hi int) {
	for _, i := range w.staged {
		w.inputs[i].body = nil
	}
	w.staged = w.staged[:0]
	for _, o := range w.ops[lo:hi] {
		for _, r := range o.reqs {
			in := &w.inputs[r.input]
			if r.kind != kUpload || !in.text || in.body != nil {
				continue
			}
			j := len(w.staged)
			if j == len(w.bufs) {
				w.bufs = append(w.bufs, nil)
			}
			w.bufs[j] = appendDin(w.bufs[j][:0], in.gen())
			in.body = w.bufs[j]
			w.staged = append(w.staged, r.input)
		}
	}
}

// ctz1Input generates a trace and its ctz1 upload body, with its digest
// when timed requests will name it.
func ctz1Input(gen func() *trace.Trace, withDigest bool) input {
	t := gen()
	in := input{body: encodeCTZ1(t), refs: t.Len(), gen: gen}
	if withDigest {
		in.digest = server.TraceDigest(t)
	}
	return in
}

func ptr[T any](v T) *T { return &v }

// structureRNG draws a cold trace's structure. It depends on the op's
// index, not the seed: op i costs the engine the same under every seed,
// which keeps a run's work, and so its timings, the same across seeds.
// The seed places the trace in memory (see dataTrace), so every seed's
// inputs still differ.
func structureRNG(name string, i int) *rand.Rand { return traceRNG(0, "structure/"+name, i) }

// dataShapes is the cold_data (N, N') cycle: three cheap shapes (about
// 60 ms of engine time on the reference host), four mid-cost (about
// 190 ms) and three costly ones (about 500 ms), so the median and the
// 90th percentile each fall inside a group of like-cost ops rather than
// on a boundary. Fixing the cycle, and drawing only trace
// content from the seed, keeps the work per run the same across seeds.
// The range spans PowerStone's data traces (compress 39,940/432, fir
// 31,296/544, g3fax 4,193/2,064).
var dataShapes = [][2]int{
	{16000, 250}, {24000, 420}, {40000, 550}, {32000, 360}, {10000, 400},
	{28000, 800}, {16000, 640}, {20000, 200}, {11000, 2000}, {12000, 760},
}

var kpcts = []float64{5, 10, 15, 20}

// coldOps gives the cold workloads' op for each input: upload the trace,
// then explore it at a kpct budget.
func coldOps(rng *rand.Rand, inputs []input) []op {
	ops := make([]op, len(inputs))
	for i := range ops {
		ops[i] = op{reqs: []request{
			{kind: kUpload, input: i},
			{kind: kExplore, input: i, kpct: ptr(kpcts[rng.Intn(len(kpcts))])},
		}}
	}
	return ops
}

func coldData(seed int64, count int) *workload {
	w := &workload{name: "cold_data", nodes: 1, memOpsPerSecond: 3}
	for i := 0; i < count; i++ {
		sh := dataShapes[i%len(dataShapes)]
		i := i
		w.inputs = append(w.inputs, ctz1Input(func() *trace.Trace {
			return dataTrace(structureRNG(w.name, i), traceRNG(seed, w.name, i), sh[0], sh[1])
		}, false))
	}
	w.ops = coldOps(traceRNG(seed, "ops/"+w.name, 0), w.inputs)
	return w
}

// instrRefs is N for cold_instr: compress's 247,936-fetch instruction
// trace scaled to 10^5, with N' below 128.
const instrRefs = 100000

func coldInstr(seed int64, count int) *workload {
	w := &workload{name: "cold_instr", nodes: 1, memOpsPerSecond: 15}
	for i := 0; i < count; i++ {
		i := i
		w.inputs = append(w.inputs, input{refs: instrRefs, text: true, gen: func() *trace.Trace {
			return instrTrace(structureRNG(w.name, i), traceRNG(seed, w.name, i), instrRefs)
		}})
	}
	w.ops = coldOps(traceRNG(seed, "ops/"+w.name, 0), w.inputs)
	return w
}

// warmSet is warm_hits' working set: it fits the service's default trace
// LRU (64) and result cache (256), so after set-up every request is
// answered from memory.
const warmSet = 48

// budgetReq is an explore of input in at a fresh budget: an absolute K up
// to a quarter of the trace's maximum misses, or a kpct; 30% ask for the
// Pareto frontier.
func budgetReq(rng *rand.Rand, in, maxMisses int) request {
	r := request{kind: kExplore, input: in, pareto: rng.Intn(10) < 3}
	if rng.Intn(2) == 0 {
		r.k = ptr(rng.Intn(maxMisses/4 + 1))
	} else {
		r.kpct = ptr(float64(1+rng.Intn(3000)) / 100)
	}
	return r
}

func warmHits(seed int64, count int) *workload {
	w := &workload{name: "warm_hits", nodes: 1, preExplore: true, memOpsPerSecond: 2000}
	maxMisses := make([]int, warmSet)
	for i := 0; i < warmSet; i++ {
		i := i
		n, u := 4000+1000*(i%5), 100+60*(i%6)
		gen := func() *trace.Trace { return smallTrace(traceRNG(seed, w.name, i), n, u) }
		maxMisses[i] = trace.ComputeStats(gen()).MaxMisses
		w.inputs = append(w.inputs, ctz1Input(gen, true))
		w.preload = append(w.preload, i)
	}
	// 60% explores at new budgets, 30% trace reads, 10% re-uploads of a
	// working-set trace, which the service decodes, digests and finds
	// already stored.
	rng := traceRNG(seed, "ops/"+w.name, 0)
	w.ops = make([]op, count)
	for i := range w.ops {
		in := rng.Intn(warmSet)
		var r request
		switch x := rng.Intn(10); {
		case x < 6:
			r = budgetReq(rng, in, maxMisses[in])
		case x < 9:
			r = request{kind: kGet, input: in}
		default:
			r = request{kind: kUpload, input: in}
		}
		w.ops[i] = op{reqs: []request{r}}
	}
	return w
}

// clusterPreload is cluster_mixed's preloaded working set. Each of the 3
// nodes owns about 2/3 of it, a few more than its 64-trace LRU holds, so
// some reads are served from the node's persistent store.
const clusterPreload = 100

// clusterMixed's ops, per 200: 1 upload of a fresh trace followed by its
// first (cold) explore, 2 simulates at a new configuration, 20
// re-uploads, 117 explores at new budgets and 60 verifies, all but the
// first of preloaded traces; count bounds the ops. Fresh uploads and new
// simulates persist (the service fsyncs each store put several times),
// and so does a re-upload that an owner's LRU had evicted. The reference
// host's fsync latency swings by half from minute to minute, so these
// durable writes are kept to a few per hundred ops: enough to run the
// write path beside the reads, few enough that disk weather does not
// decide the run's figures. The set-up explores every preloaded trace
// once, so the share of cold explores is set by the mix, not by how many
// ops a run gets through.
func clusterMixed(seed int64, count int) *workload {
	w := &workload{name: "cluster_mixed", nodes: 3, preExplore: true, memOpsPerSecond: 800}
	maxMisses := make([]int, clusterPreload)
	newInput := func() int {
		i := len(w.inputs)
		gen := func() *trace.Trace { return smallTrace(traceRNG(seed, w.name, i), 4000, 200) }
		if i < clusterPreload {
			maxMisses[i] = trace.ComputeStats(gen()).MaxMisses
		}
		w.inputs = append(w.inputs, ctz1Input(gen, i < clusterPreload))
		return i
	}
	for i := 0; i < clusterPreload; i++ {
		w.preload = append(w.preload, newInput())
	}
	rng := traceRNG(seed, "ops/"+w.name, 0)
	w.ops = make([]op, count)
	for i := range w.ops {
		in := rng.Intn(clusterPreload)
		var reqs []request
		switch x := rng.Intn(200); {
		case x < 1:
			up := newInput()
			reqs = []request{{kind: kUpload, input: up}, {kind: kExplore, input: up, kpct: ptr(kpcts[rng.Intn(len(kpcts))])}}
		case x < 3:
			reqs = []request{{kind: kSimulate, input: in, depth: 1 << rng.Intn(9), assoc: 1 << rng.Intn(4)}}
		case x < 23:
			reqs = []request{{kind: kUpload, input: in}}
		case x < 140:
			reqs = []request{budgetReq(rng, in, maxMisses[in])}
		default:
			r := request{kind: kVerify, input: in, vk: rng.Intn(maxMisses[in]/4 + 1)}
			for j := 0; j < 3; j++ {
				r.vins = append(r.vins, client.VerifyInstance{Depth: 1 << rng.Intn(9), Assoc: 1 + rng.Intn(8)})
			}
			reqs = []request{r}
		}
		w.ops[i] = op{reqs: reqs}
	}
	return w
}

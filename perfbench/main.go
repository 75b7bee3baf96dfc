// Command perfbench is the repository's end-to-end benchmark. It runs the
// cachedse HTTP service in process, drives it with the Go SDK from a
// closed loop of two clients, checks every answer against the one-pass
// Mattson oracle and prints the metrics as one JSON line:
//
//	perfbench --workload cold_data --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
// metrics instead: it replays the same op sequence by calling the
// layers' public functions directly, recording a span around each call,
// beside an untraced HTTP pass that supplies the server-side counters.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"cold_data", "cold_instr", "warm_hits", "cluster_mixed"}

// buildWorkload generates a workload's inputs and op sequence. The counts
// leave at least twice the fastest throughput seen on the reference host
// (whose speed varies by up to 2x over tens of minutes) in headroom, so a
// run ends at its deadline, not by running out of inputs.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case "cold_data":
		return coldData(seed, 20*seconds+16), nil
	case "cold_instr":
		return coldInstr(seed, 120*seconds+16), nil
	case "warm_hits":
		return warmHits(seed, 25000*seconds), nil
	case "cluster_mixed":
		return clusterMixed(seed, 8000*seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed run in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) (*result, error) {
	w, err := buildWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir(), 0o755); err != nil {
		return nil, err
	}
	info := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"clients": clients, "nodes": w.nodes, "host": hostInfo(),
		"server_config": describeConfig(w.nodes),
	}
	line, _ := json.Marshal(map[string]any{"perfbench_run": info})
	fmt.Println(string(line))
	if traced {
		return runTraced(w, time.Duration(seconds)*time.Second)
	}
	return runEndToEnd(w, time.Duration(seconds)*time.Second)
}

// describeConfig records the service configuration: the serve defaults,
// plus the cluster shape where there is one.
func describeConfig(nodes int) map[string]any {
	cfg := map[string]any{"config": "cachedse serve defaults (zero server.Config)", "request_log": "text, discarded"}
	if nodes > 1 {
		cfg["cluster"] = map[string]any{"nodes": nodes, "replicas": replicas, "store": "one directory per node", "ingress": "round-robin"}
	}
	return cfg
}

// The set-up is repeated and setup_s is the median: at least minSetups
// times, then until a second of set-up has been measured, at most
// maxSetups times.
const (
	minSetups = 3
	maxSetups = 25
)

func runEndToEnd(w *workload, d time.Duration) (*result, error) {
	var attempts atomic.Int64
	var setups []float64
	var svc *service
	var h *httpRunner
	var root string
	var preOps []op
	var preRes []opResult
	spent := time.Duration(0)
	for rep := 0; ; rep++ {
		r, err := newStoreRoot(fmt.Sprint(rep))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s, hr, pre, res, err := setUp(w, r, &attempts)
		took := time.Since(start)
		if err != nil {
			os.RemoveAll(r)
			return nil, err
		}
		setups = append(setups, took.Seconds())
		preOps, preRes = append(preOps, pre...), append(preRes, res...)
		spent += took
		if rep+1 >= maxSetups || (rep+1 >= minSetups && spent >= time.Second) {
			svc, h, root = s, hr, r
			break
		}
		hr.close()
		s.stop()
		os.RemoveAll(r)
	}
	defer os.RemoveAll(root)

	run := loop{n: len(w.ops), d: d, stage: w.stager(), memOps: w.memOpsPerSecond * int(d/time.Second),
		do: func(worker, i int) opResult { return h.do(worker, w.ops[i]) }}.run()
	results, elapsed := run.results, run.elapsed
	h.close()
	svc.stop()
	if len(results) == len(w.ops) {
		fmt.Fprintf(os.Stderr, "perfbench: %s used all %d generated ops before the deadline\n", w.name, len(w.ops))
	}

	c := newChecker(w)
	if failed, errs := c.checkAll(preOps, preRes); failed > 0 {
		return nil, fmt.Errorf("set-up: %d preload ops failed: %v", failed, errors.Join(errs...))
	}
	failed, errs := c.checkAll(w.ops, results)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}

	m := map[string]metric{}
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{float64(len(results)) / elapsed.Seconds(), "1/s"}
	var opLat []float64
	var byKind [nKinds][]float64
	refs := 0
	for i, r := range results {
		opLat = append(opLat, ms(r.dur))
		for j, q := range r.reqs {
			byKind[q.kind] = append(byKind[q.kind], ms(q.dur))
			if q.kind == kExplore && q.err == nil {
				refs += w.inputs[w.ops[i].reqs[j].input].refs
			}
		}
	}
	m["refs_per_s"] = metric{float64(refs) / elapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{quantile(opLat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(opLat, 0.9), "ms"}
	m["upload_p50_ms"] = metric{median(byKind[kUpload]), "ms"}
	m["explore_p50_ms"] = metric{median(byKind[kExplore]), "ms"}
	m["success_ratio"] = metric{float64(len(results)-failed) / float64(max(len(results), 1)), "ratio"}
	m["peak_rss_mb"] = metric{run.memMB, "MB"}
	return &result{Correct: failed == 0, Attempted: len(results), Failed: failed, Metrics: m}, nil
}

// dumpOps bounds the span dump: a warm run records hundreds of thousands
// of spans, and the first ops show the shape of every op kind.
const dumpOps = 2000

// writeSpans dumps the spans of the traced pass's first dumpOps ops, one
// JSON object per line in start order, for inspection after the run.
func writeSpans(name string, spans []spanRecord) error {
	kept := spans[:0]
	for _, s := range spans {
		if s.Op < dumpOps {
			kept = append(kept, s)
		}
	}
	spans = kept
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(filepath.Join(stateDir(), "spans-"+name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracestore"
	"github.com/example/cachedse/pkg/client"
)

// The traced replay. The service records spans of its own (a response
// carries X-Job-ID, and GET /v1/jobs/{id}/trace returns the job's span
// tree), but only for compute jobs and at the service's granularity; it
// does not time decode, digest, stats, store or cache lookups per
// request. So the traced run replays the same op sequence by calling,
// from this file, the public functions the service's handlers call for
// each request, in the same order, against the same kind of state (a
// 64-trace LRU, a 256-entry result cache and, on the cluster, a
// persistent store per node and rendezvous routing). Where the service
// calls an unexported function, the replay makes an equivalent pass: the
// trace store's kind classification (server.classify), and the result
// envelope it persists. Each call is wrapped in a span. What HTTP, JSON,
// the handlers and the job queue add on top shows as server.overhead_ms:
// the untraced HTTP latency minus the replayed one.

// spanRecord is one recorded call. Parent indexes the same worker's
// spans; an op's root span has parent -1.
type spanRecord struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Worker int    `json:"worker"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one buffer per closed-loop client so
// recording takes no lock. A tracer that is off records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans [clients][]spanRecord
}

func (t *tracer) start(w, op int, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans[w]))
	t.spans[w] = append(t.spans[w], spanRecord{Name: name, Op: op, Worker: w, ID: id, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(w int, id int32) {
	if id >= 0 {
		t.spans[w][id].End = int64(time.Since(t.epoch))
	}
}

// call is the span context of one replayed request.
type call struct {
	t      *tracer
	w, op  int
	parent int32
}

func (c call) begin(name string) int32 { return c.t.start(c.w, c.op, c.parent, name) }
func (c call) end(id int32)            { c.t.end(c.w, id) }

// rEntry is a replayed stored trace, with its memoized prelude.
type rEntry struct {
	t     *trace.Trace
	stats trace.Stats
	kind  string
	mu    sync.Mutex
	pre   *core.Prelude
}

// traceLRU mirrors the service's trace store: exact LRU over digests.
type traceLRU struct {
	mu  sync.Mutex
	max int
	ll  *list.List // of lruItem, front = most recent
	idx map[string]*list.Element
}

type lruItem struct {
	digest string
	e      *rEntry
}

func newTraceLRU(max int) *traceLRU {
	return &traceLRU{max: max, ll: list.New(), idx: map[string]*list.Element{}}
}

func (l *traceLRU) get(d string) (*rEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.idx[d]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(lruItem).e, true
}

func (l *traceLRU) add(d string, e *rEntry) (*rEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.idx[d]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(lruItem).e, true
	}
	l.idx[d] = l.ll.PushFront(lruItem{d, e})
	if l.ll.Len() > l.max {
		old := l.ll.Back()
		l.ll.Remove(old)
		delete(l.idx, old.Value.(lruItem).digest)
	}
	return e, false
}

// The service defaults the replayed state mirrors.
const (
	defaultMaxTraces    = 64
	defaultCacheEntries = 256
)

// rNode is one replayed service node.
type rNode struct {
	traces  *traceLRU
	results *server.ShardedLRU
	store   *tracestore.Store // cluster only, as the service persists only there
}

// engineStats accumulates what the engine was given, for the per-N·N'
// cost and the dedup rate.
type engineStats struct {
	mu       sync.Mutex
	builds   int
	nnPrime  float64 // sum of N*N' over built conflict tables
	dedupSum float64
}

type replayer struct {
	w      *workload
	nodes  []*rNode
	ring   *cluster.Ring  // nil off-cluster
	index  map[string]int // cluster node ID -> nodes index
	tr     *tracer
	limits trace.Limits
	next   [clients]int // round-robin ingress per client
	eng    engineStats
}

func newReplayer(w *workload, storeRoot string) (*replayer, error) {
	r := &replayer{w: w, tr: &tracer{}, index: map[string]int{},
		limits: trace.Limits{MaxRefs: 16 << 20, MaxBytes: 64 << 20}} // the serve defaults
	var members []cluster.Node
	for i := 0; i < w.nodes; i++ {
		n := &rNode{traces: newTraceLRU(defaultMaxTraces), results: server.NewShardedLRU(defaultCacheEntries)}
		if w.nodes > 1 {
			st, err := tracestore.Open(filepath.Join(storeRoot, fmt.Sprintf("node%d", i)))
			if err != nil {
				return nil, err
			}
			n.store = st
			id := fmt.Sprintf("n%d", i)
			members = append(members, cluster.Node{ID: id, URL: "replay://" + id})
			r.index[id] = i
		}
		r.nodes = append(r.nodes, n)
	}
	if w.nodes > 1 {
		r.ring = cluster.NewRing(members)
	}
	return r, nil
}

// do replays one op, timing each request and the op as the HTTP runner
// does.
func (r *replayer) do(worker, i int, o op) opResult {
	root := r.tr.start(worker, i, -1, "op")
	res := opResult{reqs: make([]reqResult, len(o.reqs))}
	uploaded := ""
	for j, q := range o.reqs {
		body, digest := r.w.inputs[q.input].prepare(uploaded)
		ingress := r.next[worker] % len(r.nodes)
		r.next[worker]++
		start := time.Now()
		id := r.tr.start(worker, i, root, "req."+kindNames[q.kind])
		c := call{t: r.tr, w: worker, op: i, parent: id}
		ans, err := r.request(c, ingress, q, body, digest)
		r.tr.end(worker, id)
		res.reqs[j] = reqResult{kind: q.kind, dur: time.Since(start), err: err, ans: ans}
		res.dur += res.reqs[j].dur
		if err != nil {
			break
		}
		if info, ok := ans.(client.TraceInfo); ok && q.kind == kUpload {
			uploaded = info.Digest
		}
	}
	r.tr.end(worker, root)
	return res
}

func (r *replayer) request(c call, ingress int, q request, body []byte, d string) (any, error) {
	if q.kind == kUpload {
		return r.upload(c, ingress, body)
	}
	n := r.serving(c, ingress, d)
	e, err := r.lookupTrace(c, n, d)
	if err != nil {
		return nil, err
	}
	switch q.kind {
	case kExplore:
		return r.explore(c, n, d, e, q)
	case kGet:
		return client.TraceInfo{Digest: d, N: e.stats.N, NUnique: e.stats.NUnique, MaxMisses: e.stats.MaxMisses}, nil
	case kSimulate:
		return r.simulate(c, n, d, e, q)
	case kVerify:
		instances := make([]core.Instance, len(q.vins))
		for i, v := range q.vins {
			instances[i] = core.Instance{Depth: v.Depth, Assoc: v.Assoc}
		}
		id := c.begin("dse.verify")
		verr := dse.VerifyContext(context.Background(), e.t, instances, q.vk)
		c.end(id)
		return client.VerifyResponse{Trace: d, K: q.vk, OK: verr == nil}, nil
	}
	return nil, fmt.Errorf("unknown request kind %d", q.kind)
}

// serving is the node that answers a digest-addressed request: the
// ingress when it owns the trace, otherwise the first owner it forwards
// to.
func (r *replayer) serving(c call, ingress int, d string) *rNode {
	if r.ring == nil {
		return r.nodes[0]
	}
	id := c.begin("cluster.route")
	owners := r.ring.Owners(d, replicas)
	c.end(id)
	for _, o := range owners {
		if r.index[o.ID] == ingress {
			return r.nodes[ingress]
		}
	}
	return r.nodes[r.index[owners[0].ID]]
}

func (r *replayer) decode(c call, body []byte) (*trace.Trace, error) {
	id := c.begin("trace.decode")
	t, err := trace.Decode(bytes.NewReader(body), r.limits)
	c.end(id)
	return t, err
}

// add stores a decoded trace on a node as the service's trace store
// does: digest, statistics, kind, LRU insert. It reports whether the LRU
// already held the trace.
func (r *replayer) add(c call, n *rNode, t *trace.Trace) (string, *rEntry, bool) {
	id := c.begin("trace.digest")
	d := server.TraceDigest(t)
	c.end(id)
	id = c.begin("trace.stats")
	st := trace.ComputeStats(t)
	c.end(id)
	id = c.begin("server.classify")
	kind := classify(t)
	c.end(id)
	id = c.begin("server.lookup")
	e, existed := n.traces.add(d, &rEntry{t: t, stats: st, kind: kind})
	c.end(id)
	return d, e, existed
}

// classify makes the pass the service's trace store makes on insert to
// label a trace "instr", "data" or "mixed" by its reference kinds.
func classify(t *trace.Trace) string {
	instr, data := false, false
	for _, r := range t.Refs {
		if r.Kind == trace.Instr {
			instr = true
		} else {
			data = true
		}
		if instr && data {
			return "mixed"
		}
	}
	if instr {
		return "instr"
	}
	return "data"
}

func (r *replayer) upload(c call, ingress int, body []byte) (any, error) {
	t, err := r.decode(c, body)
	if err != nil {
		return nil, err
	}
	if r.ring == nil {
		d, e, _ := r.add(c, r.nodes[0], t)
		return client.TraceInfo{Digest: d, N: e.stats.N, NUnique: e.stats.NUnique, MaxMisses: e.stats.MaxMisses}, nil
	}
	// Cluster ingress: route by digest, then every owner stores the
	// trace, persisting it unless its LRU already held it; an owner other
	// than the ingress decodes the forwarded bytes itself.
	id := c.begin("trace.digest")
	d := server.TraceDigest(t)
	c.end(id)
	id = c.begin("cluster.route")
	owners := r.ring.Owners(d, replicas)
	c.end(id)
	var e *rEntry
	var enc bytes.Buffer
	for _, o := range owners {
		i := r.index[o.ID]
		tt := t
		if i != ingress {
			if tt, err = r.decode(c, body); err != nil {
				return nil, err
			}
		}
		var existed bool
		if _, e, existed = r.add(c, r.nodes[i], tt); existed {
			continue
		}
		if enc.Len() == 0 {
			id := c.begin("trace.encode")
			err = trace.WriteCTZ1(&enc, tt)
			c.end(id)
			if err != nil {
				return nil, err
			}
		}
		id := c.begin("tracestore.put")
		_, err = r.nodes[i].store.Put("trace/"+d, bytes.NewReader(enc.Bytes()))
		c.end(id)
		if err != nil {
			return nil, err
		}
	}
	return client.TraceInfo{Digest: d, N: e.stats.N, NUnique: e.stats.NUnique, MaxMisses: e.stats.MaxMisses}, nil
}

// lookupTrace finds a trace on a node: in its LRU, else (on the cluster)
// decoded back from its store and re-inserted, as the service does for a
// trace its LRU evicted.
func (r *replayer) lookupTrace(c call, n *rNode, d string) (*rEntry, error) {
	id := c.begin("server.lookup")
	e, ok := n.traces.get(d)
	c.end(id)
	if ok {
		return e, nil
	}
	if n.store == nil {
		return nil, fmt.Errorf("trace %s not found", d)
	}
	id = c.begin("tracestore.get")
	m, err := n.store.OpenMapped("trace/" + d)
	c.end(id)
	if err != nil {
		return nil, err
	}
	id = c.begin("trace.decode")
	t, err := trace.DecodeBytes(m.Bytes(), r.limits, nil)
	c.end(id)
	m.Close()
	if err != nil {
		return nil, err
	}
	_, e, _ = r.add(c, n, t)
	return e, nil
}

// cached looks a result up in the node's cache, then (on the cluster) in
// its store, as the service does before computing.
func (r *replayer) cached(c call, n *rNode, key string) (any, bool) {
	id := c.begin("server.lookup")
	v, ok := n.results.Get(key)
	c.end(id)
	if ok || n.store == nil {
		return v, ok
	}
	id = c.begin("tracestore.get")
	var env persisted
	data, err := n.store.Get("result/" + key)
	if err == nil {
		err = json.Unmarshal(data, &env)
	}
	c.end(id)
	switch {
	case err != nil:
		return nil, false
	case env.Explore != nil:
		v = env.Explore
	case env.Simulate != nil:
		v = env.Simulate
	default:
		return nil, false
	}
	n.results.Put(key, v)
	return v, true
}

// persisted is the envelope the service writes a memoized answer in:
// its kind and exactly one payload.
type persisted struct {
	Kind     string                   `json:"kind"`
	Explore  *core.Result             `json:"explore,omitempty"`
	Simulate *client.SimulateResponse `json:"simulate,omitempty"`
}

// keep caches a computed result and, on the cluster, persists it.
func (r *replayer) keep(c call, n *rNode, key string, v any) error {
	n.results.Put(key, v)
	if n.store == nil {
		return nil
	}
	env := persisted{}
	switch v := v.(type) {
	case *core.Result:
		env.Kind, env.Explore = "explore", v
	case *client.SimulateResponse:
		env.Kind, env.Simulate = "simulate", v
	default:
		return fmt.Errorf("persisting %s: unknown result type %T", key, v)
	}
	id := c.begin("tracestore.put")
	data, err := json.Marshal(env)
	if err == nil {
		_, err = n.store.Put("result/"+key, bytes.NewReader(data))
	}
	c.end(id)
	if err != nil {
		return fmt.Errorf("persisting %s: %w", key, err)
	}
	return nil
}

func (r *replayer) explore(c call, n *rNode, d string, e *rEntry, q request) (any, error) {
	key := "explore|" + d + "|d=0"
	var res *core.Result
	if v, ok := r.cached(c, n, key); ok {
		res = v.(*core.Result)
	} else {
		pre, err := r.prelude(c, e)
		if err != nil {
			return nil, err
		}
		id := c.begin("core.postlude")
		res, err = core.Explore(context.Background(), *pre, core.Options{})
		c.end(id)
		if err != nil {
			return nil, err
		}
		if err := r.keep(c, n, key, res); err != nil {
			return nil, err
		}
	}
	budget := 0
	if q.k != nil {
		budget = *q.k
	} else {
		budget = int(float64(e.stats.MaxMisses) * *q.kpct / 100)
	}
	id := c.begin("dse.select")
	instances, tab := dse.InstanceTable(res, budget, e.stats.MaxMisses, q.pareto)
	_ = tab.Render()
	c.end(id)
	ans := exploreAnswer{Trace: d, K: budget, MaxMisses: e.stats.MaxMisses, Instances: make([]client.Instance, len(instances))}
	for i, ins := range instances {
		ans.Instances[i] = client.Instance{Depth: ins.Depth, Assoc: ins.Assoc, SizeWords: ins.SizeWords(),
			Misses: res.Level(ins.Depth).Misses(ins.Assoc)}
	}
	return ans, nil
}

// prelude builds (once per stored trace) the stripped trace and conflict
// table every exploration of the trace shares.
func (r *replayer) prelude(c call, e *rEntry) (*core.Prelude, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pre != nil {
		return e.pre, nil
	}
	id := c.begin("trace.strip")
	s := trace.Strip(e.t)
	c.end(id)
	id = c.begin("core.mrct")
	m, err := core.BuildMRCTContext(context.Background(), s)
	c.end(id)
	if err != nil {
		return nil, err
	}
	e.pre = &core.Prelude{Stripped: s, MRCT: m}
	r.eng.mu.Lock()
	r.eng.builds++
	r.eng.nnPrime += float64(s.N()) * float64(s.NUnique())
	r.eng.dedupSum += m.DedupHitRate()
	r.eng.mu.Unlock()
	return e.pre, nil
}

func (r *replayer) simulate(c call, n *rNode, d string, e *rEntry, q request) (any, error) {
	cfg := cache.Config{Depth: q.depth, Assoc: q.assoc, LineWords: 1, Repl: cache.LRU, Allocate: true}
	key := fmt.Sprintf("simulate|%s|%v|wt=false", d, cfg)
	if v, ok := r.cached(c, n, key); ok {
		return *v.(*client.SimulateResponse), nil
	}
	id := c.begin("cache.simulate")
	res, err := cache.Simulate(cfg, e.t)
	c.end(id)
	if err != nil {
		return nil, err
	}
	resp := &client.SimulateResponse{Trace: d, Config: fmt.Sprint(cfg), Accesses: res.Accesses, Hits: res.Hits,
		ColdMisses: res.ColdMisses, Misses: res.Misses, Writebacks: res.Writebacks, MissRate: res.MissRate()}
	if err := r.keep(c, n, key, resp); err != nil {
		return nil, err
	}
	return *resp, nil
}

// replayPass preloads a fresh replayed service and replays the timed ops
// for d. With on set, every call is recorded as a span.
func replayPass(w *workload, d time.Duration, on bool) (*replayer, []opResult, error) {
	root, err := newStoreRoot(fmt.Sprintf("replay-%v", on))
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	r, err := newReplayer(w, root)
	if err != nil {
		return nil, nil, err
	}
	pre := w.preloadOps()
	for i, o := range pre {
		res := r.do(i%clients, i, o)
		for _, q := range res.reqs {
			if q.err != nil {
				return nil, nil, fmt.Errorf("replay preload: %w", q.err)
			}
		}
	}
	r.eng = engineStats{} // report only the timed ops' engine work
	r.tr.on = on
	r.tr.epoch = time.Now()
	results := loop{n: len(w.ops), d: d, stage: w.stager(),
		do: func(worker, i int) opResult { return r.do(worker, i, w.ops[i]) }}.run().results
	return r, results, nil
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/pkg/client"
)

// clients is the closed loop's width: one client per core of the 2-core
// reference host, each waiting for its reply before sending again.
const clients = 2

// replicas is the cluster workload's ownership factor R.
const replicas = 2

// node is one in-process cachedse server listening on loopback.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

// service is the system under test: one node, or a static cluster whose
// members each persist to their own store directory.
type service struct {
	nodes []*node
}

// serverConfig is what `cachedse serve` passes by default: every tuning
// field zero, so server.New applies its own defaults. The request log is
// still formatted, as serve's is, but goes nowhere instead of stderr.
func serverConfig() server.Config {
	return server.Config{Logger: obs.NewLogger(io.Discard, "text", slog.LevelInfo)}
}

// startService boots n nodes. With n > 1 they form a cluster with R =
// replicas, node i storing under storeRoot/node<i>; a single node runs
// in memory, as `cachedse serve` does without -store.
func startService(n int, storeRoot string) (*service, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()}
	}
	s := &service{}
	for i, ln := range lns {
		cfg := serverConfig()
		if n > 1 {
			cfg.StoreDir = filepath.Join(storeRoot, fmt.Sprintf("node%d", i))
			cfg.Cluster = cluster.Config{NodeID: peers[i].ID, Peers: peers, Replicas: replicas}
		}
		srv, err := server.New(cfg)
		if err != nil {
			closeListeners(lns[i:])
			s.stop()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		nd := &node{
			srv:  srv,
			hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
			url:  peers[i].URL,
			done: make(chan struct{}),
		}
		go func(ln net.Listener) {
			defer close(nd.done)
			_ = nd.hs.Serve(ln) // returns http.ErrServerClosed on stop
		}(ln)
		s.nodes = append(s.nodes, nd)
	}
	return s, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// stop shuts every node down and waits for its serve goroutine and job
// queue to finish.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range s.nodes {
		_ = nd.hs.Shutdown(ctx)
		<-nd.done
		_ = nd.srv.Close(ctx)
	}
}

func (s *service) urls() []string {
	out := make([]string, len(s.nodes))
	for i, nd := range s.nodes {
		out[i] = nd.url
	}
	return out
}

// countingTransport counts every HTTP attempt the SDK makes, retries
// included, so attempts per op can be reported.
type countingTransport struct {
	next     http.RoundTripper
	attempts *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	return c.next.RoundTrip(r)
}

// endpoint is one closed-loop client: an SDK client per ingress node over
// a single keep-alive connection per node, rotated round-robin.
type endpoint struct {
	sdk       []*client.Client
	next      int
	transport *http.Transport
}

func newEndpoint(urls []string, attempts *atomic.Int64) *endpoint {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: countingTransport{next: tr, attempts: attempts}, Timeout: 2 * time.Minute}
	e := &endpoint{transport: tr}
	for _, u := range urls {
		e.sdk = append(e.sdk, client.New(u, client.WithHTTPClient(hc)))
	}
	return e
}

// pick returns the next ingress node's client.
func (e *endpoint) pick() *client.Client {
	c := e.sdk[e.next%len(e.sdk)]
	e.next++
	return c
}

func (e *endpoint) close() { e.transport.CloseIdleConnections() }

// scrape sums every node's /metrics samples by series (name plus labels).
func scrape(urls []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// delta sums after-before over the series whose name is name and whose
// label set contains every given label (e.g. `endpoint="explore"`).
func delta(before, after map[string]float64, name string, labels ...string) float64 {
	sum := 0.0
	for series, v := range after {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			sum += v - before[series]
		}
	}
	return sum
}

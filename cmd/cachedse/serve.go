package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/server"
)

// cmdServe runs the exploration service: a long-lived HTTP daemon that
// keeps uploaded traces resident, answers explore/simulate/verify
// queries through a bounded worker pool, and memoizes exploration
// results. See the package server docs and the README's "Running as a
// service" section for the API.
func cmdServe(args []string) error {
	fs := newFlagSet("serve", "serve [-addr HOST:PORT] [flags]")
	addr := fs.String("addr", "127.0.0.1:8344", "listen address")
	workers := fs.Int("workers", 0, "exploration worker pool size (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 64, "job queue depth")
	cacheEntries := fs.Int("cache", 256, "exploration result cache entries")
	maxTraces := fs.Int("max-traces", 64, "uploaded traces retained (LRU eviction past this)")
	maxUpload := fs.Int64("max-upload", 64<<20, "upload size cap in bytes")
	maxRefs := fs.Int("max-refs", 16<<20, "per-trace reference cap")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job run time cap")
	reqTimeout := fs.Duration("request-timeout", time.Minute, "synchronous request wait cap")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown drain cap before cancelling jobs")
	storeDir := fs.String("store", "", "persist traces and results to this directory (survives restarts)")
	nodeID := fs.String("node-id", "", "this node's cluster member id (empty = single-node)")
	peers := fs.String("peers", "", "static cluster membership as id=url pairs, e.g. 'a=http://h1:8344,b=http://h2:8344' (must include -node-id)")
	replicas := fs.Int("replicas", 0, "cluster ownership replicas per trace (0 = default)")
	peerInflight := fs.Int("peer-inflight", 0, "max concurrent forwarded requests per peer (0 = default)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	profileDir := fs.String("profile-dir", "", "continuously capture CPU/heap pprof snapshots into this bounded ring directory (off when empty)")
	profileInterval := fs.Duration("profile-interval", 0, "mean time between continuous-profiler captures (0 = profiler default)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (off when empty)")
	faults := fs.String("faults", "", "arm fault injection with this failpoint spec, e.g. 'tracestore.*=error()@0.2;queue.run=delay(5ms)@0.5' (testing only)")
	faultSeed := fs.Uint64("fault-seed", 1, "deterministic seed for -faults decisions")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	logger, err := newCLILogger(*logFormat)
	if err != nil {
		return err
	}
	// The env var lets a harness arm faults without editing the command
	// line; an explicit -faults flag wins.
	if *faults == "" {
		*faults = os.Getenv("CACHEDSE_FAULTS")
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults, *faultSeed); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logger.Warn("fault injection armed; this instance will misbehave on purpose",
			"spec", *faults, "seed", *faultSeed)
	}

	ccfg := cluster.Config{NodeID: *nodeID, Replicas: *replicas, PeerInflight: *peerInflight}
	if *nodeID != "" {
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		ccfg.Peers = nodes
		if err := ccfg.Validate(); err != nil {
			return err
		}
		logger.Info("cluster membership", "node", *nodeID, "peers", len(nodes))
	} else if *peers != "" {
		return fmt.Errorf("-peers requires -node-id naming this node")
	}

	srv, err := server.New(server.Config{
		MaxUploadBytes:  *maxUpload,
		MaxRefs:         *maxRefs,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		MaxTraces:       *maxTraces,
		JobTimeout:      *jobTimeout,
		RequestTimeout:  *reqTimeout,
		StoreDir:        *storeDir,
		Cluster:         ccfg,
		Logger:          logger,
		ProfileDir:      *profileDir,
		ProfileInterval: *profileInterval,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiling endpoints live on their own listener so they can be
	// bound to loopback (or left off entirely) while the API listens
	// publicly — pprof on the service port would expose heap contents to
	// anyone who can reach the API.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener serving pprof", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		defer ds.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", "addr", "http://"+*addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("shutting down, draining jobs")
	sd, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sd); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.Close(sd); err != nil {
		return fmt.Errorf("job queue drain: %w", err)
	}
	return nil
}

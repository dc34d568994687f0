// Command optspeedd serves the Nicol-Willard optimal-speedup model over
// HTTP.
//
// The v1 surface is synchronous: single queries (POST /v1/optimize),
// batched Cartesian sweeps backed by the sharded sweep engine and its
// memoization cache (POST /v1/sweep), the machine catalog
// (GET /v1/architectures), and per-endpoint latency plus cache
// statistics (GET /v1/metrics).
//
// The v2 surface is job-oriented: POST /v2/jobs submits a sweep or
// optimize job and returns immediately; the job is then polled
// (GET /v2/jobs/{id}), paginated (GET /v2/jobs/{id}/results), or
// cancelled (DELETE /v2/jobs/{id}). POST /v2/sweeps/stream streams
// results as NDJSON while they are computed — that route clears its own
// write deadline, so long streams are exempt from the blanket
// -write-timeout below.
//
// Every response carries an X-Request-ID (honored from the request when
// present), and each request is logged as one structured (slog) line.
//
// Usage:
//
//	optspeedd -addr :8080 -workers 8 -cache 8192 -job-ttl 15m
//
// Passing -pprof localhost:6060 additionally serves net/http/pprof on
// that address (its own listener, never the API mux), so serving
// hotspots can be profiled in place; it is off by default.
//
// Passing -peers http://w1:8080,http://w2:8080 turns the daemon into a
// cluster coordinator: sweeps larger than -shard-size are partitioned
// into contiguous shards, scattered to the worker daemons over their
// v2 streaming API, and gathered back in deterministic spec order —
// with failed shards reassigned to the remaining peers and, as a last
// resort, evaluated locally. Workers are plain optspeedd processes; no
// extra configuration. GET /v2/cluster reports peer health and shard
// counters (see docs/cluster.md).
//
// Passing -data-dir makes the v2 job store durable: every job
// lifecycle transition is appended to a write-ahead log, compacted
// into periodic snapshots, and replayed on restart — finished jobs
// come back with byte-identical result pages, still-pending jobs are
// re-dispatched, and jobs that were mid-flight are marked failed with
// a "restart" reason. -fsync picks the flush policy (always /
// interval / off) and -snapshot-interval the compaction period; see
// docs/persistence.md. Without -data-dir jobs stay in memory only.
//
// Observability: GET /metrics serves the whole daemon's counters in
// Prometheus text exposition format (disable with -metrics=false), and
// every evaluation request is traced — spans for the request, its job,
// and each distributed shard — into a bounded in-memory buffer read
// back through GET /v1/traces/{id}. -trace-buffer sets how many traces
// stay resident (0 disables tracing). See docs/observability.md.
//
// Example queries:
//
//	curl -s localhost:8080/v1/optimize -d \
//	  '{"n":512,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}'
//	curl -s localhost:8080/v2/jobs -d \
//	  '{"sweep":{"space":{"ns":[256,512],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}'
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -drain seconds and cancelling resident jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/chaos"
	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "evaluation pool size, shared across all requests (0 = GOMAXPROCS)")
		cacheSz  = flag.Int("cache", sweep.DefaultCacheSize, "result cache capacity in specs")
		maxSweep = flag.Int("max-sweep", service.DefaultMaxSweepSpecs, "max specs per sweep request")
		jobCap   = flag.Int("job-capacity", jobs.DefaultCapacity, "max resident v2 jobs (running + retained)")
		jobTTL   = flag.Duration("job-ttl", jobs.DefaultTTL, "retention of finished v2 jobs")
		wTimeout = flag.Duration("write-timeout", 5*time.Minute, "response write timeout (streaming routes exempt themselves)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		peers    = flag.String("peers", "", "comma-separated worker base URLs (e.g. http://w1:8080,http://w2:8080); enables coordinator mode")
		shardSz  = flag.Int("shard-size", dispatch.DefaultShardSize, "max specs per distributed shard")
		dataDir  = flag.String("data-dir", "", "durable job store directory; empty keeps jobs in memory only")
		fsyncPol = flag.String("fsync", string(store.FsyncInterval), "WAL fsync policy: always, interval, or off (with -data-dir)")
		snapInt  = flag.Duration("snapshot-interval", jobs.DefaultSnapshotInterval, "snapshot + WAL compaction period (with -data-dir)")
		tenants  = flag.String("tenants", "", "per-tenant quota config file (JSON, see docs/operations.md); empty serves everyone as an unlimited anonymous tenant")
		maxInFl  = flag.Int("max-inflight", 0, "admission gate concurrency bound in evaluation units (0 = max(16, 4*GOMAXPROCS))")
		maxQueue = flag.Int("max-queue", 0, "admission gate waiter bound before shedding (0 = 2*max-inflight, negative = no queue)")
		qWait    = flag.Duration("queue-wait", admit.DefaultMaxWait, "max time a request waits for an evaluation slot before a 503 shed")
		metrics  = flag.Bool("metrics", true, "serve Prometheus exposition at GET /metrics")
		traceBuf = flag.Int("trace-buffer", telemetry.DefaultMaxTraces, "resident trace capacity for GET /v1/traces (0 disables tracing)")
		hedge    = flag.Bool("hedge", true, "hedge slow shard attempts onto a second peer (coordinator mode)")
		chaosOn  = flag.String("chaos", "", "deterministic fault injection: a seed (\"42\") or \"seed=42,latency=0.1:30ms,drop=0.05,...\"; empty or \"off\" disables (see docs/cluster.md)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *pprofOn != "" {
		// Profiling rides its own listener and mux, so the debug surface
		// is never exposed on the API address and the API mux carries no
		// pprof routes unless explicitly asked for.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, pmux); err != nil {
				logger.Error("pprof server failed", "error", err)
			}
		}()
	}
	var plane *chaos.Plane
	if cfg, on, err := chaos.ParseSpec(*chaosOn); err != nil {
		fmt.Fprintf(os.Stderr, "optspeedd: %v\n", err)
		os.Exit(2)
	} else if on {
		plane = chaos.New(cfg)
		logger.Warn("chaos plane active — injecting faults", "seed", cfg.Seed)
	}
	engine := sweep.New(sweep.Options{Workers: *workers, CacheSize: *cacheSz})
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			peerList = append(peerList, p)
		}
	}
	var dispatchHC *http.Client
	if plane != nil {
		// The chaos transport sits under the same pooling settings the
		// dispatcher would build for itself, so a drill changes fault
		// behavior only, not connection reuse.
		dispatchHC = &http.Client{Transport: plane.Transport(&http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		})}
	}
	dispatcher := dispatch.New(dispatch.Options{
		Engine:     engine,
		Peers:      peerList,
		ShardSize:  *shardSz,
		HTTPClient: dispatchHC,
		Logger:     logger,
		Hedge:      dispatch.HedgeConfig{Disable: !*hedge},
	})
	if len(peerList) > 0 {
		logger.Info("coordinator mode", "peers", len(peerList), "shard_size", *shardSz, "hedge", *hedge)
	}
	var persistence *store.Store
	var recovered []jobs.PersistedJob
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncPol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optspeedd: %v\n", err)
			os.Exit(2)
		}
		storeOpts := store.Options{
			Dir:    *dataDir,
			Fsync:  policy,
			Logger: logger,
		}
		if plane != nil {
			storeOpts.WriteFault = plane.StoreWriteFault()
		}
		persistence, recovered, err = store.Open(storeOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optspeedd: open data dir: %v\n", err)
			os.Exit(1)
		}
		logger.Info("durable job store open",
			"data_dir", *dataDir, "fsync", string(policy),
			"recovered_jobs", len(recovered), "snapshot_interval", *snapInt)
	}
	var tenantsFile *admit.TenantsFile
	if *tenants != "" {
		tf, err := admit.LoadTenantsFile(*tenants)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optspeedd: %v\n", err)
			os.Exit(2)
		}
		tenantsFile = tf
		logger.Info("tenant quotas loaded", "file", *tenants, "tenants", len(tf.Tenants))
	}
	admission := admit.New(admit.Config{
		Tenants: tenantsFile,
		Gate: admit.GateConfig{
			MaxConcurrent: *maxInFl,
			MaxQueue:      *maxQueue,
			MaxWait:       *qWait,
		},
	})
	logger.Info("admission gate armed",
		"max_inflight", admission.Gate().Capacity(), "queue_wait", *qWait)
	var tracer *telemetry.Tracer
	if *traceBuf > 0 {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{MaxTraces: *traceBuf})
	}
	svcCfg := service.Config{
		Engine:           engine,
		Dispatcher:       dispatcher,
		MaxSweepSpecs:    *maxSweep,
		JobCapacity:      *jobCap,
		JobTTL:           *jobTTL,
		Persistence:      persistence,
		Recovered:        recovered,
		SnapshotInterval: *snapInt,
		Logger:           logger,
		Admission:        admission,
		Tracer:           tracer,
		DisableMetrics:   !*metrics,
		DisableTracing:   *traceBuf <= 0,
	}
	if plane != nil {
		svcCfg.Collectors = append(svcCfg.Collectors, plane.RegisterMetrics)
	}
	srv := service.New(svcCfg)
	// Shutdown order matters: the job store's Close (inside srv.Close)
	// cancels and drains jobs and writes a final snapshot through the
	// persister, so the durable store must close after it. srv.Close
	// also closes the dispatcher, releasing its idle peer connections.
	defer func() {
		srv.Close()
		if persistence != nil {
			if err := persistence.Close(); err != nil {
				logger.Error("durable job store close failed", "error", err)
			}
		}
	}()

	handler := srv.Handler()
	if plane != nil {
		// The middleware wraps the whole instrumented stack: injected
		// faults are indistinguishable from a genuinely broken peer, and
		// /healthz and /metrics stay exempt so liveness and observation
		// remain honest during a drill.
		handler = plane.Middleware("serve", handler)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Bound slow-body and idle connections so trickling clients
		// cannot pin goroutines and file descriptors; writes get a
		// generous ceiling since maximum-size sweeps take a while to
		// evaluate and serialize. The NDJSON streaming route clears its
		// own write deadline via http.ResponseController, so it is not
		// severed by this blanket timeout.
		ReadTimeout:  time.Minute,
		WriteTimeout: *wTimeout,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen explicitly (rather than ListenAndServe) so the resolved
	// address — in particular a kernel-assigned port for ":0" — is
	// logged, which is what lets test harnesses drive a real daemon
	// without racing for a free port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optspeedd: listen: %v\n", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("optspeedd listening", "addr", ln.Addr().String())
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "optspeedd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("optspeedd shutting down", "drain", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "optspeedd: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
	logger.Info("optspeedd stopped")
}

// Package service exposes the sweep engine as an HTTP JSON API — the
// cmd/optspeedd server.
//
// The v1 surface is synchronous (one request, one full response):
//
//	POST /v1/optimize       one model query (optimal allocation)
//	POST /v1/sweep          batch evaluation of spec lists / spec spaces
//	GET  /v1/architectures  catalog of supported machines
//	GET  /v1/metrics        per-endpoint latency and engine cache stats
//	GET  /healthz           liveness probe
//
// The v2 surface makes evaluations first-class job resources, so a
// large sweep no longer holds one request open for its whole runtime:
//
//	POST   /v2/jobs               submit a sweep or optimize job (202)
//	GET    /v2/jobs               list resident jobs
//	GET    /v2/jobs/{id}          job status + live progress counters
//	GET    /v2/jobs/{id}/results  cursor-paginated result pages
//	DELETE /v2/jobs/{id}          cancel
//	POST   /v2/sweeps/stream      NDJSON results straight off the engine
//	POST   /v2/laws               scaling-law overlay (model vs Amdahl vs
//	                              Gustafson vs critical-path) for one
//	                              problem/machine pair
//
// All evaluation flows through a shared sweep.Engine, so repeated and
// concurrent identical requests coalesce in its memoization cache; the
// v1 handlers are thin synchronous adapters over the same jobs core
// that backs v2, and their wire output is pinned byte-for-byte by
// golden tests.
package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// DefaultMaxSweepSpecs bounds one sweep request's expanded size. It
// equals the engine's default cache capacity by construction, so a
// maximum-size sweep stays fully resident and an identical repeat is
// answered from cache.
const DefaultMaxSweepSpecs = sweep.DefaultCacheSize

// DefaultMaxBodyBytes bounds one request body (8 MiB).
const DefaultMaxBodyBytes = 8 << 20

// statusClientClosedRequest is the nginx-convention status recorded (not
// sent — the client is gone) when a request dies with its context, so
// metrics distinguish aborted requests from successes and from errors.
const statusClientClosedRequest = 499

// Config configures a Server.
type Config struct {
	// Engine is the evaluation engine; nil builds a default one.
	Engine *sweep.Engine
	// Dispatcher routes sweeps across a worker cluster (coordinator
	// mode); nil builds a local-only dispatcher over Engine, making the
	// server a plain single node (and a valid worker for some other
	// coordinator).
	Dispatcher *dispatch.Dispatcher
	// MaxSweepSpecs caps the expanded spec count of one sweep request;
	// 0 means DefaultMaxSweepSpecs.
	MaxSweepSpecs int
	// MaxBodyBytes caps one request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// JobCapacity bounds resident v2 jobs; 0 means jobs.DefaultCapacity.
	JobCapacity int
	// JobTTL is how long terminal v2 jobs stay readable; 0 means
	// jobs.DefaultTTL.
	JobTTL time.Duration
	// Persistence is the durable job store (from store.Open); nil keeps
	// the job store purely in-memory — the default, with the wire
	// surface byte-identical to pre-persistence builds.
	Persistence *store.Store
	// Recovered is the job state store.Open replayed, ingested into the
	// job store before the server accepts traffic.
	Recovered []jobs.PersistedJob
	// SnapshotInterval is the job store's snapshot/compaction period;
	// 0 means jobs.DefaultSnapshotInterval, negative disables.
	SnapshotInterval time.Duration
	// Logger receives the structured per-request access log; nil
	// disables access logging (request IDs are still assigned).
	Logger *slog.Logger
	// Admission is the overload-protection controller: API-key tenants
	// with rate limits and job quotas, plus the server-wide admission
	// gate. nil builds a default controller — an unlimited anonymous
	// tenant and a default-size gate — whose behavior is invisible to
	// unloaded traffic.
	Admission *admit.Controller
	// Metrics is the telemetry registry served at GET /metrics; nil
	// builds a fresh one. Every subsystem's counters are bridged into
	// it at construction.
	Metrics *telemetry.Registry
	// Tracer records request-scoped spans; nil builds a default-size
	// tracer. Evaluation requests mint (or adopt) a trace id, job
	// runners and dispatch shards nest spans under it, and GET
	// /v1/traces/{id} reads the result back.
	Tracer *telemetry.Tracer
	// DisableMetrics removes the GET /metrics route. The instrumented
	// middleware still observes into the registry (the cost is a few
	// atomic adds); only the exposition endpoint disappears.
	DisableMetrics bool
	// DisableTracing turns span recording off entirely: no trace ids
	// are minted, no headers propagate, and GET /v1/traces answers 404.
	DisableTracing bool
	// Collectors are extra metric sources bridged into the registry at
	// construction, after the built-in subsystems (the chaos plane
	// registers its injection counters this way).
	Collectors []func(*telemetry.Registry)
}

// Server is the HTTP facade over the sweep engine and the job store.
type Server struct {
	engine      *sweep.Engine
	dispatcher  *dispatch.Dispatcher
	store       *jobs.Store
	persistence *store.Store
	metrics     *metricsRegistry
	telemetry   *telemetry.Registry
	tracer      *telemetry.Tracer // nil when tracing is disabled
	admission   *admit.Controller
	mux         *http.ServeMux
	handler     http.Handler
	maxSpecs    int
	maxBody     int64
	logger      *slog.Logger
	started     time.Time
	serveProm   bool
}

// New builds a server, its job store, and its routing table. Call Close
// when done to stop the store's GC loop and cancel resident jobs.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = sweep.New(sweep.Options{})
	}
	maxSpecs := cfg.MaxSweepSpecs
	if maxSpecs <= 0 {
		maxSpecs = DefaultMaxSweepSpecs
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	disp := cfg.Dispatcher
	if disp == nil {
		disp = dispatch.New(dispatch.Options{Engine: eng})
	}
	var persister jobs.Persister
	if cfg.Persistence != nil {
		persister = cfg.Persistence
	}
	adm := cfg.Admission
	if adm == nil {
		adm = admit.New(admit.Config{})
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil && !cfg.DisableTracing {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{})
	}
	if cfg.DisableTracing {
		tracer = nil
	}
	s := &Server{
		engine:      eng,
		dispatcher:  disp,
		persistence: cfg.Persistence,
		store: jobs.NewStore(jobs.Options{
			Engine:           eng,
			Dispatcher:       disp,
			Capacity:         cfg.JobCapacity,
			TTL:              cfg.JobTTL,
			Persister:        persister,
			Recovered:        cfg.Recovered,
			SnapshotInterval: cfg.SnapshotInterval,
			Logger:           cfg.Logger,
			Gate:             adm.Gate(),
			Tracer:           tracer,
		}),
		metrics:   newMetricsRegistry(reg),
		telemetry: reg,
		tracer:    tracer,
		admission: adm,
		mux:       http.NewServeMux(),
		maxSpecs:  maxSpecs,
		maxBody:   maxBody,
		logger:    cfg.Logger,
		started:   time.Now(),
		serveProm: !cfg.DisableMetrics,
	}
	s.registerCollectors()
	for _, collect := range cfg.Collectors {
		collect(s.telemetry)
	}
	s.routes()
	// Middleware order (outermost first): request IDs are assigned
	// before the access log runs, so every log line carries one; the
	// tenant must be resolved before the deadline middleware can reject
	// under the caller's identity, and both before any handler runs.
	s.handler = s.withRequestID(s.withAccessLog(s.withTenant(s.withDeadline(s.mux))))
	return s
}

func (s *Server) routes() {
	handle := func(pattern, name string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(name, h))
	}
	// traced routes are the evaluation entry points: each request gets
	// a request-scoped span (minted or adopted from the caller's trace
	// headers). Read-only routes stay untraced.
	traced := func(pattern, name string, h http.HandlerFunc) {
		handle(pattern, name, s.traced(name, h))
	}
	// v1: synchronous adapters over the jobs core.
	traced("POST /v1/optimize", "optimize", s.handleOptimize)
	traced("POST /v1/sweep", "sweep", s.handleSweep)
	handle("GET /v1/architectures", "architectures", s.handleArchitectures)
	handle("GET /v1/metrics", "metrics", s.handleMetrics)
	handle("GET /v1/traces/{id}", "traces_get", s.handleTraceGet)
	// v2: jobs as resources.
	traced("POST /v2/jobs", "jobs_submit", s.handleJobSubmit)
	handle("GET /v2/jobs", "jobs_list", s.handleJobList)
	handle("GET /v2/jobs/{id}", "jobs_get", s.handleJobGet)
	handle("GET /v2/jobs/{id}/results", "jobs_results", s.handleJobResults)
	handle("DELETE /v2/jobs/{id}", "jobs_cancel", s.handleJobCancel)
	traced("POST /v2/sweeps/stream", "sweep_stream", s.handleSweepStream)
	traced("POST /v2/laws", "laws", s.handleLaws)
	handle("GET /v2/cluster", "cluster", s.handleCluster)
	handle("POST /v2/cluster/peers", "cluster_peer_add", s.handlePeerAdd)
	handle("DELETE /v2/cluster/peers", "cluster_peer_remove", s.handlePeerRemove)
	if s.serveProm {
		// Deliberately outside the instrumented table: see handlePrometheus.
		s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns the server's root handler (mux plus middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Engine returns the underlying engine (shared cache), for embedding the
// server next to library sweeps.
func (s *Server) Engine() *sweep.Engine { return s.engine }

// Jobs returns the server's job store.
func (s *Server) Jobs() *jobs.Store { return s.store }

// Admission returns the server's admission controller.
func (s *Server) Admission() *admit.Controller { return s.admission }

// Telemetry returns the server's metric registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.telemetry }

// Tracer returns the server's span recorder, nil when tracing is
// disabled.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Close stops the job store: its GC loop ends and resident running
// jobs are cancelled and drained. It then closes the dispatcher,
// releasing its idle peer connections.
func (s *Server) Close() {
	s.store.Close()
	s.dispatcher.Close()
}

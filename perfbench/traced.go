package main

// The traced run: the workload's first ops, in process, one client,
// through servers built from the public constructors (sweep.New,
// store.Open, dispatch.New, service.New). A traced pass records spans
// around each operation ("op"), each Server.Handler().ServeHTTP call
// ("service") and each shard round trip ("dispatch.shard"); a pass that
// differs from it only in recording no spans gives the tracing
// overhead, and a third pass reads the runtime's allocation counters
// around each handler call. Replay passes then call each lower layer
// directly on the same inputs, each on a fresh stack that sees the same
// warm-up and the same input order, so every call meets the cache state
// its upper layer met. A layer's self time is its call minus the next
// lower layer's call on the same input.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/core"
	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
)

// tracedOps is how many of the workload's operations the traced run
// replays: about a second of work per pass on the host it was tuned on.
var tracedOps = map[string]int{"warm_mix": 2000, "sweep_cold": 150, "cluster_cold": 100}

// tracedMetrics names the traced run's metrics and their units.
var tracedMetrics = map[string]string{
	"trace.ops_per_s": "1/s", "trace.ops_per_s_spans_off": "1/s",
	"runtime.alloc_bytes_per_op": "count", "runtime.allocs_per_op": "count", "runtime.gc_cycles_per_kop": "count",
	"service.self_us": "us", "admit.acquire_us": "us",
	"jobs.run_sync_us": "us", "jobs.self_us": "us", "jobs.submit_us": "us", "jobs.wait_ms": "ms", "jobs.page_us": "us",
	"store.append_us": "us",
	"dispatch.run_ms": "ms", "dispatch.shard_rtt_ms_p50": "ms", "dispatch.slowest_shard_ms": "ms", "dispatch.gather_ms": "ms",
	"sweep.run_space_us_per_spec.cold": "us", "sweep.run_space_us_per_spec.warm": "us", "sweep.self_us_per_spec": "us",
	"core.optimize_us": "us", "core.speedup_batch_us": "us",
}

// span is one recorded interval, in time since the run started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; a nil recorder records nothing.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

// start opens a span under the span carried by ctx.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func() span) {
	if r == nil {
		return ctx, func() span { return span{} }
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	s := span{ID: r.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(r.t0))}
	return context.WithValue(ctx, spanKey{}, s.ID), func() span {
		s.End = int64(time.Since(r.t0))
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
		return s
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// allocSample is what runtime/metrics says about allocation and GC.
type allocSample [3]uint64

var allocNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readAlloc() allocSample {
	ms := make([]metrics.Sample, len(allocNames))
	for i, n := range allocNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s allocSample
	for i := range ms {
		s[i] = ms[i].Value.Uint64()
	}
	return s
}

// handlerTransport serves client requests straight from a handler, in
// process. With a recorder it wraps each ServeHTTP in a "service" span;
// with countAlloc it adds the runtime deltas around each ServeHTTP to a
// tally.
type handlerTransport struct {
	h          http.Handler
	rec        *recorder
	countAlloc bool
	// Tallies; a pass runs one op at a time.
	serviceDur time.Duration
	alloc      allocSample
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := req.Clone(req.Context())
	in.RemoteAddr = "127.0.0.1:1"
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rw := httptest.NewRecorder()
	var a0 allocSample
	if t.countAlloc {
		a0 = readAlloc()
	}
	ctx, end := t.rec.start(req.Context(), "service")
	t.h.ServeHTTP(rw, in.WithContext(ctx))
	if t.rec != nil {
		t.serviceDur += end().dur()
	}
	if t.countAlloc {
		a1 := readAlloc()
		for i := range a1 {
			t.alloc[i] += a1[i] - a0[i]
		}
	}
	return rw.Result(), nil
}

// shardTiming is a dispatch.Options.HTTPClient transport that times
// each shard round trip, from sending the request to the end of the
// streamed reply.
type shardTiming struct {
	rt  http.RoundTripper
	rec *recorder
	mu  sync.Mutex
	rtt []time.Duration // every shard of the current op
}

func (t *shardTiming) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v2/sweeps/stream" {
		return t.rt.RoundTrip(req)
	}
	start := time.Now()
	_, end := t.rec.start(req.Context(), "dispatch.shard")
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		end()
		t.add(time.Since(start))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end()
		t.add(time.Since(start))
	}}
	return resp, nil
}

func (t *shardTiming) add(d time.Duration) {
	t.mu.Lock()
	t.rtt = append(t.rtt, d)
	t.mu.Unlock()
}

// take returns and clears the shard times recorded so far.
func (t *shardTiming) take() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rtt
	t.rtt = nil
	return out
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// worker is an in-process worker daemon on a loopback listener.
type worker struct {
	srv  *service.Server
	http *http.Server
	base string
}

func startWorker() (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &worker{srv: service.New(service.Config{Engine: sweep.New(sweep.Options{})})}
	w.http = &http.Server{Handler: w.srv.Handler()}
	w.base = "http://" + ln.Addr().String()
	go func() { _ = w.http.Serve(ln) }()
	return w, nil
}

func (w *worker) close() {
	_ = w.http.Close()
	w.srv.Close()
}

// stack is one fresh in-process deployment of the workload.
type stack struct {
	eng     *sweep.Engine
	disp    *dispatch.Dispatcher
	shards  *shardTiming
	workers []*worker
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// newStack builds an engine and a dispatcher, with two fresh in-process
// workers behind it when peers is set.
func newStack(rec *recorder, peers bool) (*stack, error) {
	s := &stack{eng: sweep.New(sweep.Options{})}
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	s.shards = &shardTiming{rt: tr, rec: rec}
	s.closers = append(s.closers, tr.CloseIdleConnections)
	var urls []string
	if peers {
		for i := 0; i < 2; i++ {
			w, err := startWorker()
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers = append(s.workers, w)
			s.closers = append(s.closers, w.close)
			urls = append(urls, w.base)
		}
	}
	s.disp = dispatch.New(dispatch.Options{Engine: s.eng, Peers: urls, HTTPClient: &http.Client{Transport: s.shards}})
	return s, nil
}

// openStore opens a durable store with the daemon's default options in
// a fresh directory under dir.
func openStore(dir string) (*store.Store, error) {
	data, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	st, _, err := store.Open(store.Options{Dir: data})
	return st, err
}

// serviceClient builds the full service on st and a client that calls
// its handler in process.
func serviceClient(st *stack, rec *recorder, countAlloc bool, rf *reference) (*client, *handlerTransport) {
	srv := service.New(service.Config{Engine: st.eng, Dispatcher: st.disp})
	st.closers = append(st.closers, srv.Close)
	ht := &handlerTransport{h: srv.Handler(), rec: rec, countAlloc: countAlloc}
	c := newClient("http://inprocess", rf)
	c.hc = &http.Client{Transport: ht}
	return c, ht
}

// timedPersister is a jobs.Persister that times every call into the
// durable store.
type timedPersister struct {
	ps    *store.Store
	mu    sync.Mutex
	total time.Duration
	calls int
}

func (t *timedPersister) reset() {
	t.mu.Lock()
	t.total, t.calls = 0, 0
	t.mu.Unlock()
}

func (t *timedPersister) meanUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.calls == 0 {
		return 0
	}
	return float64(t.total) / float64(t.calls) / 1e3
}

func (t *timedPersister) time(f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.mu.Lock()
	t.total += d
	t.calls++
	t.mu.Unlock()
}

func (t *timedPersister) Submitted(j jobs.PersistedJob) { t.time(func() { t.ps.Submitted(j) }) }
func (t *timedPersister) Started(id string, at time.Time, total int) {
	t.time(func() { t.ps.Started(id, at, total) })
}
func (t *timedPersister) Chunk(id string, rs []sweep.Result) { t.time(func() { t.ps.Chunk(id, rs) }) }
func (t *timedPersister) Finished(id string, state jobs.State, reason string, at time.Time) {
	t.time(func() { t.ps.Finished(id, state, reason, at) })
}
func (t *timedPersister) CancelRequested(id string)            { t.time(func() { t.ps.CancelRequested(id) }) }
func (t *timedPersister) Removed(id string)                    { t.time(func() { t.ps.Removed(id) }) }
func (t *timedPersister) Snapshot(d []jobs.PersistedJob) error { return t.ps.Snapshot(d) }

// opTimes holds one pass's per-op measurements, by op position.
type opTimes []time.Duration

func (o opTimes) sum() time.Duration {
	var s time.Duration
	for _, d := range o {
		s += d
	}
	return s
}

func (o opTimes) meanUS() float64 {
	if len(o) == 0 {
		return 0
	}
	return float64(o.sum()) / float64(len(o)) / 1e3
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// selfTime is the mean over inputs of upper[i] - lower[i]: the time a
// layer spends outside the next lower layer's call on the same input.
func selfTime(upper, lower opTimes) time.Duration {
	if len(upper) == 0 || len(upper) != len(lower) {
		return 0
	}
	return (upper.sum() - lower.sum()) / time.Duration(len(upper))
}

func tracedRun(cfg config, wl *workload, dir string) (map[string]metric, error) {
	ctx := context.Background()
	n := tracedOps[wl.name]
	ops := make([]*request, n)
	for i := range ops {
		ops[i] = wl.draw(i)
	}
	rf := newReference()
	out := make(map[string]metric)

	// The service alone, one op after another: with spans off, with
	// spans on, and with the allocation counters read around each call.
	off, err := servicePass(ctx, wl, rf, ops, nil, false)
	if err != nil {
		return nil, err
	}
	rec := &recorder{t0: time.Now()}
	on, err := servicePass(ctx, wl, rf, ops, rec, false)
	if err != nil {
		return nil, err
	}
	allocs, err := servicePass(ctx, wl, rf, ops, nil, true)
	if err != nil {
		return nil, err
	}
	out["trace.ops_per_s"] = metric{float64(n) / on.total.Seconds(), "1/s"}
	out["trace.ops_per_s_spans_off"] = metric{float64(n) / off.total.Seconds(), "1/s"}
	out["runtime.alloc_bytes_per_op"] = metric{float64(allocs.alloc[0]) / float64(n), "count"}
	out["runtime.allocs_per_op"] = metric{float64(allocs.alloc[1]) / float64(n), "count"}
	out["runtime.gc_cycles_per_kop"] = metric{1000 * float64(allocs.alloc[2]) / float64(n), "count"}

	// Every layer below the service, called on the same inputs.
	ls, err := newLayerStacks(ctx, wl, dir, rec)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	lowerOfService, runSync, runTimes := make(opTimes, n), make(opTimes, n), make(opTimes, n)
	var submit, wait, page opTimes
	var rtts []time.Duration
	var slowest, gather opTimes
	observeShards := func(run time.Duration, shards []time.Duration) {
		if len(shards) == 0 {
			return
		}
		rtts = append(rtts, shards...)
		slow := shards[0]
		for _, d := range shards {
			slow = max(slow, d)
		}
		slowest = append(slowest, slow)
		gather = append(gather, run-slow)
	}
	for i, req := range ops {
		// RunSync and Dispatcher.Run in alternating order, so neither
		// always meets the caches the other warmed.
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 0 {
				if _, err := ls.syncJobs.RunSync(ctx, req.jobsRequest()); err != nil {
					return nil, fmt.Errorf("RunSync: %w", err)
				}
				runSync[i] = time.Since(t0)
				continue
			}
			if _, err := ls.disp.disp.Run(ctx, dispatchRequest(req)); err != nil {
				return nil, fmt.Errorf("Dispatcher.Run: %w", err)
			}
			runTimes[i] = time.Since(t0)
		}
		ls.sync.shards.take()
		if wl.cluster {
			observeShards(runTimes[i], ls.disp.shards.take())
		}
		lowerOfService[i] = runSync[i]

		s, w, pages, err := jobRoundDirect(ctx, ls.asyncJobs, req)
		if err != nil {
			return nil, err
		}
		ls.async.shards.take()
		submit, wait, page = append(submit, s), append(wait, w), append(page, pages...)
		if req.kind == kindJob {
			// The job runs between the service calls of a job round, so
			// the service-level counterpart is the submit and the page
			// reads, not the wait.
			lowerOfService[i] = s + pages.sum()
		}
	}
	out["service.self_us"] = metric{micros(selfTime(on.service, lowerOfService)), "us"}
	out["jobs.run_sync_us"] = metric{runSync.meanUS(), "us"}
	out["jobs.self_us"] = metric{micros(selfTime(runSync, runTimes)), "us"}
	out["jobs.submit_us"] = metric{submit.meanUS(), "us"}
	out["jobs.wait_ms"] = metric{millis(wait.sum()) / float64(n), "ms"}
	out["jobs.page_us"] = metric{page.meanUS(), "us"}
	out["store.append_us"] = metric{ls.persister.meanUS(), "us"}
	out["dispatch.run_ms"] = metric{millis(runTimes.sum()) / float64(n), "ms"}

	// Single node: the shard round trips of a two-peer probe that splits
	// each input into two shards.
	if !wl.cluster {
		probe, err := newStack(rec, true)
		if err != nil {
			return nil, err
		}
		defer probe.close()
		for _, req := range wl.warmup {
			if _, err := probeRun(ctx, probe, req); err != nil {
				return nil, err
			}
		}
		probe.shards.take()
		for _, req := range ops {
			run, err := probeRun(ctx, probe, req)
			if err != nil {
				return nil, err
			}
			observeShards(run, probe.shards.take())
		}
	}
	out["dispatch.shard_rtt_ms_p50"] = metric{latencyPercentile(rtts, 0.5).ms(), "ms"}
	out["dispatch.slowest_shard_ms"] = metric{millis(slowest.sum()) / float64(max(len(slowest), 1)), "ms"}
	out["dispatch.gather_ms"] = metric{millis(gather.sum()) / float64(max(len(gather), 1)), "ms"}

	if err := engineAndCore(ctx, ops, out); err != nil {
		return nil, err
	}
	if err := gateAcquire(ctx, ops, out); err != nil {
		return nil, err
	}

	for name, m := range out {
		if tracedMetrics[name] != m.Unit {
			return nil, fmt.Errorf("traced metric %s (%s) is not declared", name, m.Unit)
		}
	}
	if len(out) != len(tracedMetrics) {
		return nil, fmt.Errorf("traced run measured %d of %d metrics", len(out), len(tracedMetrics))
	}
	spansPath := filepath.Join(cfg.root, ".bench_build", "traces", wl.name+".jsonl")
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	report("spans %d written to %s (GOMAXPROCS %d)", len(rec.spans), spansPath, runtime.GOMAXPROCS(0))
	return out, nil
}

// engineAndCore measures the sweep layer, running each input on an
// engine that has never seen it (cold) and then again on the same
// engine (warm), and the core layer, making the model calls the engine
// makes for that input.
func engineAndCore(ctx context.Context, ops []*request, out map[string]metric) error {
	var cold, warm, coreTotal time.Duration
	var specs int
	var optCalls, batchCalls opTimes
	for _, req := range ops {
		eng := sweep.New(sweep.Options{})
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			if _, err := engineRun(ctx, eng, req); err != nil {
				return err
			}
			if pass == 0 {
				cold += time.Since(t0)
			} else {
				warm += time.Since(t0)
			}
		}
		opt, batch, other, err := coreCalls(req)
		if err != nil {
			return err
		}
		optCalls, batchCalls = append(optCalls, opt...), append(batchCalls, batch...)
		coreTotal += opt.sum() + batch.sum() + other
		specs += len(req.specs())
	}
	perSpec := func(d time.Duration) float64 { return micros(d) / float64(specs) }
	out["sweep.run_space_us_per_spec.cold"] = metric{perSpec(cold), "us"}
	out["sweep.run_space_us_per_spec.warm"] = metric{perSpec(warm), "us"}
	out["sweep.self_us_per_spec"] = metric{perSpec(cold - coreTotal), "us"}
	out["core.optimize_us"] = metric{optCalls.meanUS(), "us"}
	out["core.speedup_batch_us"] = metric{batchCalls.meanUS(), "us"}
	return nil
}

// gateAcquire measures the admit layer: a direct Gate.Acquire and
// release at each input's cost. One call is well under a microsecond,
// so each of ten rounds times all inputs together, and the median
// round's mean is reported.
func gateAcquire(ctx context.Context, ops []*request, out map[string]metric) error {
	n := len(ops)
	gate := admit.NewGate(admit.GateConfig{})
	costs := make([]int, n)
	for i, req := range ops {
		costs[i] = len(req.specs())
	}
	rounds := make([]float64, 10)
	for r := range rounds {
		t0 := time.Now()
		for _, cost := range costs {
			release, err := gate.Acquire(ctx, cost)
			if err != nil {
				return err
			}
			release()
		}
		rounds[r] = micros(time.Since(t0)) / float64(n)
	}
	out["admit.acquire_us"] = metric{median(rounds), "us"}
	return nil
}

// passResult is what one pass through the service measured: the op
// time in total, each op's service span and the allocation tally.
type passResult struct {
	total   time.Duration
	service opTimes
	alloc   allocSample
}

// servicePass runs the ops one after another through the service on a
// fresh stack given the daemon's warm-up. rec, when set, records spans;
// countAlloc reads the runtime's allocation counters around each
// handler call. Nothing else differs between passes.
func servicePass(ctx context.Context, wl *workload, rf *reference, ops []*request, rec *recorder, countAlloc bool) (*passResult, error) {
	st, err := newStack(rec, wl.cluster)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c, ht := serviceClient(st, rec, countAlloc, rf)
	if err := warmUp(ctx, []*client{c}, wl.warmup); err != nil {
		return nil, fmt.Errorf("in-process warm-up: %w", err)
	}
	st.shards.take()
	var kept []coldBody
	if wl.cold {
		c.kept = &kept
	}
	ht.alloc = allocSample{}
	p := &passResult{service: make(opTimes, len(ops))}
	for i, req := range ops {
		ht.serviceDur = 0
		octx, end := rec.start(ctx, "op")
		t0 := time.Now()
		err := c.run(octx, req)
		p.total += time.Since(t0)
		end()
		if err != nil {
			return nil, fmt.Errorf("in-process op %d: %w", i, err)
		}
		p.service[i] = ht.serviceDur
		st.shards.take()
	}
	p.alloc = ht.alloc
	if err := checkCold(rf, kept, &opStats{}); err != nil {
		return nil, err
	}
	return p, nil
}

// layerStacks are the fresh stacks of the replay: the jobs layer twice
// (RunSync; Submit/Wait/Results over a timed durable store) and the
// dispatcher, each given the daemon's warm-up.
type layerStacks struct {
	sync, disp, async   *stack
	syncJobs, asyncJobs *jobs.Store
	persister           *timedPersister
	closers             []func()
}

func (ls *layerStacks) close() {
	for i := len(ls.closers) - 1; i >= 0; i-- {
		ls.closers[i]()
	}
}

func newLayerStacks(ctx context.Context, wl *workload, dir string, rec *recorder) (*layerStacks, error) {
	ls := &layerStacks{}
	fail := func(err error) (*layerStacks, error) {
		ls.close()
		return nil, err
	}
	for _, p := range []**stack{&ls.sync, &ls.disp, &ls.async} {
		r := (*recorder)(nil)
		if p == &ls.disp {
			r = rec
		}
		st, err := newStack(r, wl.cluster)
		if err != nil {
			return fail(err)
		}
		*p = st
		ls.closers = append(ls.closers, st.close)
	}
	ls.syncJobs = jobs.NewStore(jobs.Options{Engine: ls.sync.eng, Dispatcher: ls.sync.disp})
	ls.closers = append(ls.closers, ls.syncJobs.Close)
	ps, err := openStore(dir)
	if err != nil {
		return fail(err)
	}
	ls.closers = append(ls.closers, func() { _ = ps.Close() })
	ls.persister = &timedPersister{ps: ps}
	ls.asyncJobs = jobs.NewStore(jobs.Options{Engine: ls.async.eng, Dispatcher: ls.async.disp, Persister: ls.persister})
	ls.closers = append(ls.closers, ls.asyncJobs.Close)

	// The warm-up the daemon got, on every stack.
	for _, req := range wl.warmup {
		if _, err := ls.syncJobs.RunSync(ctx, req.jobsRequest()); err != nil {
			return fail(err)
		}
		if _, err := ls.asyncJobs.RunSync(ctx, req.jobsRequest()); err != nil {
			return fail(err)
		}
		if _, err := ls.disp.disp.Run(ctx, dispatchRequest(req)); err != nil {
			return fail(err)
		}
	}
	for _, st := range []*stack{ls.sync, ls.disp, ls.async} {
		st.shards.take()
	}
	ls.persister.reset()
	return ls, nil
}

// jobRoundDirect submits the input as a job, waits for it and reads
// every page at the default size, timing each call.
func jobRoundDirect(ctx context.Context, js *jobs.Store, req *request) (submit, wait time.Duration, pages opTimes, err error) {
	t0 := time.Now()
	snap, err := js.Submit(req.jobsRequest())
	if err != nil {
		return 0, 0, nil, fmt.Errorf("Submit: %w", err)
	}
	submit = time.Since(t0)
	t0 = time.Now()
	snap, err = js.Wait(ctx, snap.ID)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("Wait: %w", err)
	}
	wait = time.Since(t0)
	if snap.State != jobs.StateSucceeded {
		return 0, 0, nil, fmt.Errorf("job ended %s: %s", snap.State, snap.Reason)
	}
	got, cursor := 0, 0
	for {
		t0 = time.Now()
		p, err := js.Results(snap.ID, cursor, 0)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("Results: %w", err)
		}
		pages = append(pages, time.Since(t0))
		got += len(p.Results)
		if p.Done {
			break
		}
		cursor = p.NextCursor
	}
	if want := len(req.specs()); got != want {
		return 0, 0, nil, fmt.Errorf("job delivered %d of %d results", got, want)
	}
	return submit, wait, pages, nil
}

func dispatchRequest(req *request) dispatch.Request {
	jr := req.jobsRequest()
	return dispatch.Request{Specs: jr.Specs, Space: jr.Space}
}

// probeRun sends the input through a dispatcher over the probe's two
// workers, with a shard size that splits it into two shards.
func probeRun(ctx context.Context, probe *stack, req *request) (time.Duration, error) {
	size := len(req.specs())
	var urls []string
	for _, w := range probe.workers {
		urls = append(urls, w.base)
	}
	d := dispatch.New(dispatch.Options{
		Engine: probe.eng, Peers: urls, ShardSize: (size + 1) / 2,
		HTTPClient: &http.Client{Transport: probe.shards},
	})
	t0 := time.Now()
	if _, err := d.Run(ctx, dispatchRequest(req)); err != nil {
		return 0, fmt.Errorf("probe Dispatcher.Run: %w", err)
	}
	return time.Since(t0), nil
}

// engineRun is the engine call the jobs layer makes for the input.
func engineRun(ctx context.Context, eng *sweep.Engine, req *request) ([]sweep.Result, error) {
	if req.sweep != nil {
		return eng.RunSpace(ctx, *req.sweep)
	}
	return eng.Run(ctx, req.specs())
}

// coreCalls makes, and times, the model calls the engine makes for the
// input: one batch call per (problem, machine) group of a space over a
// procs axis, one call per spec otherwise. Optimize calls and
// SpeedupBatch calls are returned one by one; the rest as a total.
func coreCalls(req *request) (opt, batch opTimes, other time.Duration, err error) {
	type group struct {
		p     core.Problem
		arch  core.Architecture
		op    sweep.Op
		procs []int
	}
	var groups []*group
	byKey := map[string]*group{}
	batched := req.sweep != nil && len(req.sweep.Procs) > 0
	for _, s := range req.specs() {
		p, err := s.Problem()
		if err != nil {
			return nil, nil, 0, err
		}
		arch, err := s.Machine.Machine()
		if err != nil {
			return nil, nil, 0, err
		}
		if batched {
			key := fmt.Sprintf("%d/%s/%s/%s", s.N, s.Stencil, s.Shape, s.Machine.Type)
			g := byKey[key]
			if g == nil {
				g = &group{p: p, arch: arch, op: s.Op}
				byKey[key] = g
				groups = append(groups, g)
			}
			g.procs = append(g.procs, s.Procs)
			continue
		}
		t0 := time.Now()
		switch s.Op {
		case sweep.OpOptimize, "":
			_, err = core.Optimize(p, arch)
			opt = append(opt, time.Since(t0))
		case sweep.OpOptimizeSnapped:
			_, err = core.OptimizeSnapped(p, arch)
			opt = append(opt, time.Since(t0))
		case sweep.OpSpeedup:
			_, err = core.Speedup(p, arch, s.Procs)
		case sweep.OpAmdahl:
			_, err = core.AmdahlSpeedup(p, arch, s.Procs)
		case sweep.OpGustafson:
			_, err = core.GustafsonSpeedup(p, arch, s.Procs)
		case sweep.OpCriticalPath:
			_, err = core.CriticalPathBound(p, arch, s.Procs)
		default:
			err = fmt.Errorf("no core call for op %q", s.Op)
		}
		if s.Op != sweep.OpOptimize && s.Op != "" && s.Op != sweep.OpOptimizeSnapped {
			other += time.Since(t0)
		}
		if err != nil {
			return nil, nil, 0, err
		}
	}
	for _, g := range groups {
		t0 := time.Now()
		switch g.op {
		case sweep.OpSpeedup:
			_, _, err = core.SpeedupBatch(g.p, g.arch, g.procs)
		case sweep.OpAmdahl:
			_, _, err = core.AmdahlBatch(g.p, g.arch, g.procs)
		case sweep.OpGustafson:
			_, _, err = core.GustafsonBatch(g.p, g.arch, g.procs)
		case sweep.OpCriticalPath:
			_, _, err = core.CriticalPathBatch(g.p, g.arch, g.procs)
		default:
			err = fmt.Errorf("no batch call for op %q", g.op)
		}
		if g.op == sweep.OpSpeedup {
			batch = append(batch, time.Since(t0))
		} else {
			other += time.Since(t0)
		}
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return opt, batch, other, nil
}

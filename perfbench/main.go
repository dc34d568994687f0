// Command perfbench is the repository's same-host benchmark of the
// optspeedd daemon. It builds nothing itself: run.sh builds the daemon
// from the checkout and then runs this program, as
//
//	bash perfbench/run.sh --workload warm_mix --seed 1 --seconds 20 --trace 0
//
// from the root of a checkout. One run starts the workload's daemons as
// subprocesses on loopback, warms them up, drives a closed loop of two
// clients for --seconds, checks every reply against an in-process
// reference engine, and prints a report whose last line is one JSON
// object. With --trace 0 that object carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, from counter deltas
// of the daemon's own GET /metrics around the window plus an in-process
// traced run of the same inputs (see traced.go). layers.json maps each
// per-layer metric to the end-to-end metric and workload it should move.
//
// Exit status: 0 for a result with every reply correct, 3 when some
// reply was wrong (the result is still printed), 1 when the benchmark
// could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"optspeed/internal/jobs"
)

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

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	daemon   string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout under test")
	flag.StringVar(&cfg.daemon, "daemon", "", "optspeedd binary built from the checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.daemon == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, --seconds >= 1 and --trace 0 or 1")
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

// report prints one labelled line of the human-readable report.
func report(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func run(cfg config) (*result, error) {
	wl, err := makeWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	rf := newReference()
	// Reference answers for every request a warm seed generates, before
	// any daemon starts (a cold run's requests are answered after the
	// window, for exactly the requests sent).
	for _, req := range wl.pool {
		if req.kind == kindJob {
			_, err = rf.jobElems(req)
		} else {
			_, err = rf.results(req)
		}
		if err != nil {
			return nil, err
		}
	}
	dir, err := runDir(cfg.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e2e, err := runWindow(cfg, wl, rf, dir, wl.cluster, setupRuns)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(cfg, e2e)
	fpLine, _ := json.Marshal(fp)
	report("perfbench host %s", fpLine)
	e2eMetrics := e2e.endToEnd()
	printMetrics("end_to_end", e2eMetrics)
	report("samples ops=%d failed=%d wrong=%d shed=%d failed_ratio=%.6f; figures are medians of %d sub-windows, "+
		"latency_p50 from n=%d, latency_p95 from n=%d with %d beyond",
		e2e.st.attempted, e2e.st.failed, e2e.st.wrong, e2e.st.shed, e2e.st.failedRatio(), subWindows,
		e2e.p50.samples, e2e.p95.samples, e2e.p95.beyond)
	report("sub-window ops_per_s %.1f; share of CPU time stolen from this host by its hypervisor %.3f (window %.3f), "+
		"figures from sub-windows %d", e2e.rates, e2e.st.steal, e2e.st.stealAll, leastStolen(e2e.st.steal))
	printMetrics("counter", e2e.failureCounters())
	if wl.cold {
		report("cold requests %d with grid sizes n in [%d, %d]", e2e.coldSent, e2e.nLo, e2e.nHi)
	}
	if e2e.st.firstErr != nil {
		report("first failure: %v", e2e.st.firstErr)
	}

	res := &result{Correct: e2e.st.wrong == 0, Attempted: e2e.st.attempted, Failed: e2e.st.failed}
	if !cfg.trace {
		res.Metrics = e2eMetrics
		return res, nil
	}
	if wl.cluster {
		// The paper's question asked of the repository itself: do a
		// second and third process pay off at this problem size? The
		// same seed's requests on one daemon give the base. Not gated;
		// printed by --trace 1 runs only, which take longer anyway, so
		// that the end-to-end runs stay short.
		single, err := runWindow(cfg, wl, rf, dir, false, 1)
		if err != nil {
			return nil, err
		}
		if single.st.wrong > 0 {
			res.Correct = false
		}
		report("answer cluster_cold.ops_per_s / sweep_cold.ops_per_s = %.4f (cluster %.2f ops/s over 3 processes, "+
			"single node %.2f ops/s over 1 process; both on %d cores, seed %d, %d clients, n in [%d, %d] and [%d, %d])",
			e2e.opsPS/single.opsPS, e2e.opsPS, single.opsPS, runtime.NumCPU(), cfg.seed, clients,
			e2e.nLo, e2e.nHi, single.nLo, single.nHi)
	}
	layers := e2e.counterLayers()
	traced, err := tracedRun(cfg, wl, dir)
	if err != nil {
		return nil, err
	}
	for k, v := range traced {
		layers[k] = v
	}
	printMetrics("per_layer", layers)
	res.Metrics = layers
	return res, nil
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		report("%s %-34s %14.6g %s", kind, k, ms[k].Value, ms[k].Unit)
	}
}

// windowRun is one timed window and what was scraped around it.
type windowRun struct {
	st            *opStats
	setups        []float64
	rssMB         float64
	opsPS         float64
	windowOps     int       // operations attempted in the timed window
	rates         []float64 // ops per second of each sub-window
	nLo, nHi      int       // grid sizes of the cold requests sent
	coldSent      int
	p50, p95      percentile
	front         [2]promSample // before, after
	all           [2]promSample // summed over every daemon
	flags         [][]string
	serverWorkers float64
}

// The untimed closed loop before every window lasts settleTime and, on
// workloads with job rounds, until the daemon's job store has filled to
// its default capacity, so the window sees capacity eviction from its
// first part to its last (bounded by maxSettle).
const (
	settleTime = time.Second
	maxSettle  = 30 * time.Second
)

// runWindow sets the topology up the given number of times (keeping
// the last), drives the timed window, scrapes the daemons around it and
// checks every reply.
func runWindow(cfg config, wl *workload, rf *reference, dir string, cluster bool, setups int) (*windowRun, error) {
	ctx := context.Background()
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	w := &windowRun{}
	var topo *topology
	var cs []*client
	defer func() {
		for _, c := range cs {
			c.close()
		}
		topo.stop()
	}()
	for k := 0; k < setups; k++ {
		sub, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		topo, err = startTopology(cfg.daemon, sub, cluster, hc)
		if err != nil {
			return nil, err
		}
		cs = cs[:0]
		for i := 0; i < clients; i++ {
			cs = append(cs, newClient(topo.front.base, rf))
		}
		if err := warmUp(ctx, cs, wl.warmup); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
		if k < setups-1 {
			for _, c := range cs {
				c.close()
			}
			topo.stop()
			topo = nil
		}
	}
	for _, d := range topo.all {
		w.flags = append(w.flags, d.flags)
	}
	scrapeAll := func() (promSample, promSample, error) {
		sum := make(promSample)
		var front promSample
		for _, d := range topo.all {
			s, err := d.scrape(ctx, hc)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range s {
				sum[k] += v
			}
			if d == topo.front {
				front = s
			}
		}
		return front, sum, nil
	}
	// The same closed loop before the window, so the daemons' heaps,
	// connections, caches and job stores settle; its replies are checked
	// and its failures counted, but it is not timed.
	var next atomic.Int64
	var kept []coldBody
	var minJobs int64
	for _, req := range wl.pool {
		if req.kind == kindJob {
			minJobs = jobs.DefaultCapacity
		}
	}
	settle := closedLoop(ctx, cs, wl, settleTime, minJobs, &next, &kept)
	var err error
	if w.front[0], w.all[0], err = scrapeAll(); err != nil {
		return nil, err
	}
	w.st = closedLoop(ctx, cs, wl, time.Duration(cfg.seconds)*time.Second, 0, &next, &kept)
	w.windowOps = w.st.attempted
	w.st.attempted += settle.attempted
	w.st.failed += settle.failed
	w.st.wrong += settle.wrong
	w.st.shed += settle.shed
	if w.st.firstErr == nil {
		w.st.firstErr = settle.firstErr
	}
	if w.front[1], w.all[1], err = scrapeAll(); err != nil {
		return nil, err
	}
	w.serverWorkers = w.front[1].sum("optspeed_engine_workers")
	for _, d := range topo.all {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		w.rssMB += mb
	}
	if len(kept) > 0 {
		w.coldSent = len(kept)
		w.nLo, w.nHi = nRange(kept)
		_ = checkCold(rf, kept, w.st)
	}
	w.opsPS, w.p50, w.p95, w.rates = w.st.windowFigures(time.Duration(cfg.seconds) * time.Second)
	return w, nil
}

// endToEnd is the --trace 0 metric set.
func (w *windowRun) endToEnd() map[string]metric {
	return map[string]metric{
		"ops_per_s":      {w.opsPS, "1/s"},
		"latency_p50_ms": {w.p50.ms(), "ms"},
		"latency_p95_ms": {w.p95.ms(), "ms"},
		"setup_s":        {median(append([]float64(nil), w.setups...)), "s"},
		"rss_peak_mb":    {w.rssMB, "MB"},
	}
}

// windowDelta is the delta of family name over the window.
func windowDelta(s [2]promSample, name string) float64 { return delta(s[0], s[1], name) }

// counterLayers is the per-layer metric set read from the daemons' own
// counters around the window. service, admit and dispatch come from the
// daemon the clients talk to; sweep and telemetry are summed over every
// daemon, since a coordinator's workers do its evaluation.
func (w *windowRun) counterLayers() map[string]metric {
	ops := float64(w.windowOps)
	f, a := w.front, w.all
	perOp := func(v float64) float64 { return v / ops }
	ratio := func(num, den float64, empty float64) float64 {
		if den == 0 {
			return empty
		}
		return num / den
	}
	handlerCount := windowDelta(f, "optspeed_http_request_duration_seconds_count")
	handlerMs := ratio(windowDelta(f, "optspeed_http_request_duration_seconds_sum")*1e3, handlerCount, 0)
	clientMs := ratio(float64(w.st.reqDur)/float64(time.Millisecond), float64(w.st.reqs), 0)
	planned := windowDelta(f, "optspeed_dispatch_shards_planned_total")
	retried := windowDelta(f, "optspeed_dispatch_shards_retried_total")
	hedges := windowDelta(f, "optspeed_dispatch_hedges_launched_total")
	hits, evals := windowDelta(a, "optspeed_engine_cache_hits_total"), windowDelta(a, "optspeed_engine_evaluations_total")
	return map[string]metric{
		"service.handler_ms":            {handlerMs, "ms"},
		"service.outside_ms":            {clientMs - handlerMs, "ms"},
		"service.resp_bytes_per_op":     {perOp(float64(w.st.respBytes)), "count"},
		"service.requests_per_op":       {perOp(float64(w.st.reqs)), "count"},
		"admit.admitted_per_op":         {perOp(windowDelta(f, "optspeed_admission_gate_admitted_total")), "count"},
		"dispatch.shards_per_op":        {perOp(planned), "count"},
		"dispatch.hedges_per_kop":       {1000 * perOp(hedges), "count"},
		"dispatch.useful_attempt_ratio": {ratio(planned, planned+hedges+retried, 1), "ratio"},
		"sweep.evaluations_per_op":      {perOp(evals), "count"},
		"sweep.cache_hit_ratio":         {ratio(hits, hits+evals, 0), "ratio"},
		"telemetry.spans_per_op":        {perOp(windowDelta(a, "optspeed_trace_spans_recorded_total")), "count"},
	}
}

// failureCounters are counters of the front daemon that are 0 on every
// workload at this commit: sheds, shard retries and shard fallbacks. A
// metric of BENCHMARK.json must never be 0, so they are printed in every
// report, as failed_ratio is, and are not per-layer metrics.
func (w *windowRun) failureCounters() map[string]metric {
	perKop := func(name string) float64 { return 1000 * windowDelta(w.front, name) / float64(w.windowOps) }
	return map[string]metric{
		"admit.shed_per_kop":        {perKop("optspeed_admission_gate_shed_total"), "count"},
		"dispatch.retried_per_kop":  {perKop("optspeed_dispatch_shards_retried_total"), "count"},
		"dispatch.fallback_per_kop": {perKop("optspeed_dispatch_shards_fallback_total"), "count"},
	}
}

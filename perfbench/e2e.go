package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per CPU of the host the
// benchmark was written on (nproc = 2), each with one connection.
const clients = 2

// setupRuns is how many times a run sets its topology up; setup_s is
// the median.
const setupRuns = 5

// topology is the daemons one workload runs against. front is the
// daemon the clients talk to; all lists every daemon, front last.
type topology struct {
	front *daemon
	all   []*daemon
}

func (t *topology) stop() {
	if t == nil {
		return
	}
	var wg sync.WaitGroup
	for _, d := range t.all {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// startTopology execs the workload's daemons and waits until each one
// answers /healthz. Flags are the daemon defaults except the loopback
// address and the peers of the coordinator.
func startTopology(bin, dir string, cluster bool, hc *http.Client) (*topology, error) {
	t := &topology{}
	start := func(name string, extra ...string) (*daemon, error) {
		flags := append([]string{"-addr", "127.0.0.1:0"}, extra...)
		d, err := startDaemon(bin, filepath.Join(dir, name+".log"), flags)
		if err != nil {
			return nil, err
		}
		t.all = append(t.all, d)
		return d, nil
	}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}
	var extra []string
	if cluster {
		var peers []string
		for i := 0; i < 2; i++ {
			w, err := start(fmt.Sprintf("worker%d", i))
			if err != nil {
				return fail(err)
			}
			peers = append(peers, w.base)
		}
		extra = append(extra, "-peers", strings.Join(peers, ","))
	}
	front, err := start("front", extra...)
	if err != nil {
		return fail(err)
	}
	t.front = front
	for _, d := range t.all {
		if err := d.waitHealthy(hc); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

// opStats is what the closed loop measured.
type opStats struct {
	attempted, failed, wrong, shed int
	latencies                      []time.Duration
	finished                       []time.Duration // when each latency sample ended, since the window opened
	elapsed                        time.Duration
	reqs                           int
	respBytes                      int64
	reqDur                         time.Duration
	firstErr                       error
	// steal is the share of the host's CPU time its hypervisor gave to
	// other guests in each sub-window (nil when not every boundary was
	// sampled), stealAll the share over the whole loop.
	steal    []float64
	stealAll float64
}

func (s *opStats) record(lat time.Duration, err error) {
	s.attempted++
	if err == nil {
		s.latencies = append(s.latencies, lat)
		return
	}
	s.failed++
	var wrong *wrongOutput
	var he *httpError
	switch {
	case errors.As(err, &wrong):
		s.wrong++
	case errors.As(err, &he) && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable):
		s.shed++
	}
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *opStats) merge(o *opStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
	s.shed += o.shed
	s.latencies = append(s.latencies, o.latencies...)
	s.finished = append(s.finished, o.finished...)
	s.reqs += o.reqs
	s.respBytes += o.respBytes
	s.reqDur += o.reqDur
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// subWindows is how many equal parts of the window the end-to-end
// figures are taken over. Each figure is the median over the half of the
// parts in which the hypervisor took the least CPU time from the host
// (steal), so that neither a burst of interference from outside the
// benchmark nor an episode of other guests' load on the host, which
// can last half the window, moves the result.
const subWindows = 8

// windowFigures returns ops per second and the p50 and p95 latency as
// medians over the least-stolen half of the sub-windows (over all of
// them when steal was not sampled). An op counts in the part it ended
// in; ops that ended after the window count in the last part, whose
// length runs to the end of the last op.
func (s *opStats) windowFigures(window time.Duration) (opsPerSec float64, p50, p95 percentile, rates []float64) {
	part := window / subWindows
	lats := make([][]time.Duration, subWindows)
	for i, at := range s.finished {
		k := min(int(at/part), subWindows-1)
		lats[k] = append(lats[k], s.latencies[i])
	}
	rates = make([]float64, subWindows)
	for k := range lats {
		d := part
		if k == subWindows-1 {
			d = s.elapsed - part*(subWindows-1)
		}
		rates[k] = float64(len(lats[k])) / d.Seconds()
	}
	var kept []float64
	var all50, all95 []percentile
	for _, k := range leastStolen(s.steal) {
		kept = append(kept, rates[k])
		all50 = append(all50, latencyPercentile(lats[k], 0.50))
		all95 = append(all95, latencyPercentile(lats[k], 0.95))
	}
	return median(kept), medianPercentile(all50), medianPercentile(all95), rates
}

// leastStolen returns, in order, the half of the sub-windows with the
// least steal (ties to the earlier part), or every sub-window when steal
// does not cover them all.
func leastStolen(steal []float64) []int {
	idx := make([]int, subWindows)
	for k := range idx {
		idx[k] = k
	}
	if len(steal) != subWindows {
		return idx
	}
	sort.SliceStable(idx, func(i, j int) bool { return steal[idx[i]] < steal[idx[j]] })
	idx = idx[:subWindows/2]
	sort.Ints(idx)
	return idx
}

// medianPercentile picks the sub-window percentile with the median
// value (the lower middle for an even count), keeping its sample count.
func medianPercentile(ps []percentile) percentile {
	sorted := append([]percentile(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].value < sorted[j].value })
	return sorted[(len(sorted)-1)/2]
}

func (s *opStats) failedRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// coldBody is what a cold run keeps of one reply until the window ends.
type coldBody struct {
	req *request
	got digest
}

// nRange is the smallest and the largest grid size of the kept replies'
// requests.
func nRange(kept []coldBody) (lo, hi int) {
	lo, hi = kept[0].req.sweep.Ns[0], kept[0].req.sweep.Ns[0]
	for _, kb := range kept {
		for _, n := range kb.req.sweep.Ns {
			lo, hi = min(lo, n), max(hi, n)
		}
	}
	return lo, hi
}

// warmUp sends every warm-up request once, split over the clients, and
// checks each reply against the reference.
func warmUp(ctx context.Context, cs []*client, reqs []*request) error {
	var next atomic.Int64
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || errs[k] != nil {
					return
				}
				errs[k] = c.run(ctx, reqs[i])
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop runs the clients until the window closes and at least
// minJobs job rounds have completed (or maxSettle has passed): each
// client sends its next operation only after the previous reply.
// Operations started before the end complete and count. next is the
// index of the workload's next operation. The host's CPU times are
// read at every sub-window boundary.
func closedLoop(ctx context.Context, cs []*client, wl *workload, window time.Duration, minJobs int64, next *atomic.Int64, kept *[]coldBody) *opStats {
	per := make([]opStats, len(cs))
	colds := make([][]coldBody, len(cs))
	var wg sync.WaitGroup
	var jobs atomic.Int64
	cpu := []cpuTimes{readCPUTimes()}
	start := time.Now()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < subWindows; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * window / subWindows))):
				cpu = append(cpu, readCPUTimes())
			}
		}
	}()
	more := func() bool {
		elapsed := time.Since(start)
		return elapsed < window || (jobs.Load() < minJobs && elapsed < maxSettle)
	}
	for k, c := range cs {
		if wl.cold {
			c.kept = &colds[k]
		}
		c.reqs, c.bytes, c.reqDur = 0, 0, 0
		wg.Add(1)
		go func(st *opStats, c *client) {
			defer wg.Done()
			for more() {
				req := wl.draw(int(next.Add(1)) - 1)
				t0 := time.Now()
				err := c.run(ctx, req)
				st.record(time.Since(t0), err)
				if err == nil {
					st.finished = append(st.finished, time.Since(start))
					if req.kind == kindJob {
						jobs.Add(1)
					}
				}
			}
			st.reqs, st.respBytes, st.reqDur = c.reqs, c.bytes, c.reqDur
			c.kept = nil
		}(&per[k], c)
	}
	wg.Wait()
	total := &opStats{elapsed: time.Since(start)}
	close(stop)
	<-sampled
	cpu = append(cpu, readCPUTimes())
	total.stealAll = cpu[len(cpu)-1].stealShare(cpu[0])
	if len(cpu) == subWindows+1 {
		for k := 1; k < len(cpu); k++ {
			total.steal = append(total.steal, cpu[k].stealShare(cpu[k-1]))
		}
	}
	for k := range per {
		total.merge(&per[k])
		*kept = append(*kept, colds[k]...)
	}
	return total
}

// checkCold compares every kept cold reply with the reference after the
// window: the reply must be exactly the body a correct daemon sends for
// specs it had never seen.
func checkCold(rf *reference, kept []coldBody, st *opStats) error {
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(kept) {
					return
				}
				kb := kept[i]
				want, err := rf.coldDigest(kb.req)
				if err == nil && want != kb.got {
					err = &wrongOutput{fmt.Errorf("cold reply to %.120s differs from the reference (%d bytes, want %d)",
						kb.req.body, kb.got.n, want.n)}
				}
				if err != nil {
					mu.Lock()
					st.failed++
					st.wrong++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if st.firstErr == nil {
		st.firstErr = firstErr
	}
	return firstErr
}

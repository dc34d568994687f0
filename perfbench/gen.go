package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// opKind is what one operation sends.
type opKind int

const (
	kindOptimize opKind = iota // POST /v1/optimize
	kindSweep                  // POST /v1/sweep
	kindLaws                   // POST /v2/laws
	kindJob                    // POST /v2/jobs, poll, read every page
)

var kindNames = [...]string{"optimize", "sweep", "laws", "job"}

func (k opKind) String() string { return kindNames[k] }

// request is one generated input: its wire body plus the decoded form
// the reference and the in-process passes use. Exactly one of opt,
// laws and sweep is set, matching kind (jobs carry a sweep).
type request struct {
	kind  opKind
	path  string
	body  []byte
	opt   *service.OptimizeRequest
	laws  *service.LawsRequest
	sweep *sweep.Space
}

// specs lists the specs the request evaluates, in response order.
func (r *request) specs() []sweep.Spec {
	switch r.kind {
	case kindOptimize:
		s := sweep.Spec{N: r.opt.N, Stencil: r.opt.Stencil, Shape: r.opt.Shape, Machine: r.opt.Machine}
		if r.opt.Snapped {
			s.Op = sweep.OpOptimizeSnapped
		}
		return []sweep.Spec{s}
	case kindLaws:
		return lawsSpecs(*r.laws)
	default:
		return r.sweep.Expand()
	}
}

// jobsRequest is the request as the jobs layer receives it.
func (r *request) jobsRequest() jobs.Request {
	if r.sweep != nil {
		sp := *r.sweep
		return jobs.Request{Kind: jobs.KindSweep, Space: &sp}
	}
	return jobs.Request{Kind: jobs.KindSweep, Specs: r.specs()}
}

// lawsSpecs lays a laws request out the way POST /v2/laws documents
// it: the optimal allocation, then per processor count the model
// speedup and the Amdahl, Gustafson and critical-path values.
func lawsSpecs(req service.LawsRequest) []sweep.Spec {
	base := sweep.Spec{N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine}
	specs := []sweep.Spec{base}
	for _, q := range req.Procs {
		for _, op := range [...]sweep.Op{sweep.OpSpeedup, sweep.OpAmdahl, sweep.OpGustafson, sweep.OpCriticalPath} {
			s := base
			s.Op, s.Procs = op, q
			specs = append(specs, s)
		}
	}
	return specs
}

var (
	stencils = []string{"5-point", "9-point", "9-star", "13-point"}
	shapes   = []string{"strip", "square"}
	machines = func() []core.MachineSpec {
		var ms []core.MachineSpec
		for _, t := range core.MachineTypes() {
			ms = append(ms, core.MachineSpec{Type: t})
		}
		return ms
	}()
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal generated body: %v", err))
	}
	return b
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// pickN draws k distinct elements of xs in their original order.
func pickN[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:k]
	keep := make([]bool, len(xs))
	for _, i := range idx {
		keep[i] = true
	}
	var out []T
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// distinctNs draws k distinct grid sizes from [lo, hi), ascending.
func distinctNs(rng *rand.Rand, lo, hi, k int) []int {
	seen := make(map[int]bool, k)
	for len(seen) < k {
		seen[lo+rng.Intn(hi-lo)] = true
	}
	var ns []int
	for n := lo; n < hi; n++ {
		if seen[n] {
			ns = append(ns, n)
		}
	}
	return ns
}

func denseProcs(from, to int) []int {
	var ps []int
	for q := from; q <= to; q++ {
		ps = append(ps, q)
	}
	return ps
}

func newSync(kind opKind, sp sweep.Space) *request {
	body := mustJSON(service.SweepRequest{Space: &sp})
	if kind == kindJob {
		body = mustJSON(service.JobSubmitRequest{Sweep: &service.SweepRequest{Space: &sp}})
		return &request{kind: kind, path: "/v2/jobs", body: body, sweep: &sp}
	}
	return &request{kind: kind, path: "/v1/sweep", body: body, sweep: &sp}
}

// warmMixPool builds warm_mix's request pool: optimize queries, small
// optimize / batched speedup / amdahl sweep spaces (optload's shapes),
// laws overlays and small job spaces. Sizes are fixed, so seeds differ
// in values, not in work. The union is under 3,000 specs, far inside
// the engine's 65,536-spec cache, so after warm-up every spec is a hit.
func warmMixPool(rng *rand.Rand) (opt, sw, laws, job []*request) {
	for i := 0; i < 40; i++ {
		q := service.OptimizeRequest{
			N: 32 + rng.Intn(993), Stencil: pick(rng, stencils), Shape: pick(rng, shapes),
			Machine: pick(rng, machines), Snapped: i%5 == 0,
		}
		opt = append(opt, &request{kind: kindOptimize, path: "/v1/optimize", body: mustJSON(q), opt: &q})
	}
	for i := 0; i < 8; i++ {
		// 3 ns x 2 stencils x 2 shapes x 2 machines = 48 specs.
		sw = append(sw, newSync(kindSweep, sweep.Space{
			Ns: distinctNs(rng, 32, 1024, 3), Stencils: pickN(rng, stencils, 2),
			Shapes: shapes, Machines: pickN(rng, machines, 2),
		}))
		// 1 n x 1 stencil x 2 shapes x 2 machines x 12 procs = 48 specs.
		sw = append(sw, newSync(kindSweep, sweep.Space{
			Op: sweep.OpSpeedup, Ns: distinctNs(rng, 64, 1024, 1), Stencils: []string{pick(rng, stencils)},
			Shapes: shapes, Machines: pickN(rng, machines, 2), Procs: []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
		}))
		// 1 n x 1 stencil x 1 shape x 2 machines x 8 procs = 16 specs.
		sw = append(sw, newSync(kindSweep, sweep.Space{
			Op: sweep.OpAmdahl, Ns: distinctNs(rng, 128, 1024, 1), Stencils: []string{pick(rng, stencils)},
			Shapes: []string{pick(rng, shapes)}, Machines: pickN(rng, machines, 2), Procs: []int{1, 2, 4, 8, 16, 32, 64, 128},
		}))
	}
	for i := 0; i < 16; i++ {
		q := service.LawsRequest{
			N: 64 + rng.Intn(961), Stencil: pick(rng, stencils), Shape: pick(rng, shapes),
			Machine: pick(rng, machines), Procs: []int{1, 2, 4, 8, 16, 32, 64},
		}
		laws = append(laws, &request{kind: kindLaws, path: "/v2/laws", body: mustJSON(q), laws: &q})
	}
	for i := 0; i < 16; i++ {
		// 3 ns x 1 stencil x 2 shapes x 2 machines = 12 specs.
		job = append(job, newSync(kindJob, sweep.Space{
			Ns: distinctNs(rng, 32, 1024, 3), Stencils: []string{pick(rng, stencils)},
			Shapes: shapes, Machines: pickN(rng, machines, 2),
		}))
	}
	return opt, sw, laws, job
}

// Cold grid sizes are drawn from [coldNLo, coldNHi) for every request,
// so a request costs the same wherever a run has got to.
const (
	coldNLo     = 512
	coldNHi     = 2048
	coldWarmOps = 16 // the first requests of the sequence warm up
)

// coldRequest is request i of the cold sequence of sweep_cold and
// cluster_cold. Even requests are optimize spaces over all six machine
// classes (32 ns x 2 stencils x 2 shapes x 6 machines = 768 specs); odd
// ones are batched speedup spaces over a dense procs axis (4 ns x 1
// stencil x 2 shapes x 6 machines x 32 procs = 1,536 specs). Both exceed
// the default 512-spec shard, so a coordinator splits every request.
// What makes every spec new is the machine calibration: request i
// scales the time per flop by 1 + (i+1)/2^20, which no other request
// uses and which leaves the cost of a spec unchanged. Over a run the
// distinct specs overflow the engine's 65,536-spec cache, so its LRU
// evicts.
func coldRequest(seed int64, i int) *request {
	rng := newRand(seed*1_000_003 + int64(i))
	ms := make([]core.MachineSpec, len(machines))
	for k, m := range machines {
		m.Tflp = core.DefaultTflp * (1 + float64(i+1)/(1<<20))
		ms[k] = m
	}
	if i%2 == 0 {
		return newSync(kindSweep, sweep.Space{
			Ns: distinctNs(rng, coldNLo, coldNHi, 32), Stencils: pickN(rng, stencils, 2), Shapes: shapes, Machines: ms,
		})
	}
	return newSync(kindSweep, sweep.Space{
		Op: sweep.OpSpeedup, Ns: distinctNs(rng, coldNLo, coldNHi, 4), Stencils: []string{pick(rng, stencils)},
		Shapes: shapes, Machines: ms, Procs: denseProcs(1, 32),
	})
}

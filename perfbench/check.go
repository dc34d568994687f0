package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"

	"optspeed/internal/core"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// reference answers every generated request on an in-process engine,
// independently of the daemon, and turns the answers into the bytes a
// correct daemon sends. Sync bodies are compared byte for byte with the
// encoding/json rendering of the reference (the daemon's hand-rolled
// encoders are pinned to encoding/json's bytes); laws bodies and job
// pages are decoded and compared field by field.
type reference struct {
	eng *sweep.Engine
	mu  sync.Mutex
	// verified maps a request to a body already shown correct, so a
	// repeat of a warm request costs one bytes.Equal.
	verified map[*request][]byte
	// elems maps a job request to the expected wire bytes of each
	// result, by index, with cache_hit true.
	elems map[*request][][]byte
	// cold maps a cold request body to the digest of its correct reply,
	// so a body sent to two topologies is answered once.
	cold map[string]digest
}

func newReference() *reference {
	return &reference{
		eng:      sweep.New(sweep.Options{}),
		verified: make(map[*request][]byte),
		elems:    make(map[*request][][]byte),
		cold:     make(map[string]digest),
	}
}

// results evaluates the request on the reference engine, in response order.
func (rf *reference) results(req *request) ([]sweep.Result, error) {
	ctx := context.Background()
	var res []sweep.Result
	var err error
	if req.sweep != nil {
		res, err = rf.eng.RunSpace(ctx, *req.sweep)
	} else {
		res, err = rf.eng.Run(ctx, req.specs())
	}
	if err != nil {
		return nil, err
	}
	for i := range res {
		if res[i].Err != nil {
			return nil, fmt.Errorf("generated spec %d (%+v) has no answer: %v", i, res[i].Spec, res[i].Err)
		}
	}
	return res, nil
}

// wireResult is the wire form of one reference result: the documented
// SweepResultJSON mapping (allocation fields for the optimize ops, Value
// for the scalar ops), rebuilt here from the struct's contract.
func wireResult(res sweep.Result, hit bool) service.SweepResultJSON {
	jr := service.SweepResultJSON{Index: res.Index, Spec: res.Spec, CacheHit: hit, Grid: res.Grid, Value: res.Value}
	if res.Alloc.Procs > 0 {
		jr.Procs, jr.Area, jr.CycleTime, jr.Speedup = res.Alloc.Procs, res.Alloc.Area, res.Alloc.CycleTime, res.Alloc.Speedup
	}
	return jr
}

// encodeBody renders v exactly as json.Encoder does: HTML-escaped and
// newline-terminated.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encode reference: %v", err))
	}
	return buf.Bytes()
}

// expectedBody is the exact body a correct daemon returns for a sync
// optimize or sweep request whose specs were all cache hits (hit) or
// all fresh evaluations (!hit).
func (rf *reference) expectedBody(req *request, hit bool) ([]byte, error) {
	res, err := rf.results(req)
	if err != nil {
		return nil, err
	}
	if req.kind == kindOptimize {
		a := res[0].Alloc
		return encodeBody(service.OptimizeResponse{
			N: req.opt.N, Stencil: req.opt.Stencil, Shape: req.opt.Shape, Arch: a.Arch,
			Procs: a.Procs, Area: a.Area, CycleTime: a.CycleTime, Speedup: a.Speedup,
			UsedAll: a.UsedAll, Single: a.Single, Interior: a.Interior, CacheHit: hit,
		}), nil
	}
	resp := service.SweepResponse{Results: make([]service.SweepResultJSON, len(res))}
	for i := range res {
		resp.Results[i] = wireResult(res[i], hit)
	}
	resp.Stats.Specs = len(res)
	if hit {
		resp.Stats.CacheHits = len(res)
	} else {
		resp.Stats.Evaluated = len(res)
	}
	return encodeBody(resp), nil
}

// coldDigest is the digest of the reply a correct daemon sends to a
// request whose specs it has never seen.
func (rf *reference) coldDigest(req *request) (digest, error) {
	rf.mu.Lock()
	d, ok := rf.cold[string(req.body)]
	rf.mu.Unlock()
	if ok {
		return d, nil
	}
	want, err := rf.expectedBody(req, false)
	if err != nil {
		return digest{}, err
	}
	d = digestOf(want)
	rf.mu.Lock()
	rf.cold[string(req.body)] = d
	rf.mu.Unlock()
	return d, nil
}

// digest is a 64-bit checksum plus length, what a cold run keeps of a
// body it cannot afford to hold.
type digest struct {
	n      int
	c1, c2 uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(b []byte) digest {
	return digest{n: len(b), c1: crc32.ChecksumIEEE(b), c2: crc32.Checksum(b, castagnoli)}
}

// checkSync checks one optimize, sweep or laws body. A body equal to a
// verified one passes at the cost of a comparison; anything else is
// decoded and compared field by field, ignoring cache_hit flags, and
// then becomes the verified body.
func (rf *reference) checkSync(req *request, body []byte) error {
	rf.mu.Lock()
	v := rf.verified[req]
	rf.mu.Unlock()
	if v != nil && bytes.Equal(v, body) {
		return nil
	}
	res, err := rf.results(req)
	if err != nil {
		return err
	}
	switch req.kind {
	case kindOptimize:
		err = checkOptimize(req, res[0], body)
	case kindLaws:
		err = checkLaws(req, res, body)
	default:
		err = checkSweep(res, body)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.kind, req.body, err)
	}
	rf.mu.Lock()
	rf.verified[req] = bytes.Clone(body)
	rf.mu.Unlock()
	return nil
}

func checkOptimize(req *request, ref sweep.Result, body []byte) error {
	var got service.OptimizeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	a := ref.Alloc
	want := service.OptimizeResponse{
		N: req.opt.N, Stencil: req.opt.Stencil, Shape: req.opt.Shape, Arch: a.Arch,
		Procs: a.Procs, Area: a.Area, CycleTime: a.CycleTime, Speedup: a.Speedup,
		UsedAll: a.UsedAll, Single: a.Single, Interior: a.Interior, CacheHit: got.CacheHit,
	}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func sameResult(got, want service.SweepResultJSON) bool {
	got.CacheHit = want.CacheHit
	return got == want
}

func checkSweep(ref []sweep.Result, body []byte) error {
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Results) != len(ref) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(ref))
	}
	for i := range ref {
		if want := wireResult(ref[i], false); !sameResult(got.Results[i], want) {
			return fmt.Errorf("result %d: got %+v, want %+v", i, got.Results[i], want)
		}
	}
	st := got.Stats
	if st.Specs != len(ref) || st.Errors != 0 || st.CacheHits+st.Evaluated != len(ref) {
		return fmt.Errorf("stats %+v for %d specs", st, len(ref))
	}
	return nil
}

func checkLaws(req *request, ref []sweep.Result, body []byte) error {
	var got service.LawsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	q := req.laws
	p, err := ref[0].Spec.Problem()
	if err != nil {
		return err
	}
	arch, err := q.Machine.Machine()
	if err != nil {
		return err
	}
	canon, err := core.SpecFor(arch)
	if err != nil {
		return err
	}
	pi, err := core.CriticalPathRatio(p, arch)
	if err != nil {
		return err
	}
	opt := ref[0].Alloc
	if got.N != q.N || got.Stencil != q.Stencil || got.Shape != q.Shape || got.Machine != canon ||
		got.SerialFraction != opt.SerialFraction() || got.CriticalPathRatio != pi ||
		got.OptimalProcs != opt.Procs || got.OptimalSpeedup != opt.Speedup {
		return fmt.Errorf("anchors differ: %+v", got)
	}
	if len(got.Points) != len(q.Procs) {
		return fmt.Errorf("%d points, want %d", len(got.Points), len(q.Procs))
	}
	for i, procs := range q.Procs {
		b := 1 + 4*i
		want := service.LawsPoint{Procs: procs, Model: ref[b].Value, Amdahl: ref[b+1].Value,
			Gustafson: ref[b+2].Value, CriticalPath: ref[b+3].Value}
		if got.Points[i] != want {
			return fmt.Errorf("point %d: got %+v, want %+v", i, got.Points[i], want)
		}
	}
	if st := got.Stats; st.Specs != len(ref) || st.Errors != 0 || st.CacheHits+st.Evaluated != len(ref) {
		return fmt.Errorf("stats %+v for %d specs", st, len(ref))
	}
	return nil
}

// jobElems returns the expected wire bytes of each of a job's results,
// by index, as a warm daemon sends them.
func (rf *reference) jobElems(req *request) ([][]byte, error) {
	rf.mu.Lock()
	e := rf.elems[req]
	rf.mu.Unlock()
	if e != nil {
		return e, nil
	}
	res, err := rf.results(req)
	if err != nil {
		return nil, err
	}
	e = make([][]byte, len(res))
	for i := range res {
		e[i] = mustJSON(wireResult(res[i], true))
	}
	rf.mu.Lock()
	rf.elems[req] = e
	rf.mu.Unlock()
	return e, nil
}

// jobCheck reassembles one job's result pages against the reference.
type jobCheck struct {
	want [][]byte
	seen []bool
	got  int
}

func (rf *reference) newJobCheck(req *request) (*jobCheck, error) {
	want, err := rf.jobElems(req)
	if err != nil {
		return nil, err
	}
	return &jobCheck{want: want, seen: make([]bool, len(want))}, nil
}

// resultsPage is one results page of a job, its results kept raw.
type resultsPage struct {
	JobID      string            `json:"job_id"`
	State      string            `json:"state"`
	NextCursor string            `json:"next_cursor"`
	Done       bool              `json:"done"`
	Results    []json.RawMessage `json:"results"`
}

// page checks one results page of job id and returns it. Results are
// matched by index against the expected bytes; a result whose bytes
// differ is decoded and compared field by field, ignoring cache_hit.
func (jc *jobCheck) page(id string, body []byte) (*resultsPage, error) {
	var p resultsPage
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("results page: %w", err)
	}
	if p.JobID != id {
		return nil, fmt.Errorf("page for job %q, want %q", p.JobID, id)
	}
	for _, el := range p.Results {
		var head struct {
			Index *int `json:"index"`
		}
		if err := json.Unmarshal(el, &head); err != nil {
			return nil, err
		}
		if head.Index == nil || *head.Index < 0 || *head.Index >= len(jc.want) || jc.seen[*head.Index] {
			return nil, fmt.Errorf("result %.60s: bad or repeated index", el)
		}
		idx := *head.Index
		jc.seen[idx] = true
		jc.got++
		if bytes.Equal(el, jc.want[idx]) {
			continue
		}
		var got, want service.SweepResultJSON
		if err := json.Unmarshal(el, &got); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(jc.want[idx], &want); err != nil {
			return nil, err
		}
		if !sameResult(got, want) {
			return nil, fmt.Errorf("result %d: got %s, want %s", idx, el, jc.want[idx])
		}
	}
	return &p, nil
}

// done checks that the job delivered every result exactly once.
func (jc *jobCheck) done(state string) error {
	if state != "succeeded" {
		return fmt.Errorf("job ended %q", state)
	}
	if jc.got != len(jc.want) {
		return fmt.Errorf("job delivered %d of %d results", jc.got, len(jc.want))
	}
	return nil
}

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
	"optspeed/internal/wire"
)

// encodeJSONLine marshals v exactly the way the handlers used to —
// json.Encoder with default HTML escaping, newline-terminated — the
// reference output every internal/wire encoder is held to.
func encodeJSONLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepResultJSON is the documented mapping from one engine result to
// its SweepResultJSON wire form, rebuilt from the struct's contract:
// allocation fields when the allocation has processors, the scaled
// point for a successful scaled op, and a recovered evaluation panic
// reported without its text.
func sweepResultJSON(res sweep.Result) SweepResultJSON {
	jr := SweepResultJSON{
		Index:    res.Index,
		Spec:     res.Spec,
		CacheHit: res.CacheHit,
		Grid:     res.Grid,
		Value:    res.Value,
	}
	if res.Alloc.Procs > 0 {
		jr.Procs = res.Alloc.Procs
		jr.Area = res.Alloc.Area
		jr.CycleTime = res.Alloc.CycleTime
		jr.Speedup = res.Alloc.Speedup
	}
	if res.Spec.Op == sweep.OpScaled && res.Err == nil {
		jr.ProcsUsed = res.Scaled.Procs
		jr.CycleTime = res.Scaled.CycleTime
		jr.Speedup = res.Scaled.Speedup
	}
	if res.Err != nil {
		if errors.Is(res.Err, sweep.ErrEvaluationPanic) {
			jr.Error = "internal evaluation error"
		} else {
			jr.Error = res.Err.Error()
		}
	}
	return jr
}

// trickyStrings exercise every escaping branch of the string encoder:
// quotes, backslashes, short escapes, generic control bytes, the HTML
// set, multibyte runes, the JS line separators, and invalid UTF-8.
var trickyStrings = []string{
	"",
	"plain",
	`quote " and backslash \`,
	"newline\ntab\tcr\r",
	"bs \b ff \f",
	"control \x01 \x1f \x00 bytes",
	"html <b> & </b> escapes",
	"unicode é ☃ 日本語",
	"line sep \u2028 and \u2029 end",
	"invalid \xff utf8 \xc3\x28 tail",
	"del \x7f survives",
	`sweep: unknown stencil "bogus"`,
}

// trickyFloats exercise the float formatter's branches: fixed vs
// exponent notation, the 1e-6 / 1e21 thresholds, exponent zero
// trimming, negatives, and denormals.
var trickyFloats = []float64{
	0, 1, -1, 0.5, -0.25, 1.0 / 3.0,
	1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 9.999999e20, 1e22, -1e22,
	123456.789, 3.141592653589793, 2.718281828459045e-10,
	math.SmallestNonzeroFloat64, math.MaxFloat64,
	42, 1024, 0.1,
}

// TestAppendJSONStringMatchesEncodingJSON runs every tricky string
// through the results page's top-level string fields.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range trickyStrings {
		want := encodeJSONLine(t, JobResultsResponse{
			JobID: s, State: s, Results: []SweepResultJSON{}, NextCursor: "0", Done: true,
		})
		got := wire.AppendJobResultsPage(nil, s, s, nil, 0, true)
		if !bytes.Equal(got, want) {
			t.Errorf("string %q:\n got: %s\nwant: %s", s, got, want)
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON runs every tricky float
// through a result's float fields.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range trickyFloats {
		r := sweep.Result{
			Spec: sweep.Spec{Op: sweep.OpIsoeffGrid, N: 8, Stencil: "5-point", Shape: "square",
				Machine: core.MachineSpec{Type: "mesh", Tflp: f, Beta: -f}, Target: f},
			Value: f,
		}
		want := encodeJSONLine(t, StreamLine{Result: ptr(sweepResultJSON(r))})
		got := wire.AppendResultLine(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("float %v:\n got: %s\nwant: %s", f, got, want)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// wireResults is a corpus of engine results covering every op shape the
// service emits: optimize allocations, scalar speedups, grid searches,
// scaled points, cache hits, spec errors (escaped and panic-redacted),
// and machines with every override field set.
func wireResults() []sweep.Result {
	fullMachine := core.MachineSpec{
		Type: "mesh", Procs: 4096, Tflp: 1e-7, BusCycle: 2.5e-7, BusOverhead: 1e-8,
		Alpha: 1.5e-6, Beta: 4e-9, PacketWords: 8, SwitchTime: 5e-8,
		ReadsOnly: true, ConvHW: true,
	}
	return []sweep.Result{
		{Index: 0, Spec: sweep.Spec{N: 512, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Alloc: core.Allocation{Arch: "sync-bus", Procs: 37, Area: 1234.5678, CycleTime: 3.25e-5, Speedup: 21.7},
			Value: 21.7},
		{Index: 1, Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 256, Stencil: "9-point", Shape: "strip",
			Machine: fullMachine, Procs: 64},
			CacheHit: true, Value: 55.5},
		{Index: 2, Spec: sweep.Spec{Op: sweep.OpMinGrid, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}, Procs: 128},
			Grid: 96},
		{Index: 3, Spec: sweep.Spec{Op: sweep.OpIsoeffGrid, N: 16, Stencil: "13-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, Procs: 32, Target: 0.75},
			Grid: 40, Value: 7},
		{Index: 4, Spec: sweep.Spec{Op: sweep.OpScaled, N: 1024, Stencil: "9-star", Shape: "square",
			Machine: core.MachineSpec{Type: "async-bus"}, PointsPerProc: 64.5},
			Scaled: core.ScaledPoint{Procs: 16.25, CycleTime: 1e-21, Speedup: 1e21}, Value: 1e21},
		{Index: 5, Spec: sweep.Spec{N: 128, Stencil: "bogus", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Err: errors.New(`sweep: unknown stencil "bogus"`)},
		{Index: 6, Spec: sweep.Spec{N: -3, Stencil: "<&>", Shape: "\n",
			Machine: core.MachineSpec{Type: "full-async-bus", Tflp: -2.5}},
			Value: -1e-9, Err: errors.New("weird \x01 error \xff \b\f")},
		{Index: 7, Spec: sweep.Spec{Op: sweep.OpAmdahl, N: 256, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}, Procs: 16},
			Value: 9.876543},
		{Index: 8, Spec: sweep.Spec{Op: sweep.OpGustafson, N: 256, Stencil: "9-star", Shape: "strip",
			Machine: core.MachineSpec{Type: "mesh"}, Procs: 64},
			CacheHit: true, Value: 61.25},
		{Index: 9, Spec: sweep.Spec{Op: sweep.OpCriticalPath, N: 512, Stencil: "13-point", Shape: "square",
			Machine: core.MachineSpec{Type: "banyan", Procs: 256}, Procs: 1024},
			Value: 333.125},
		{Index: 10, Spec: sweep.Spec{N: 96, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}},
			Err: fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic)},
		{Index: 11, Spec: sweep.Spec{Op: sweep.OpScaled, N: 64, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "sync-bus"}, PointsPerProc: 8},
			Scaled: core.ScaledPoint{Procs: 3, CycleTime: 2, Speedup: 1}, Err: errors.New("scaled failed")},
	}
}

func TestAppendSweepResultMatchesEncodingJSON(t *testing.T) {
	for i, r := range wireResults() {
		want, err := json.Marshal(sweepResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		// The result object is the line minus its {"result":...}\n
		// envelope.
		got := wire.AppendResultLine(nil, &r)
		got = got[len(`{"result":`) : len(got)-len("}\n")]
		if !bytes.Equal(got, want) {
			t.Errorf("result %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

func TestAppendStreamLinesMatchEncodingJSON(t *testing.T) {
	for i, r := range wireResults() {
		want := encodeJSONLine(t, StreamLine{Result: ptr(sweepResultJSON(r))})
		got := wire.AppendResultLine(nil, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("result line %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
	st := &SweepStats{Specs: 12, CacheHits: 3, Evaluated: 8, Errors: 1}
	want := encodeJSONLine(t, StreamLine{Done: true, Stats: st})
	got := wire.AppendDoneLine(nil, st)
	if !bytes.Equal(got, want) {
		t.Errorf("done line:\n got: %s\nwant: %s", got, want)
	}
}

func TestAppendSweepResponseMatchesEncodingJSON(t *testing.T) {
	results := wireResults()
	var stats SweepStats
	resp := SweepResponse{Results: make([]SweepResultJSON, len(results))}
	for i := range results {
		stats.Observe(&results[i])
		resp.Results[i] = sweepResultJSON(results[i])
	}
	resp.Stats = stats
	want := encodeJSONLine(t, resp)
	got := wire.AppendSweepResponse(nil, results, &stats)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep response:\n got: %s\nwant: %s", got, want)
	}
	// The empty sweep still encodes a non-nil results array.
	empty := SweepResponse{Results: []SweepResultJSON{}}
	want = encodeJSONLine(t, empty)
	got = wire.AppendSweepResponse(nil, nil, &SweepStats{})
	if !bytes.Equal(got, want) {
		t.Errorf("empty sweep response:\n got: %s\nwant: %s", got, want)
	}
}

func TestAppendJobResultsPageMatchesEncodingJSON(t *testing.T) {
	results := wireResults()
	resp := JobResultsResponse{
		JobID:      "a1b2c3d4e5f60718",
		State:      "running",
		Results:    make([]SweepResultJSON, len(results)),
		NextCursor: "261",
		Done:       false,
	}
	for i := range results {
		resp.Results[i] = sweepResultJSON(results[i])
	}
	want := encodeJSONLine(t, resp)
	got := wire.AppendJobResultsPage(nil, "a1b2c3d4e5f60718", "running", results, 261, false)
	if !bytes.Equal(got, want) {
		t.Errorf("results page:\n got: %s\nwant: %s", got, want)
	}
	// Empty terminal page.
	want = encodeJSONLine(t, JobResultsResponse{
		JobID: "x", State: "succeeded", Results: []SweepResultJSON{}, NextCursor: "0", Done: true,
	})
	got = wire.AppendJobResultsPage(nil, "x", "succeeded", nil, 0, true)
	if !bytes.Equal(got, want) {
		t.Errorf("empty page:\n got: %s\nwant: %s", got, want)
	}
}

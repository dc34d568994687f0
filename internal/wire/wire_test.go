package wire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
	"optspeed/internal/wire"
)

// toJSON is the documented mapping from an engine result to the
// service's SweepResultJSON: the wire-visible fields of r.
func toJSON(r *sweep.Result) service.SweepResultJSON {
	jr := service.SweepResultJSON{Index: r.Index, Spec: r.Spec, CacheHit: r.CacheHit, Grid: r.Grid, Value: r.Value}
	if r.Alloc.Procs > 0 {
		jr.Procs, jr.Area, jr.CycleTime, jr.Speedup = r.Alloc.Procs, r.Alloc.Area, r.Alloc.CycleTime, r.Alloc.Speedup
	}
	if r.Spec.Op == sweep.OpScaled && r.Err == nil {
		jr.ProcsUsed, jr.CycleTime, jr.Speedup = r.Scaled.Procs, r.Scaled.CycleTime, r.Scaled.Speedup
	}
	switch {
	case errors.Is(r.Err, sweep.ErrEvaluationPanic):
		jr.Error = "internal evaluation error"
	case r.Err != nil:
		jr.Error = r.Err.Error()
	}
	return jr
}

// zeroNonFinite sets every NaN or infinite float reachable from v to 0,
// the value their null encoding decodes to, and reports whether it
// found one.
func zeroNonFinite(v reflect.Value) (found bool) {
	switch v.Kind() {
	case reflect.Pointer:
		return zeroNonFinite(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			found = zeroNonFinite(v.Field(i)) || found
		}
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			v.SetFloat(0)
			return true
		}
	}
	return found
}

// fuzzResult spreads the fuzzer's scalars over every wire-visible field
// of a result; flags pick cache_hit, the machine booleans, the scaled
// op, and a plain or panic error.
func fuzzResult(index, n, procs, grid int, a, b, c, d float64, op, text string, flags uint8) sweep.Result {
	op, text = strings.ToValidUTF8(op, "\uFFFD"), strings.ToValidUTF8(text, "\uFFFD")
	r := sweep.Result{
		Index:    index,
		CacheHit: flags&1 != 0,
		Spec: sweep.Spec{Op: sweep.Op(op), N: n, Stencil: text, Shape: op,
			Machine: core.MachineSpec{Type: text, Procs: procs, Tflp: a, BusCycle: b, BusOverhead: c,
				Alpha: d, Beta: -a, PacketWords: -b, SwitchTime: -c,
				ReadsOnly: flags&2 != 0, ConvHW: flags&4 != 0},
			Procs: grid, Target: b, PointsPerProc: c},
		Alloc:  core.Allocation{Procs: procs, Area: a, CycleTime: b, Speedup: c},
		Scaled: core.ScaledPoint{Procs: d, CycleTime: c, Speedup: a},
		Grid:   grid,
		Value:  d,
	}
	if flags&8 != 0 {
		r.Spec.Op = sweep.OpScaled
	}
	switch {
	case flags&16 != 0:
		r.Err = errors.New(text)
	case flags&32 != 0:
		r.Err = fmt.Errorf("%w: %s", sweep.ErrEvaluationPanic, text)
	}
	return r
}

// checkAgainstEncodingJSON requires that a line DecodeLine accepts is
// one encoding/json also accepts, as the same line kind and value.
func checkAgainstEncodingJSON(t *testing.T, raw []byte) {
	t.Helper()
	var got sweep.Result
	done, err := wire.DecodeLine(raw, &got)
	if err != nil {
		return
	}
	var ref service.StreamLine
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("DecodeLine accepted %q; encoding/json rejects it: %v", raw, err)
	}
	switch {
	case done:
		if !ref.Done || ref.Stats == nil || ref.Result != nil {
			t.Fatalf("DecodeLine read %q as the done line; encoding/json reads %+v", raw, ref)
		}
	case ref.Done || ref.Stats != nil || ref.Result == nil:
		t.Fatalf("DecodeLine read %q as a result line; encoding/json reads %+v", raw, ref)
	default:
		if have := toJSON(&got); !reflect.DeepEqual(have, *ref.Result) {
			t.Fatalf("DecodeLine(%q):\n got %+v\nwant %+v", raw, have, *ref.Result)
		}
	}
}

// corruptionBase is a valid result line whose truncations and
// single-byte substitutions seed the fuzzer.
const corruptionBase = `{"result":{"index":7,"spec":{"op":"speedup","n":64,"stencil":"5-point",` +
	`"shape":"strip","machine":{"type":"sync-bus","reads_only":true},"procs":4},` +
	`"cache_hit":true,"value":3.25,"error":"boom"}}`

// FuzzWireRoundTrip holds DecodeLine to the encoder in both directions.
// (a) A result built from the fuzzed scalars (strings made valid UTF-8)
// encodes to a line that decodes back to the same wire-visible fields —
// non-finite floats, written as null, come back as 0 — and, when every
// float is finite, re-encodes to the same bytes. (b) Whatever raw line
// DecodeLine accepts, encoding/json accepts with the same value.
func FuzzWireRoundTrip(f *testing.F) {
	base := []byte(corruptionBase)
	for i := 0; i <= len(base); i++ {
		f.Add(base[:i], 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "", "", uint8(0))
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4000; iter++ {
		mut := append([]byte(nil), base...)
		mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		f.Add(mut, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "", "", uint8(0))
	}
	f.Add([]byte(`{"done":true,"stats":{"specs":3,"cache_hits":1,"evaluated":1,"errors":1}}`+"\n"),
		512, 256, 37, 96, 1234.5678, 3.25e-5, 21.7, 1e21, "optimize", "5-point", uint8(1))
	f.Add([]byte(`{"result":{"index":0,"spec":{"n":1,"stencil":"s\u00e9\b\f\"","shape":"h","machine":{"type":"t","tflp":null}},"cache_hit":false,"value":null}}`),
		-1, -3, -5, -7, math.Inf(1), math.NaN(), -1e-9, 0.1, "scaled", "<&>\u2028\x01", uint8(0xff))
	f.Add([]byte("\n"), 3, 64, 0, 0, 0.0, 0.0, 0.0, 16.25, "bogus \xff", "line\nbreak", uint8(8|16))
	f.Fuzz(func(t *testing.T, raw []byte, index, n, procs, grid int, a, b, c, d float64, op, text string, flags uint8) {
		r := fuzzResult(index, n, procs, grid, a, b, c, d, op, text, flags)
		line := wire.AppendResultLine(nil, &r)
		var got sweep.Result
		if done, err := wire.DecodeLine(line, &got); err != nil || done {
			t.Fatalf("DecodeLine(%q) = done %v, err %v", line, done, err)
		}
		want := toJSON(&r)
		nonFinite := zeroNonFinite(reflect.ValueOf(&want))
		if have := toJSON(&got); !reflect.DeepEqual(have, want) {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", line, have, want)
		}
		if again := wire.AppendResultLine(nil, &got); !nonFinite && !bytes.Equal(again, line) {
			t.Fatalf("re-encoding changed the line:\n was %q\n now %q", line, again)
		}
		checkAgainstEncodingJSON(t, line)
		checkAgainstEncodingJSON(t, raw)
	})
}

// TestDecodeLineDoneAndEdgeCases pins the line kinds DecodeLine takes —
// the encoder's result and done lines, with or without the newline —
// and rejects the shapes only a general JSON parser would take.
func TestDecodeLineDoneAndEdgeCases(t *testing.T) {
	var r sweep.Result
	done := wire.AppendDoneLine(nil, &wire.Stats{Specs: 5, Evaluated: 4, Errors: 1})
	for _, line := range [][]byte{done, bytes.TrimSuffix(done, []byte("\n"))} {
		if isDone, err := wire.DecodeLine(line, &r); err != nil || !isDone {
			t.Errorf("DecodeLine(%q) = %v, %v; want the done line", line, isDone, err)
		}
	}
	nullLine := `{"result":{"index":2,"spec":{"n":8,"stencil":"5-point","shape":"square",` +
		`"machine":{"type":"mesh","tflp":null}},"cache_hit":false,"procs":4,"area":null,"value":null}}`
	if isDone, err := wire.DecodeLine([]byte(nullLine), &r); err != nil || isDone {
		t.Fatalf("DecodeLine(%s) = %v, %v", nullLine, isDone, err)
	}
	if r.Index != 2 || r.Alloc.Procs != 4 || r.Alloc.Area != 0 || r.Value != 0 || r.Spec.Machine.Tflp != 0 {
		t.Errorf("null floats decoded to %+v; want 0", r)
	}

	spec := `"spec":{"n":1,"stencil":"s","shape":"h","machine":{"type":"t"}}`
	for _, bad := range []string{
		``, "\n", `{`, `nope`, `{"done":tru}`, `{"result":{"index":"x"}}`,
		`{"done":true}`,
		`{"done":false}`,
		`{"unknown":{"nested":[1,2,{"x":"y"}]},"done":true}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true},"extra":null}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true}} `,
		`{"result": {"index":0,` + spec + `,"cache_hit":true}}`,
		`{"result":{"cache_hit":true,"index":0,` + spec + `}}`,
		`{"result":{"Index":0,` + spec + `,"cache_hit":true}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"area":3}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"procs":-2}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"procs_used":3}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"speedup":3}}`,
		`{"result":{"index":01,` + spec + `,"cache_hit":true}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"value":+1}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"error":"\ud800"}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"error":"\/"}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"error":"` + "\xff" + `"}}`,
		`{"result":{"index":0,` + spec + `,"cache_hit":true,"error":"` + "\x01" + `"}}`,
	} {
		if isDone, err := wire.DecodeLine([]byte(bad), &r); err == nil {
			t.Errorf("DecodeLine(%q) = %v, nil; want an error", bad, isDone)
		}
	}
}

// budgetResults covers the encoder's allocation-relevant branches:
// allocations, cache hits, scaled points, and plain and panic errors.
func budgetResults() []sweep.Result {
	return []sweep.Result{
		{Index: 0, Spec: sweep.Spec{N: 64, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Alloc: core.Allocation{Procs: 9, Area: 455.11, CycleTime: 4.25e-6, Speedup: 8.31}, Value: 8.31},
		{Index: 1, Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 128, Stencil: "9-point", Shape: "square",
			Machine: core.MachineSpec{Type: "mesh"}, Procs: 16},
			CacheHit: true, Value: 14.9},
		{Index: 2, Spec: sweep.Spec{Op: sweep.OpScaled, N: 512, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, PointsPerProc: 32},
			Scaled: core.ScaledPoint{Procs: 8192.5, CycleTime: 2e-7, Speedup: 1.25e3}, Value: 1.25e3},
		{Index: 3, Spec: sweep.Spec{N: 32, Stencil: "nope", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Err: errors.New(`sweep: unknown stencil "nope"`)},
		{Index: 4, Spec: sweep.Spec{N: 96, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}},
			Err: fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic)},
	}
}

// TestWireEncoderAllocBudget pins the serving path's allocation story:
// encoding results into a pre-grown buffer allocates nothing per
// result (the one allocation the ≤1-per-result budget allows is the
// pooled buffer itself, amortized across a whole chunk or page).
func TestWireEncoderAllocBudget(t *testing.T) {
	results := budgetResults()
	buf := make([]byte, 0, 1<<16)
	var stats wire.Stats
	for i := range results {
		stats.Observe(&results[i])
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = wire.AppendSweepResponse(buf[:0], results, &stats)
	})
	if allocs > 0 {
		t.Fatalf("AppendSweepResponse allocates %.1f/op over %d results, budget is 0", allocs, len(results))
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = wire.AppendJobResultsPage(buf[:0], "a1b2c3d4e5f60718", "running", results, 5, false)
	})
	if allocs > 0 {
		t.Fatalf("AppendJobResultsPage allocates %.1f/op, budget is 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = wire.AppendResultLine(buf[:0], &results[0])
	})
	if allocs > 0 {
		t.Fatalf("AppendResultLine allocates %.1f/op, budget is 0", allocs)
	}
}

// TestDecodeLineAllocBudget pins the gather side: a result line made
// of wire vocabulary only (interned ops, stencils, shapes and machine
// types), and the done line, decode without allocating.
func TestDecodeLineAllocBudget(t *testing.T) {
	vocab := budgetResults()[:3]
	lines := [][]byte{wire.AppendDoneLine(nil, &wire.Stats{Specs: 3, Evaluated: 3})}
	for i := range vocab {
		lines = append(lines, wire.AppendResultLine(nil, &vocab[i]))
	}
	var r sweep.Result
	for _, line := range lines {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := wire.DecodeLine(line, &r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("DecodeLine(%q) allocates %.1f/op, budget is 0", line, allocs)
		}
	}
}

// BenchmarkDecodeLine tracks the per-line decode cost (the coordinator
// pays it once per gathered result).
func BenchmarkDecodeLine(b *testing.B) {
	line := []byte(`{"result":{"index":42,"spec":{"n":512,"stencil":"5-point","shape":"square",` +
		`"machine":{"type":"hypercube"}},"cache_hit":false,"procs":1024,"area":256,` +
		`"cycle_time":1.234e-5,"speedup":812.345}}`)
	var res sweep.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeLine(line, &res); err != nil {
			b.Fatal(err)
		}
	}
}

package dispatch_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
	"optspeed/internal/wire"
)

// The coordinator reads every peer stream line with wire.DecodeLine.
// These tests hold that decoder to encoding/json's reading of the
// lines a peer writes, and of the lines a failing peer could write.

// randomResult builds a random result covering every wire-visible
// field: escaped strings, omitempty-elided zeros, allocations, scaled
// points, and plain and panic errors.
func randomResult(rng *rand.Rand) sweep.Result {
	stencils := []string{"5-point", "9-point", "9-star", "13-point", "weird \"st\"", ""}
	shapes := []string{"strip", "square", "rhombus"}
	types := []string{"hypercube", "mesh", "sync-bus", "async-bus", "full-async-bus", "banyan", "<custom>"}
	ops := []sweep.Op{"", sweep.OpOptimize, sweep.OpSpeedup, sweep.OpScaled, "min-grid", "isoeff-grid"}
	errs := []error{nil, nil,
		errors.New("core: Speedup: procs=9 out of range [1, 4]"),
		errors.New(`sweep: unknown stencil "bogus"`),
		errors.New("line\nbreak"),
		fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic),
	}
	f := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-7
		case 2:
			return float64(rng.Intn(1000))
		default:
			return rng.NormFloat64() * 1e9
		}
	}
	return sweep.Result{
		Index:    rng.Intn(100000),
		CacheHit: rng.Intn(2) == 0,
		Spec: sweep.Spec{
			Op:      ops[rng.Intn(len(ops))],
			N:       rng.Intn(4096) - 4,
			Stencil: stencils[rng.Intn(len(stencils))],
			Shape:   shapes[rng.Intn(len(shapes))],
			Machine: core.MachineSpec{
				Type:        types[rng.Intn(len(types))],
				Procs:       rng.Intn(3) * rng.Intn(2048),
				Tflp:        f(),
				BusCycle:    f(),
				BusOverhead: f(),
				Alpha:       f(),
				Beta:        f(),
				PacketWords: f(),
				SwitchTime:  f(),
				ReadsOnly:   rng.Intn(4) == 0,
				ConvHW:      rng.Intn(4) == 0,
			},
			Procs:         rng.Intn(3) * rng.Intn(512),
			Target:        f(),
			PointsPerProc: f(),
		},
		Alloc:  core.Allocation{Procs: rng.Intn(3) * rng.Intn(2048), Area: f(), CycleTime: f(), Speedup: f()},
		Scaled: core.ScaledPoint{Procs: f(), CycleTime: f(), Speedup: f()},
		Grid:   rng.Intn(3) * rng.Intn(8192),
		Value:  f(),
		Err:    errs[rng.Intn(len(errs))],
	}
}

// agreeWithEncodingJSON decodes raw with wire.DecodeLine and, when it
// accepts the line, requires encoding/json to accept it too, as the
// same line kind and — through the decoded result's re-encoding — the
// same value. It reports whether DecodeLine accepted the line.
func agreeWithEncodingJSON(t *testing.T, raw []byte) (sweep.Result, bool) {
	t.Helper()
	var got sweep.Result
	done, err := wire.DecodeLine(raw, &got)
	if err != nil {
		return got, false
	}
	var ref service.StreamLine
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("DecodeLine accepted %q; encoding/json rejects it: %v", raw, err)
	}
	if ref.Done != done || (ref.Result != nil) == done {
		t.Fatalf("DecodeLine(%q) read done=%v; encoding/json reads %+v", raw, done, ref)
	}
	if !done {
		var back service.StreamLine
		if err := json.Unmarshal(wire.AppendResultLine(nil, &got), &back); err != nil {
			t.Fatalf("re-encoding the result of DecodeLine(%q): %v", raw, err)
		}
		if !reflect.DeepEqual(back.Result, ref.Result) {
			t.Fatalf("DecodeLine(%q):\n got %+v\nwant %+v", raw, *back.Result, *ref.Result)
		}
	}
	return got, true
}

// TestDecodeLineMatchesEncodingJSON is the decoder's equivalence
// property: over thousands of randomized result lines as a peer writes
// them, DecodeLine reads exactly what encoding/json reads, and the
// decoded result re-encodes to the same line. An indented copy of a
// line, which encoding/json reads the same, is rejected: the decoder
// takes the peer encoder's compact form only.
func TestDecodeLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 4000; iter++ {
		w := randomResult(rng)
		line := wire.AppendResultLine(nil, &w)
		got, ok := agreeWithEncodingJSON(t, line)
		if !ok {
			t.Fatalf("DecodeLine rejected the encoder's line %q", line)
		}
		if again := wire.AppendResultLine(nil, &got); !bytes.Equal(again, line) {
			t.Fatalf("round trip diverged:\n was %q\n now %q", line, again)
		}
		if iter%5 == 4 {
			var indented bytes.Buffer
			if err := json.Indent(&indented, bytes.TrimSuffix(line, []byte("\n")), "", " "); err != nil {
				t.Fatal(err)
			}
			var compact, spaced service.StreamLine
			if json.Unmarshal(line, &compact) != nil || json.Unmarshal(indented.Bytes(), &spaced) != nil ||
				!reflect.DeepEqual(compact, spaced) {
				t.Fatalf("encoding/json reads %q and its indented copy differently", line)
			}
			var r sweep.Result
			if _, err := wire.DecodeLine(indented.Bytes(), &r); err == nil {
				t.Fatalf("DecodeLine accepted the indented line %q", indented.Bytes())
			}
		}
	}
}

// TestDecodeLineAgreesUnderCorruption mutates a valid line — prefix
// truncations and single-byte substitutions — and requires that every
// line DecodeLine accepts, encoding/json accepts with the same value.
// A peer dying mid-line or writing garbage therefore fails the shard
// rather than delivering a wrong result. Truncations agree both ways:
// only the whole line decodes.
func TestDecodeLineAgreesUnderCorruption(t *testing.T) {
	base := []byte(`{"result":{"index":7,"spec":{"op":"speedup","n":64,"stencil":"5-point",` +
		`"shape":"strip","machine":{"type":"sync-bus","reads_only":true},"procs":4},` +
		`"cache_hit":true,"value":3.25,"error":"boom"}}`)
	for i := 0; i <= len(base); i++ {
		_, fastOK := agreeWithEncodingJSON(t, base[:i])
		var ref service.StreamLine
		refOK := json.Unmarshal(base[:i], &ref) == nil
		if fastOK != refOK || fastOK != (i == len(base)) {
			t.Fatalf("prefix %q: DecodeLine ok=%v, encoding/json ok=%v", base[:i], fastOK, refOK)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4000; iter++ {
		mut := append([]byte(nil), base...)
		// Full byte range: high bytes matter — encoding/json coerces
		// invalid UTF-8 inside strings to U+FFFD, and DecodeLine must
		// reject the raw bytes rather than read them differently.
		mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		agreeWithEncodingJSON(t, mut)
	}
}

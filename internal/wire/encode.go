// Package wire owns the sweep-result JSON wire format in both
// directions: the encoders behind every sweep body the service writes
// (v1 /sweep responses, v2 results pages, NDJSON stream lines) and
// DecodeLine, which a coordinator uses to read its peers' stream lines
// back into engine results.
//
// The encoders append straight from sweep.Result into caller-owned
// buffers and write exactly the bytes encoding/json would produce for
// the service's documented JSON structs (its HTML escaping and float
// formatting included — pinned by the service's byte-identity tests),
// without per-result reflection or allocation. DecodeLine is the
// stream lines' exact inverse: it reads fields in the encoder's order,
// accepts every line the encoder can write, and rejects any line shape
// it cannot, so a coordinator and its peers must run the same wire
// version.
package wire

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"optspeed/internal/sweep"
)

// Stats summarizes one sweep's results by outcome. It is the "stats"
// object of v1 /sweep responses, law overlays, and the stream's done
// line.
type Stats struct {
	Specs     int `json:"specs"`
	CacheHits int `json:"cache_hits"`
	Evaluated int `json:"evaluated"`
	Errors    int `json:"errors"`
}

// Observe counts one result.
func (st *Stats) Observe(res *sweep.Result) {
	st.Specs++
	switch {
	case res.Err != nil:
		st.Errors++
	case res.CacheHit:
		st.CacheHits++
	default:
		st.Evaluated++
	}
}

// panicMessage replaces a recovered evaluation panic's text on the
// wire: the panic value is an internal detail, not an API message.
const panicMessage = "internal evaluation error"

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// does with its default HTML escaping: printable ASCII except
// ", \, <, > and & passes through; \b, \f, \n, \r, \t use short
// escapes; other control bytes (and <, >, &) become \u00xx; invalid
// UTF-8 becomes \ufffd; and U+2028/U+2029 are escaped for JS embedding.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f exactly as encoding/json formats a float64:
// shortest representation, fixed notation inside [1e-6, 1e21),
// exponent notation outside it with a single-digit exponent left
// unpadded (e-7, not e-07). NaN and infinities are not representable in
// JSON — encoding/json fails the whole marshal; the model only emits
// finite values on success paths — so they encode as null here rather
// than corrupting the payload mid-write (and decode back as 0).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, matching encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendOptInt and appendOptFloat write one omitempty field: key (with
// its leading comma) and value, or nothing for the zero value.
func appendOptInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendOptFloat(dst []byte, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	return appendFloat(append(dst, key...), v)
}

// appendSpec appends one sweep.Spec with the field order and omitempty
// behavior of its struct tags.
func appendSpec(dst []byte, s *sweep.Spec) []byte {
	dst = append(dst, '{')
	if s.Op != "" {
		dst = append(dst, `"op":`...)
		dst = appendString(dst, string(s.Op))
		dst = append(dst, ',')
	}
	dst = append(dst, `"n":`...)
	dst = strconv.AppendInt(dst, int64(s.N), 10)
	dst = append(dst, `,"stencil":`...)
	dst = appendString(dst, s.Stencil)
	dst = append(dst, `,"shape":`...)
	dst = appendString(dst, s.Shape)
	m := &s.Machine
	dst = append(dst, `,"machine":{"type":`...)
	dst = appendString(dst, m.Type)
	dst = appendOptInt(dst, `,"procs":`, m.Procs)
	dst = appendOptFloat(dst, `,"tflp":`, m.Tflp)
	dst = appendOptFloat(dst, `,"b":`, m.BusCycle)
	dst = appendOptFloat(dst, `,"c":`, m.BusOverhead)
	dst = appendOptFloat(dst, `,"alpha":`, m.Alpha)
	dst = appendOptFloat(dst, `,"beta":`, m.Beta)
	dst = appendOptFloat(dst, `,"packet":`, m.PacketWords)
	dst = appendOptFloat(dst, `,"w":`, m.SwitchTime)
	if m.ReadsOnly {
		dst = append(dst, `,"reads_only":true`...)
	}
	if m.ConvHW {
		dst = append(dst, `,"convergence_hardware":true`...)
	}
	dst = append(dst, '}')
	dst = appendOptInt(dst, `,"procs":`, s.Procs)
	dst = appendOptFloat(dst, `,"target":`, s.Target)
	dst = appendOptFloat(dst, `,"points_per_proc":`, s.PointsPerProc)
	return append(dst, '}')
}

// appendResult appends one result in the service's SweepResultJSON
// shape. The payload fields come from the allocation for the optimize
// ops (when it has processors), from the scaled point for a successful
// scaled op (overriding cycle_time and speedup), and Grid and Value as
// they are; a recovered evaluation panic is reported without its text.
func appendResult(dst []byte, r *sweep.Result) []byte {
	var procs int
	var procsUsed, area, cycle, speedup float64
	if r.Alloc.Procs > 0 {
		procs, area, cycle, speedup = r.Alloc.Procs, r.Alloc.Area, r.Alloc.CycleTime, r.Alloc.Speedup
	}
	if r.Spec.Op == sweep.OpScaled && r.Err == nil {
		procsUsed, cycle, speedup = r.Scaled.Procs, r.Scaled.CycleTime, r.Scaled.Speedup
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"spec":`...)
	dst = appendSpec(dst, &r.Spec)
	dst = append(dst, `,"cache_hit":`...)
	dst = appendBool(dst, r.CacheHit)
	dst = appendOptInt(dst, `,"procs":`, procs)
	dst = appendOptFloat(dst, `,"procs_used":`, procsUsed)
	dst = appendOptFloat(dst, `,"area":`, area)
	dst = appendOptFloat(dst, `,"cycle_time":`, cycle)
	dst = appendOptFloat(dst, `,"speedup":`, speedup)
	dst = appendOptInt(dst, `,"grid":`, r.Grid)
	dst = appendOptFloat(dst, `,"value":`, r.Value)
	if r.Err != nil {
		msg := panicMessage
		if !errors.Is(r.Err, sweep.ErrEvaluationPanic) {
			msg = r.Err.Error()
		}
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, msg)
	}
	return append(dst, '}')
}

// appendResults appends results as a JSON array (never null).
func appendResults(dst []byte, results []sweep.Result) []byte {
	dst = append(dst, '[')
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, &results[i])
	}
	return append(dst, ']')
}

// appendStats appends one Stats object.
func appendStats(dst []byte, st *Stats) []byte {
	dst = append(dst, `{"specs":`...)
	dst = strconv.AppendInt(dst, int64(st.Specs), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(st.CacheHits), 10)
	dst = append(dst, `,"evaluated":`...)
	dst = strconv.AppendInt(dst, int64(st.Evaluated), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(st.Errors), 10)
	return append(dst, '}')
}

// AppendResultLine appends one NDJSON result line of
// POST /v2/sweeps/stream: {"result":{...}} plus newline.
func AppendResultLine(dst []byte, r *sweep.Result) []byte {
	dst = append(dst, `{"result":`...)
	dst = appendResult(dst, r)
	return append(dst, '}', '\n')
}

// AppendDoneLine appends the stream's final NDJSON line:
// {"done":true,"stats":{...}} plus newline.
func AppendDoneLine(dst []byte, st *Stats) []byte {
	dst = append(dst, `{"done":true,"stats":`...)
	dst = appendStats(dst, st)
	return append(dst, '}', '\n')
}

// AppendSweepResponse appends the full v1 /sweep body,
// {"results":[...],"stats":{...}} plus newline.
func AppendSweepResponse(dst []byte, results []sweep.Result, st *Stats) []byte {
	dst = append(dst, `{"results":`...)
	dst = appendResults(dst, results)
	dst = append(dst, `,"stats":`...)
	dst = appendStats(dst, st)
	return append(dst, '}', '\n')
}

// AppendJobResultsPage appends the full GET /v2/jobs/{id}/results body
// (the service's JobResultsResponse shape) plus newline.
func AppendJobResultsPage(dst []byte, jobID, state string, results []sweep.Result, nextCursor int, done bool) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = appendString(dst, jobID)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, state)
	dst = append(dst, `,"results":`...)
	dst = appendResults(dst, results)
	dst = append(dst, `,"next_cursor":"`...)
	dst = strconv.AppendInt(dst, int64(nextCursor), 10)
	dst = append(dst, `","done":`...)
	dst = appendBool(dst, done)
	return append(dst, '}', '\n')
}

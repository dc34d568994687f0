package wire

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// DecodeLine parses one NDJSON line written by AppendResultLine or
// AppendDoneLine (the trailing newline is optional). A result line
// fills r and reports done=false; the done line reports done=true and
// leaves r zeroed.
//
// The decoder mirrors the encoder field for field: fixed keys in the
// encoder's order, each omitempty field a literal-prefix check, no
// whitespace. Strings take every escape appendString writes, floats
// take the null that appendFloat writes for non-finite values (as 0),
// and payload fields must be consistent with the encoder's mapping
// (allocation fields only with procs > 0, procs_used only on a
// successful scaled op), so re-encoding a decoded line reproduces it.
// Numbers follow the JSON grammar, so a value the encoder would spell
// differently (1.0, an explicit zero) decodes to the same result; any
// other line is an error.
func DecodeLine(raw []byte, r *sweep.Result) (done bool, err error) {
	if n := len(raw); n > 0 && raw[n-1] == '\n' {
		raw = raw[:n-1]
	}
	*r = sweep.Result{}
	d := decoder{b: raw, ok: true}
	if d.opt(`{"done":true,"stats":{"specs":`) {
		d.int()
		d.lit(`,"cache_hits":`)
		d.int()
		d.lit(`,"evaluated":`)
		d.int()
		d.lit(`,"errors":`)
		d.int()
		d.lit(`}}`)
		done = true
	} else {
		d.lit(`{"result":`)
		d.result(r)
		d.lit(`}`)
	}
	if !d.ok || d.i != len(d.b) {
		*r = sweep.Result{}
		return false, fmt.Errorf("wire: malformed line at byte %d", d.i)
	}
	return done, nil
}

// decoder is a cursor over one line. The first failed step clears ok
// and freezes the cursor; later steps are no-ops returning zero
// values, so parse code reads straight through and checks ok once.
type decoder struct {
	b  []byte
	i  int
	ok bool
}

func (d *decoder) fail() { d.ok = false }

// opt consumes s if the line continues with it.
func (d *decoder) opt(s string) bool {
	if !d.ok || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit requires the line to continue with s.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.fail()
	}
}

// number consumes one JSON number (RFC 8259 grammar exactly; strconv
// alone is laxer: it takes leading zeros, "+5" and "4.").
func (d *decoder) number() []byte {
	if !d.ok {
		return nil
	}
	b, j := d.b, d.i
	digits := func() bool {
		start := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		return j > start
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		d.fail()
		return nil
	}
	if j < len(b) && b[j] == '.' {
		j++
		if !digits() {
			d.fail()
			return nil
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !digits() {
			d.fail()
			return nil
		}
	}
	s := b[d.i:j]
	d.i = j
	return s
}

func (d *decoder) int() int {
	s := d.number()
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(s), 10, 0)
	if err != nil {
		d.fail()
	}
	return int(v)
}

// float consumes a number or null (appendFloat's non-finite form).
func (d *decoder) float() float64 {
	if d.opt("null") {
		return 0
	}
	s := d.number()
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		d.fail()
	}
	return v
}

func (d *decoder) optInt(key string) int {
	if d.opt(key) {
		return d.int()
	}
	return 0
}

func (d *decoder) optFloat(key string) float64 {
	if d.opt(key) {
		return d.float()
	}
	return 0
}

func (d *decoder) bool() bool {
	if d.opt("true") {
		return true
	}
	d.lit("false")
	return false
}

// str consumes one JSON string. Plain printable ASCII, the whole of
// the wire vocabulary, is returned without copying when it is a known
// word; anything else goes through unescape.
func (d *decoder) str() string {
	if !d.opt(`"`) {
		d.fail()
		return ""
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := intern(d.b[d.i:j])
			d.i = j + 1
			return s
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unescape()
		}
	}
	d.fail()
	return ""
}

// unescape decodes a string body holding escapes or non-ASCII text:
// the short escapes, \uXXXX outside the surrogate range (appendString
// writes no surrogates), and valid UTF-8. Raw control bytes, invalid
// UTF-8 and any other escape fail the line.
func (d *decoder) unescape() string {
	var out []byte
	for j := d.i; j < len(d.b); {
		c := d.b[j]
		switch {
		case c == '"':
			d.i = j + 1
			return string(out)
		case c < ' ':
			d.fail()
			return ""
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.b[j:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return ""
			}
			out = append(out, d.b[j:j+size]...)
			j += size
		case c != '\\':
			out = append(out, c)
			j++
		case j+1 >= len(d.b):
			d.fail()
			return ""
		default:
			switch e := d.b[j+1]; e {
			case '"', '\\':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if j+6 > len(d.b) {
					d.fail()
					return ""
				}
				v, err := strconv.ParseUint(string(d.b[j+2:j+6]), 16, 16)
				if err != nil || utf16.IsSurrogate(rune(v)) {
					d.fail()
					return ""
				}
				out = utf8.AppendRune(out, rune(v))
				j += 4
			default:
				d.fail()
				return ""
			}
			j += 2
		}
	}
	d.fail()
	return ""
}

// intern returns the wire vocabulary (ops, stencils, shapes, machine
// types) without allocating; anything else is copied once.
func intern(b []byte) string {
	switch string(b) {
	case "optimize":
		return "optimize"
	case "optimize-snapped":
		return "optimize-snapped"
	case "speedup":
		return "speedup"
	case "min-grid":
		return "min-grid"
	case "isoeff-grid":
		return "isoeff-grid"
	case "scaled":
		return "scaled"
	case "amdahl":
		return "amdahl"
	case "gustafson":
		return "gustafson"
	case "critical-path":
		return "critical-path"
	case "5-point":
		return "5-point"
	case "9-point":
		return "9-point"
	case "9-star":
		return "9-star"
	case "13-point":
		return "13-point"
	case "strip":
		return "strip"
	case "square":
		return "square"
	case "hypercube":
		return "hypercube"
	case "mesh":
		return "mesh"
	case "sync-bus":
		return "sync-bus"
	case "async-bus":
		return "async-bus"
	case "full-async-bus":
		return "full-async-bus"
	case "banyan":
		return "banyan"
	}
	return string(b)
}

// spec is appendSpec's inverse.
func (d *decoder) spec(s *sweep.Spec) {
	d.lit(`{`)
	if d.opt(`"op":`) {
		s.Op = sweep.Op(d.str())
		d.lit(`,`)
	}
	d.lit(`"n":`)
	s.N = d.int()
	d.lit(`,"stencil":`)
	s.Stencil = d.str()
	d.lit(`,"shape":`)
	s.Shape = d.str()
	m := &s.Machine
	d.lit(`,"machine":{"type":`)
	m.Type = d.str()
	m.Procs = d.optInt(`,"procs":`)
	m.Tflp = d.optFloat(`,"tflp":`)
	m.BusCycle = d.optFloat(`,"b":`)
	m.BusOverhead = d.optFloat(`,"c":`)
	m.Alpha = d.optFloat(`,"alpha":`)
	m.Beta = d.optFloat(`,"beta":`)
	m.PacketWords = d.optFloat(`,"packet":`)
	m.SwitchTime = d.optFloat(`,"w":`)
	m.ReadsOnly = d.opt(`,"reads_only":true`)
	m.ConvHW = d.opt(`,"convergence_hardware":true`)
	d.lit(`}`)
	s.Procs = d.optInt(`,"procs":`)
	s.Target = d.optFloat(`,"target":`)
	s.PointsPerProc = d.optFloat(`,"points_per_proc":`)
	d.lit(`}`)
}

// result is appendResult's inverse. The payload fields go back where
// appendResult took them from; a combination it cannot write (area
// without procs, procs_used off a successful scaled op, ...) fails the
// line, since re-encoding would not reproduce it.
func (d *decoder) result(r *sweep.Result) {
	d.lit(`{"index":`)
	r.Index = d.int()
	d.lit(`,"spec":`)
	d.spec(&r.Spec)
	d.lit(`,"cache_hit":`)
	r.CacheHit = d.bool()
	procs := d.optInt(`,"procs":`)
	procsUsed := d.optFloat(`,"procs_used":`)
	area := d.optFloat(`,"area":`)
	cycle := d.optFloat(`,"cycle_time":`)
	speedup := d.optFloat(`,"speedup":`)
	r.Grid = d.optInt(`,"grid":`)
	r.Value = d.optFloat(`,"value":`)
	if d.opt(`,"error":`) {
		r.Err = errors.New(d.str())
	}
	d.lit(`}`)
	scaled := r.Spec.Op == sweep.OpScaled && r.Err == nil
	if procs > 0 {
		r.Alloc = core.Allocation{Procs: procs, Area: area, CycleTime: cycle, Speedup: speedup}
	} else if procs < 0 || area != 0 || (!scaled && (cycle != 0 || speedup != 0)) {
		d.fail()
	}
	if scaled {
		r.Scaled = core.ScaledPoint{Procs: procsUsed, CycleTime: cycle, Speedup: speedup}
	} else if procsUsed != 0 {
		d.fail()
	}
}

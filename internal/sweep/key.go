package sweep

import (
	"fmt"
	"math"

	"optspeed/internal/core"
	"optspeed/internal/partition"
)

// specKey is the engine's internal cache key: a fixed-size comparable
// struct over the fields a spec's op actually consumes, plus the
// canonical machine description. Two specs evaluate to the same model
// point exactly when their specKeys are equal — the same equality
// classes as the string form Spec.Key(), without the fmt.Sprintf
// allocations (the eval hot path builds one of these per spec and does
// a map lookup; neither step allocates). Spec.Key() remains the
// human-readable formatter over these classes for the service and
// debug surfaces.
type specKey struct {
	op      uint8
	stencil uint8
	shape   uint8
	n       int64
	procs   int64
	target  float64
	f       float64
	mach    machKey
}

// machKey is the canonical machine portion of a specKey: the fields of
// core.MachineSpec after default filling and irrelevant-field zeroing
// (core.MachineSpec.Canonical), packed into a comparable struct.
type machKey struct {
	typ         uint8
	readsOnly   bool
	convHW      bool
	procs       int64
	tflp        float64
	busCycle    float64
	busOverhead float64
	alpha       float64
	beta        float64
	packet      float64
	switchTime  float64
}

// opCode maps an op to its key code. Unknown ops are a resolution
// error, matching the string key path.
func opCode(op Op) (uint8, bool) {
	switch op {
	case OpOptimize:
		return 0, true
	case OpOptimizeSnapped:
		return 1, true
	case OpSpeedup:
		return 2, true
	case OpMinGrid:
		return 3, true
	case OpIsoeffGrid:
		return 4, true
	case OpScaled:
		return 5, true
	case OpAmdahl:
		return 6, true
	case OpGustafson:
		return 7, true
	case OpCriticalPath:
		return 8, true
	default:
		return 0, false
	}
}

// machTypeCode maps a canonical machine type string to its key code.
func machTypeCode(typ string) (uint8, bool) {
	switch typ {
	case "hypercube":
		return 0, true
	case "mesh":
		return 1, true
	case "sync-bus":
		return 2, true
	case "async-bus":
		return 3, true
	case "full-async-bus":
		return 4, true
	case "banyan":
		return 5, true
	default:
		return 0, false
	}
}

// stencilCode maps a built-in stencil name to its key code; the codes
// only need to separate the stencils the engine can resolve.
func stencilCode(name string) (uint8, bool) {
	switch name {
	case "5-point":
		return 0, true
	case "9-point":
		return 1, true
	case "9-star":
		return 2, true
	case "13-point":
		return 3, true
	default:
		return 0, false
	}
}

// machKeyFor packs a canonical machine spec (one produced by
// core.SpecFor of a materialized machine) into its key form. NaN
// fields are rejected: NaN != NaN would make the comparable key
// unfindable in the cache (a permanent miss that inserts a duplicate
// entry per evaluation), so no NaN may ever enter a specKey.
func machKeyFor(canon core.MachineSpec) (machKey, error) {
	code, ok := machTypeCode(canon.Type)
	if !ok {
		return machKey{}, fmt.Errorf("core: unknown machine type %q", canon.Type)
	}
	for _, v := range [...]float64{canon.Tflp, canon.BusCycle, canon.BusOverhead,
		canon.Alpha, canon.Beta, canon.PacketWords, canon.SwitchTime} {
		if math.IsNaN(v) {
			return machKey{}, fmt.Errorf("sweep: NaN machine parameter in %q spec", canon.Type)
		}
	}
	return machKey{
		typ:         code,
		readsOnly:   canon.ReadsOnly,
		convHW:      canon.ConvHW,
		procs:       int64(canon.Procs),
		tflp:        canon.Tflp,
		busCycle:    canon.BusCycle,
		busOverhead: canon.BusOverhead,
		alpha:       canon.Alpha,
		beta:        canon.Beta,
		packet:      canon.PacketWords,
		switchTime:  canon.SwitchTime,
	}, nil
}

// buildKey composes the struct key from the spec and its pre-resolved
// parts, applying the same op-dependent field masking as the string
// opKey: fields an op does not consume are zeroed so they cannot split
// the cache (e.g. a leftover Target on an optimize spec), and the grid
// searches drop N because their answer is seed-independent.
func buildKey(s Spec, stCode uint8, sh partition.Shape, mk machKey) (specKey, error) {
	op := s.op()
	oc, ok := opCode(op)
	if !ok {
		return specKey{}, fmt.Errorf("sweep: unknown op %q", op)
	}
	k := specKey{op: oc, stencil: stCode, shape: uint8(sh), n: int64(s.N), mach: mk}
	switch op {
	case OpOptimize, OpOptimizeSnapped:
	case OpSpeedup:
		k.procs = int64(s.Procs)
	case OpMinGrid:
		k.n, k.procs = 0, int64(s.Procs)
	case OpIsoeffGrid:
		k.n, k.procs, k.target = 0, int64(s.Procs), s.Target
	case OpScaled:
		k.f = s.PointsPerProc
	case OpAmdahl, OpGustafson, OpCriticalPath:
		k.procs = int64(s.Procs)
	}
	// A NaN field would break the comparable key's cache semantics (see
	// machKeyFor); such specs are invalid for their ops anyway, so they
	// fail resolution instead of ever reaching the cache.
	if math.IsNaN(k.target) || math.IsNaN(k.f) {
		return specKey{}, fmt.Errorf("sweep: NaN target or points_per_proc in %q spec", op)
	}
	return k, nil
}

// hash mixes the key's fields with FNV-1a over 64-bit words — no
// byte-slice materialization, no allocation — for shard selection and
// the shard index.
func (k specKey) hash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	packed := uint64(k.op) | uint64(k.stencil)<<8 | uint64(k.shape)<<16 | uint64(k.mach.typ)<<24
	if k.mach.readsOnly {
		packed |= 1 << 32
	}
	if k.mach.convHW {
		packed |= 1 << 33
	}
	mix(packed)
	mix(uint64(k.n))
	mix(uint64(k.procs))
	mix(math.Float64bits(k.target))
	mix(math.Float64bits(k.f))
	mix(uint64(k.mach.procs))
	mix(math.Float64bits(k.mach.tflp))
	mix(math.Float64bits(k.mach.busCycle))
	mix(math.Float64bits(k.mach.busOverhead))
	mix(math.Float64bits(k.mach.alpha))
	mix(math.Float64bits(k.mach.beta))
	mix(math.Float64bits(k.mach.packet))
	mix(math.Float64bits(k.mach.switchTime))
	return h
}

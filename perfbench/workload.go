package main

import (
	"fmt"
	"math/rand"
)

// splitmix is a tiny seeded rand.Source, cheap enough to build per
// operation.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *splitmix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }

func newRand(seed int64) *rand.Rand { return rand.New(&splitmix{s: uint64(seed)}) }

// workload is one traffic mix: what the daemons run with, the requests
// its warm-up sends, and request i of its timed sequence.
type workload struct {
	name    string
	cluster bool // a coordinator in front of two worker daemons
	cold    bool // every request is fresh, so bodies are checked after the window
	// pool is every request a warm workload's seed generates; draw
	// returns members of it.
	pool   []*request
	warmup []*request
	draw   func(i int) *request
}

var workloadNames = []string{"warm_mix", "sweep_cold", "cluster_cold"}

// deckLen is the length of a warm workload's op sequence before it
// repeats.
const deckLen = 1 << 14

func makeWorkload(name string, seed int64) (*workload, error) {
	rng := newRand(seed)
	wl := &workload{name: name}
	switch name {
	case "warm_mix":
		opt, sw, laws, job := warmMixPool(rng)
		wl.pool = append(append(append(append(wl.pool, opt...), sw...), laws...), job...)
		// optload's default weights, optimize=4, sweep=2, jobs=1, laws=1,
		// as a fixed cycle of kinds; the seed picks the pool member.
		cycle := [][]*request{opt, sw, opt, job, opt, sw, opt, laws}
		deck := make([]*request, deckLen)
		for i := range deck {
			deck[i] = pick(rng, cycle[i%len(cycle)])
		}
		wl.draw = func(i int) *request { return deck[i%deckLen] }
	case "sweep_cold", "cluster_cold":
		wl.cold = true
		wl.cluster = name == "cluster_cold"
		for i := 0; i < coldWarmOps; i++ {
			wl.warmup = append(wl.warmup, coldRequest(seed, i))
		}
		wl.draw = func(i int) *request { return coldRequest(seed, coldWarmOps+i) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if !wl.cold {
		// Twice: the first pass fills the cache, the second checks and
		// records the warm replies the timed window must repeat.
		wl.warmup = append(append(wl.warmup, wl.pool...), wl.pool...)
	}
	return wl, nil
}

package grid

import (
	"math"
	"testing"

	"optspeed/internal/stencil"
)

// referenceSweep applies the kernel definition directly through the
// public At/Set accessors — no flat offsets, no specialization — as an
// independent oracle for the optimized loops. Terms are accumulated in
// the stencil's canonical offset order with the source term last, the
// order every sweep loop in the package promises.
func referenceSweep(dst, src *Grid, k Kernel, f *Grid, r0, r1, c0, c1 int) {
	offs := k.Stencil.Offsets()
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			var acc float64
			for t, o := range offs {
				acc += k.Weights[t] * src.At(i+o.DI, j+o.DJ)
			}
			if f != nil && k.RHSCoeff != 0 {
				acc += k.RHSCoeff * f.At(i, j)
			}
			dst.Set(i, j, acc)
		}
	}
}

// fillTestGrid populates a grid (interior and ghost ring) with a
// deterministic, non-symmetric pattern so transposed or mirrored
// neighbor loads cannot cancel out.
func fillTestGrid(g *Grid, seed float64) {
	lo, hi := -g.Halo, g.N+g.Halo
	for i := lo; i < hi; i++ {
		for j := lo; j < hi; j++ {
			g.Set(i, j, math.Sin(seed+float64(3*i))+0.25*math.Cos(seed+float64(7*j))+0.01*float64(i*j))
		}
	}
}

// testKernels returns every built-in kernel plus a generic-path control
// (the 13-point averaging kernel) and a recalibrated 5-point variant
// that must NOT take the specialized path.
func testKernels(n int) []Kernel {
	return []Kernel{
		Laplace5(n),
		Laplace9(n),
		Star9(n),
		Averaging(stencil.FivePoint),
		Averaging(stencil.NinePoint),
		Averaging(stencil.ThirteenPoint),
		Averaging(stencil.FivePoint.WithFlops(99)), // falls back to generic
	}
}

// TestSweepRegionMatchesReference checks every kernel class —
// specialized 5-point and 9-point loops included — bit-for-bit against
// the reference oracle, with and without a source term, on interior
// regions and full sweeps.
func TestSweepRegionMatchesReference(t *testing.T) {
	const n = 33
	regions := [][4]int{
		{0, n, 0, n},   // full interior
		{3, 17, 5, 29}, // proper subregion
		{0, 1, 0, n},   // single row
		{7, 7, 3, 9},   // empty
	}
	src := MustNew(n)
	fillTestGrid(src, 1.7)
	fsrc := MustNew(n)
	fillTestGrid(fsrc, 4.2)
	for _, k := range testKernels(n) {
		for _, f := range []*Grid{nil, fsrc} {
			for _, reg := range regions {
				got := MustNew(n)
				want := MustNew(n)
				if err := SweepRegion(got, src, k, f, reg[0], reg[1], reg[2], reg[3]); err != nil {
					t.Fatalf("%s: %v", k.Stencil.Name(), err)
				}
				referenceSweep(want, src, k, f, reg[0], reg[1], reg[2], reg[3])
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got.At(i, j) != want.At(i, j) {
							t.Fatalf("%s (E=%g) f=%t region %v: mismatch at (%d,%d): got %g want %g",
								k.Stencil.Name(), k.Stencil.Flops(), f != nil, reg, i, j, got.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestSweepRegionDeltaMatchesTwoPass checks the fused sweep+reduction
// against the separate SweepRegion + SumSquaredDiffRegion pair: same
// written values, bit-identical delta (the summation order is the
// same row-major order).
func TestSweepRegionDeltaMatchesTwoPass(t *testing.T) {
	const n = 41
	src := MustNew(n)
	fillTestGrid(src, 0.3)
	fsrc := MustNew(n)
	fillTestGrid(fsrc, 2.9)
	regions := [][4]int{{0, n, 0, n}, {2, 19, 11, 37}}
	for _, k := range testKernels(n) {
		for _, f := range []*Grid{nil, fsrc} {
			for _, reg := range regions {
				fused := MustNew(n)
				twoPass := MustNew(n)
				gotDelta, err := SweepRegionDelta(fused, src, k, f, reg[0], reg[1], reg[2], reg[3])
				if err != nil {
					t.Fatalf("%s: %v", k.Stencil.Name(), err)
				}
				if err := SweepRegion(twoPass, src, k, f, reg[0], reg[1], reg[2], reg[3]); err != nil {
					t.Fatal(err)
				}
				wantDelta := twoPass.SumSquaredDiffRegion(src, reg[0], reg[1], reg[2], reg[3])
				if gotDelta != wantDelta {
					t.Fatalf("%s f=%t region %v: fused delta %g, two-pass %g",
						k.Stencil.Name(), f != nil, reg, gotDelta, wantDelta)
				}
				if d := fused.MaxAbsDiff(twoPass); d != 0 {
					t.Fatalf("%s: fused sweep wrote different values (max diff %g)", k.Stencil.Name(), d)
				}
			}
		}
	}
}

// TestSweepRegionDeltaValidation mirrors SweepRegion's error cases.
func TestSweepRegionDeltaValidation(t *testing.T) {
	src := MustNew(8)
	k := Laplace5(8)
	if _, err := SweepRegionDelta(MustNew(9), src, k, nil, 0, 8, 0, 8); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := SweepRegionDelta(MustNew(8), src, k, nil, 0, 9, 0, 8); err == nil {
		t.Fatal("out-of-bounds region accepted")
	}
	shallow, err := NewHalo(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepRegionDelta(shallow, shallow, k, nil, 0, 8, 0, 8); err == nil {
		t.Fatal("radius > halo accepted")
	}
}

// TestClassify pins the specialization dispatch: built-in 5/9-point
// geometry specializes, everything else — including a same-geometry
// stencil with different metadata — stays generic.
func TestClassify(t *testing.T) {
	cases := []struct {
		k    Kernel
		want kernelClass
	}{
		{Laplace5(16), class5Point},
		{Laplace9(16), class9Point},
		{Star9(16), classGeneric},
		{Averaging(stencil.ThirteenPoint), classGeneric},
		{Averaging(stencil.FivePoint), class5Point},
		{Averaging(stencil.FivePoint.WithFlops(42)), classGeneric},
		// A distinct handle to an equal definition still specializes.
		{Averaging(stencil.FivePoint.WithFlops(5)), class5Point},
	}
	for _, c := range cases {
		if got := classify(c.k); got != c.want {
			t.Fatalf("classify(%s, E=%g) = %d, want %d",
				c.k.Stencil.Name(), c.k.Stencil.Flops(), got, c.want)
		}
	}
}

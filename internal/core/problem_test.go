package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// TestProblemSize pins Problem to three words: it is passed by value
// into every cycle-time evaluation, so a wider stencil field would put
// a block copy back on the model's hot path.
func TestProblemSize(t *testing.T) {
	if got := unsafe.Sizeof(Problem{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Problem{}) = %d, want <= 24", got)
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := NewProblem(0, stencil.FivePoint, partition.Strip); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewProblem(8, stencil.Stencil{}, partition.Strip); err == nil {
		t.Error("invalid stencil accepted")
	}
	if _, err := NewProblem(8, stencil.FivePoint, partition.Shape(7)); err == nil {
		t.Error("invalid shape accepted")
	}
	p, err := NewProblem(8, stencil.FivePoint, partition.Square)
	if err != nil {
		t.Fatal(err)
	}
	if p.GridPoints() != 64 {
		t.Errorf("GridPoints = %g", p.GridPoints())
	}
}

func TestMustProblemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProblem did not panic")
		}
	}()
	MustProblem(0, stencil.FivePoint, partition.Strip)
}

func TestSerialTime(t *testing.T) {
	p := MustProblem(256, stencil.FivePoint, partition.Square)
	want := 5.0 * 256 * 256 * DefaultTflp
	if got := p.SerialTime(DefaultTflp); math.Abs(got-want) > 1e-15 {
		t.Errorf("SerialTime = %g, want %g", got, want)
	}
}

func TestReadWords(t *testing.T) {
	strip := MustProblem(100, stencil.FivePoint, partition.Strip)
	if got := strip.ReadWords(500); got != 200 { // 2·n·k
		t.Errorf("strip ReadWords = %g, want 200", got)
	}
	strip2 := MustProblem(100, stencil.NineStar, partition.Strip)
	if got := strip2.ReadWords(500); got != 400 { // k = 2
		t.Errorf("strip 9-star ReadWords = %g, want 400", got)
	}
	sq := MustProblem(100, stencil.FivePoint, partition.Square)
	if got := sq.ReadWords(64); got != 32 { // 4·√64·k
		t.Errorf("square ReadWords = %g, want 32", got)
	}
}

func TestMaxProcsAndAreaFor(t *testing.T) {
	strip := MustProblem(64, stencil.FivePoint, partition.Strip)
	if strip.MaxProcs() != 64 {
		t.Errorf("strip MaxProcs = %d", strip.MaxProcs())
	}
	sq := MustProblem(64, stencil.FivePoint, partition.Square)
	if sq.MaxProcs() != 4096 {
		t.Errorf("square MaxProcs = %d", sq.MaxProcs())
	}
	if got := sq.AreaFor(16); got != 256 {
		t.Errorf("AreaFor(16) = %g", got)
	}
}

func TestProblemString(t *testing.T) {
	p := MustProblem(256, stencil.FivePoint, partition.Square)
	s := p.String()
	for _, frag := range []string{"256", "5-point", "square"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestKMatchesShapeTable(t *testing.T) {
	for _, st := range stencil.Builtins() {
		for _, sh := range partition.Shapes() {
			p := MustProblem(32, st, sh)
			if got, want := p.K(), sh.Perimeters(st); got != want {
				t.Errorf("%s: K() = %d, want %d", p, got, want)
			}
		}
	}
}

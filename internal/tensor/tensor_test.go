package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// naiveMatVec is the plain one-row-at-a-time loop MatVec must match bit for
// bit.
func naiveMatVec(w []float32, rows, cols int, x, out []float32) {
	for r := 0; r < rows; r++ {
		var s float32
		for c := 0; c < cols; c++ {
			s += w[r*cols+c] * x[c]
		}
		out[r] = s
	}
}

// naiveRope is the per-element rotary embedding RopeTable plus RopeApply
// must match bit for bit.
func naiveRope(v []float32, headDim, pos int, base float64) {
	for h := 0; h < len(v); h += headDim {
		for i := 0; i < headDim/2; i++ {
			theta := float64(pos) / math.Pow(base, 2*float64(i)/float64(headDim))
			sin, cos := math.Sincos(theta)
			a, b := v[h+2*i], v[h+2*i+1]
			v[h+2*i] = a*float32(cos) - b*float32(sin)
			v[h+2*i+1] = a*float32(sin) + b*float32(cos)
		}
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMatVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := [][2]int{{1, 1}, {1, 7}, {2, 3}, {3, 5}, {4, 4}, {5, 9}, {6, 1}, {7, 16}, {1137, 64}}
	for trial := 0; trial < 200; trial++ {
		shapes = append(shapes, [2]int{1 + rng.IntN(40), 1 + rng.IntN(70)})
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		w, x := randVec(rng, rows*cols), randVec(rng, cols)
		got, want := make([]float32, rows), make([]float32, rows)
		MatVec(w, rows, cols, x, got)
		naiveMatVec(w, rows, cols, x, want)
		if !sameBits(got, want) {
			t.Fatalf("MatVec %dx%d differs from the naive loop", rows, cols)
		}
	}
}

func TestRopeTableApplyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, headDim := range []int{2, 6, 16, 64} {
		for _, pos := range []int{0, 1, 7, 100, 4095, 123457} {
			for _, base := range []float64{10000, 500000} {
				v := randVec(rng, headDim*3)
				want := append([]float32(nil), v...)
				naiveRope(want, headDim, pos, base)
				tab := make([]float32, headDim)
				RopeTable(tab, pos, RopeDivisors(headDim, base))
				RopeApply(v, tab)
				if !sameBits(v, want) {
					t.Fatalf("RoPE headDim=%d pos=%d base=%g differs from the per-element loop", headDim, pos, base)
				}
			}
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"MatVec w":         func() { MatVec(make([]float32, 5), 2, 3, make([]float32, 3), make([]float32, 2)) },
		"MatVec x":         func() { MatVec(make([]float32, 6), 2, 3, make([]float32, 2), make([]float32, 2)) },
		"MatVec out":       func() { MatVec(make([]float32, 6), 2, 3, make([]float32, 3), make([]float32, 3)) },
		"Dot":              func() { Dot(make([]float32, 2), make([]float32, 3)) },
		"RopeDivisors odd": func() { RopeDivisors(3, 10000) },
		"RopeTable":        func() { RopeTable(make([]float32, 4), 1, make([]float64, 1)) },
		"RopeApply empty":  func() { RopeApply(make([]float32, 4), nil) },
		"RopeApply heads":  func() { RopeApply(make([]float32, 6), make([]float32, 4)) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

func TestKernels(t *testing.T) {
	x := []float32{3, 4}
	if got := Dot(x, x); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	AddInPlace(x, []float32{1, -1})
	if x[0] != 4 || x[1] != 3 {
		t.Fatalf("AddInPlace = %v, want [4 3]", x)
	}
	out := make([]float32, 2)
	RMSNorm([]float32{3, 4}, []float32{1, 2}, out, 0)
	if inv := float32(1 / math.Sqrt(12.5)); out[0] != 3*inv || out[1] != 4*inv*2 {
		t.Fatalf("RMSNorm = %v", out)
	}
	p := []float32{1, 1, 1, 1}
	Softmax(p)
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("Softmax of equal logits = %v, want all 0.25", p)
		}
	}
	Softmax(nil)
	s := []float32{0, 1}
	SiLU(s)
	if s[0] != 0 || math.Abs(float64(s[1])-1/(1+math.Exp(-1))) > 1e-6 {
		t.Fatalf("SiLU = %v", s)
	}
}

func BenchmarkMatVec(b *testing.B) {
	// The shapes Forward (wq/wk/wv/wo, w1/w3, w2) and Logits use.
	for _, sh := range [][2]int{{64, 64}, {128, 64}, {64, 128}, {1137, 64}} {
		rows, cols := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(5, 6))
			w, x, out := randVec(rng, rows*cols), randVec(rng, cols), make([]float32, rows)
			b.ReportAllocs()
			for b.Loop() {
				MatVec(w, rows, cols, x, out)
			}
		})
	}
}

// Package tensor provides the small float32 linear-algebra kernels used by
// the functional transformer model. Matrices are flat row-major slices.
//
// Every kernel is bit-exact with its plain scalar loop: each output element
// is accumulated by the same expression, in the same order. Float32
// addition is not associative, so a kernel may work on several outputs at
// once (MatVec blocks rows) but never splits one output's sum across
// accumulators or reorders its terms. That rules out SIMD-style lane
// reductions, and it is why MatVec is row-blocked: model outputs, cached
// KV entries and sampled tokens stay identical whatever kernel computed
// them.
package tensor

import "math"

// MatVec computes out = W·x for a rows×cols matrix W.
//
// Rows run four at a time, each with its own accumulator, so one load of
// x[c] serves four rows while every row keeps its left-to-right sum.
func MatVec(w []float32, rows, cols int, x, out []float32) {
	if len(w) != rows*cols || len(x) != cols || len(out) != rows {
		panic("tensor: MatVec dimension mismatch")
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		// Reslicing to len(x) lets the compiler drop the bounds checks.
		w0 := w[r*cols:][:len(x)]
		w1 := w[(r+1)*cols:][:len(x)]
		w2 := w[(r+2)*cols:][:len(x)]
		w3 := w[(r+3)*cols:][:len(x)]
		var s0, s1, s2, s3 float32
		for c, xc := range x {
			s0 += w0[c] * xc
			s1 += w1[c] * xc
			s2 += w2[c] * xc
			s3 += w3[c] * xc
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var s float32
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddInPlace sets dst += src.
func AddInPlace(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// RMSNorm writes weight ⊙ x/rms(x) into out (out may alias x).
func RMSNorm(x, weight, out []float32, eps float32) {
	var ss float32
	for _, v := range x {
		ss += v * v
	}
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+eps)))
	for i := range x {
		out[i] = x[i] * inv * weight[i]
	}
}

// Softmax normalizes x in place with max-subtraction for stability.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	mx := x[0]
	for _, v := range x[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - mx)))
		x[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	for i := range x {
		x[i] /= sum
	}
}

// SiLU applies x*sigmoid(x) elementwise in place.
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// RopeDivisors returns base^(2i/headDim) for each rotary frequency
// i < headDim/2: the divisor that turns a position into frequency i's angle.
// They depend only on the model, so a model computes them once.
func RopeDivisors(headDim int, base float64) []float64 {
	if headDim%2 != 0 {
		panic("tensor: RopeDivisors requires even headDim")
	}
	div := make([]float64, headDim/2)
	for i := range div {
		div[i] = math.Pow(base, 2*float64(i)/float64(headDim))
	}
	return div
}

// RopeTable writes the rotary-embedding rotation for absolute position pos
// into tab, whose length is the head size (twice len(div)): tab[2i] and
// tab[2i+1] are the sine and cosine of angle pos/div[i]. One table serves
// every head, layer and projection of a token.
func RopeTable(tab []float32, pos int, div []float64) {
	if len(tab) != 2*len(div) {
		panic("tensor: RopeTable length mismatch")
	}
	for i, dv := range div {
		theta := float64(pos) / dv
		sin, cos := math.Sincos(theta)
		tab[2*i], tab[2*i+1] = float32(sin), float32(cos)
	}
}

// RopeApply rotates v (a concatenation of heads of size len(tab)) in place
// by the table RopeTable built for its position.
func RopeApply(v, tab []float32) {
	headDim := len(tab)
	if headDim == 0 || len(v)%headDim != 0 {
		panic("tensor: RopeApply length mismatch")
	}
	for h := 0; h < len(v); h += headDim {
		vh := v[h : h+headDim]
		for i := 0; i < headDim; i += 2 {
			sin, cos := tab[i], tab[i+1]
			a, b := vh[i], vh[i+1]
			vh[i] = a*cos - b*sin
			vh[i+1] = a*sin + b*cos
		}
	}
}

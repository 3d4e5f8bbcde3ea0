// Package model implements the functional transformer that backs Pie's
// inference layer: a real (tiny) decoder-only model with RoPE attention
// over a paged KV cache, explicit per-token sequence positions, token-level
// attention masks, LoRA-style adapters, and top-K output distributions.
//
// Weights are deterministic functions of the model seed, so every
// experiment is reproducible. Timing is *not* this package's concern: the
// inference layer charges virtual GPU time according to the configured
// parameter class (1B/3B/8B) via internal/gpu, while this package supplies
// the semantics the paper's API contract requires (forward, masking, page
// copies, adapters).
package model

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"pie/internal/sim"
	"pie/internal/tensor"
	"pie/internal/tokenizer"
)

// Config describes a model instance.
type Config struct {
	Name       string // model id, e.g. "llama-1b"
	ParamLabel string // timing class: "1B", "3B", "8B"
	Dim        int    // hidden size
	Layers     int
	Heads      int
	HeadDim    int
	FFDim      int
	PageSize   int // tokens per KV page
	TopK       int // distribution truncation (paper default 256)
	RopeBase   float64
	Seed       uint64
	Multimodal bool // implements the InputImage trait
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Dim != c.Heads*c.HeadDim {
		return fmt.Errorf("model: Dim %d != Heads*HeadDim %d", c.Dim, c.Heads*c.HeadDim)
	}
	if c.PageSize <= 0 || c.Layers <= 0 || c.TopK <= 0 {
		return fmt.Errorf("model: non-positive size field in config %+v", c)
	}
	return nil
}

type layer struct {
	wq, wk, wv, wo []float32 // Dim x Dim
	w1, w3         []float32 // FFDim x Dim (gate, up)
	w2             []float32 // Dim x FFDim
	norm1, norm2   []float32
}

// Adapter is a LoRA-style low-rank delta applied to the query and value
// projections of every layer (forward_with_adapter).
type Adapter struct {
	Name  string
	Rank  int
	Scale float32
	// per layer: aq,bq and av,bv with shapes Rank x Dim and Dim x Rank.
	aq, bq, av, bv [][]float32
}

// Model is an immutable set of weights plus the shared tokenizer.
type Model struct {
	cfg      Config
	tok      *tokenizer.Tokenizer
	embed    []float32 // vocab x dim, tied with the output head
	layers   []layer
	normF    []float32
	adapters map[string]*Adapter
}

// New constructs a model with deterministic seeded weights.
func New(cfg Config, tok *tokenizer.Tokenizer) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := sim.NewRNG(cfg.Seed)
	vocab := tok.VocabSize()
	m := &Model{cfg: cfg, tok: tok, adapters: make(map[string]*Adapter)}
	scale := 1 / math.Sqrt(float64(cfg.Dim))
	randMat := func(rows, cols int) []float32 {
		w := make([]float32, rows*cols)
		for i := range w {
			w[i] = float32(r.NormFloat64() * scale)
		}
		return w
	}
	ones := func(n int) []float32 {
		w := make([]float32, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	m.embed = randMat(vocab, cfg.Dim)
	m.normF = ones(cfg.Dim)
	for l := 0; l < cfg.Layers; l++ {
		m.layers = append(m.layers, layer{
			wq: randMat(cfg.Dim, cfg.Dim), wk: randMat(cfg.Dim, cfg.Dim),
			wv: randMat(cfg.Dim, cfg.Dim), wo: randMat(cfg.Dim, cfg.Dim),
			w1: randMat(cfg.FFDim, cfg.Dim), w3: randMat(cfg.FFDim, cfg.Dim),
			w2:    randMat(cfg.Dim, cfg.FFDim),
			norm1: ones(cfg.Dim), norm2: ones(cfg.Dim),
		})
	}
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Tokenizer returns the shared tokenizer.
func (m *Model) Tokenizer() *tokenizer.Tokenizer { return m.tok }

// VocabSize returns the output vocabulary size.
func (m *Model) VocabSize() int { return m.tok.VocabSize() }

// RegisterAdapter creates and installs a deterministic adapter under name.
func (m *Model) RegisterAdapter(name string, rank int, scale float32, seed uint64) *Adapter {
	r := sim.NewRNG(seed)
	a := &Adapter{Name: name, Rank: rank, Scale: scale}
	s := 1 / math.Sqrt(float64(m.cfg.Dim))
	mat := func(rows, cols int) []float32 {
		w := make([]float32, rows*cols)
		for i := range w {
			w[i] = float32(r.NormFloat64() * s)
		}
		return w
	}
	for l := 0; l < m.cfg.Layers; l++ {
		a.aq = append(a.aq, mat(rank, m.cfg.Dim))
		a.bq = append(a.bq, mat(m.cfg.Dim, rank))
		a.av = append(a.av, mat(rank, m.cfg.Dim))
		a.bv = append(a.bv, mat(m.cfg.Dim, rank))
	}
	m.adapters[name] = a
	return a
}

// Adapter looks up a registered adapter.
func (m *Model) Adapter(name string) (*Adapter, bool) {
	a, ok := m.adapters[name]
	return a, ok
}

// AdapterNames lists registered adapters in sorted order.
func (m *Model) AdapterNames() []string {
	names := make([]string, 0, len(m.adapters))
	for n := range m.adapters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EmbedSlot is one physical token-embedding slot. Vec holds either an input
// embedding (written by EmbedTokens/EmbedImage) or an output hidden state
// (written by Forward); Pos is the explicit sequence position.
type EmbedSlot struct {
	Vec   []float32
	Pos   int
	Valid bool
}

// NewEmbedSlot allocates a slot for this model's hidden size.
func (m *Model) NewEmbedSlot() *EmbedSlot {
	return &EmbedSlot{Vec: make([]float32, m.cfg.Dim)}
}

// KvPage is one physical KV-cache page: per-slot, per-layer key/value
// vectors plus position, occupancy, and token-level mask bits
// (mask_kvpage). Keys are stored post-RoPE, keyed by absolute position.
type KvPage struct {
	K, V   [][]float32 // [slot][layers*dim]
	Pos    []int
	Used   []bool
	Masked []bool
}

// NewKvPage allocates an empty page for this model.
func (m *Model) NewKvPage() *KvPage {
	p := &KvPage{
		K:      make([][]float32, m.cfg.PageSize),
		V:      make([][]float32, m.cfg.PageSize),
		Pos:    make([]int, m.cfg.PageSize),
		Used:   make([]bool, m.cfg.PageSize),
		Masked: make([]bool, m.cfg.PageSize),
	}
	for i := 0; i < m.cfg.PageSize; i++ {
		p.K[i] = make([]float32, m.cfg.Layers*m.cfg.Dim)
		p.V[i] = make([]float32, m.cfg.Layers*m.cfg.Dim)
	}
	return p
}

// Reset clears a page for reuse by a new owner.
func (p *KvPage) Reset() {
	for i := range p.Used {
		p.Used[i] = false
		p.Masked[i] = false
		p.Pos[i] = 0
	}
}

// NumUsed counts occupied slots.
func (p *KvPage) NumUsed() int {
	n := 0
	for _, u := range p.Used {
		if u {
			n++
		}
	}
	return n
}

// CopyTokens copies n token entries from src[srcOff:] to dst[dstOff:] at
// token level (the copy_kvpage API). Mask bits and positions travel with
// the entries.
func CopyTokens(src, dst *KvPage, srcOff, dstOff, n int) error {
	if srcOff < 0 || dstOff < 0 || srcOff+n > len(src.K) || dstOff+n > len(dst.K) {
		return fmt.Errorf("model: CopyTokens out of range (src %d+%d, dst %d+%d, page %d)",
			srcOff, n, dstOff, n, len(src.K))
	}
	for i := 0; i < n; i++ {
		copy(dst.K[dstOff+i], src.K[srcOff+i])
		copy(dst.V[dstOff+i], src.V[srcOff+i])
		dst.Pos[dstOff+i] = src.Pos[srcOff+i]
		dst.Used[dstOff+i] = src.Used[srcOff+i]
		dst.Masked[dstOff+i] = src.Masked[srcOff+i]
	}
	return nil
}

// EmbedTokens writes token embeddings into dst with explicit positions.
func (m *Model) EmbedTokens(ids []int, positions []int, dst []*EmbedSlot) error {
	if len(ids) != len(positions) || len(ids) != len(dst) {
		return fmt.Errorf("model: EmbedTokens length mismatch: %d ids, %d pos, %d dst",
			len(ids), len(positions), len(dst))
	}
	for i, id := range ids {
		if id < 0 || id >= m.VocabSize() {
			return fmt.Errorf("model: token id %d out of vocab", id)
		}
		copy(dst[i].Vec, m.embed[id*m.cfg.Dim:(id+1)*m.cfg.Dim])
		dst[i].Pos = positions[i]
		dst[i].Valid = true
	}
	return nil
}

// EmbedsNeededForImage reports how many embedding slots an image of the
// given byte size occupies (one per 256-byte patch, minimum 1).
func (m *Model) EmbedsNeededForImage(size int) int {
	n := (size + 255) / 256
	if n < 1 {
		n = 1
	}
	return n
}

// EmbedImage hashes image bytes into patch embeddings (the InputImage
// trait). A real vision tower is out of scope; this preserves the resource
// and API contract: n patches consume n embedding slots with positions.
func (m *Model) EmbedImage(blob []byte, positions []int, dst []*EmbedSlot) error {
	need := m.EmbedsNeededForImage(len(blob))
	if len(dst) != need || len(positions) != need {
		return fmt.Errorf("model: EmbedImage needs %d slots, got %d", need, len(dst))
	}
	for i := range dst {
		lo, hi := i*256, (i+1)*256
		if hi > len(blob) {
			hi = len(blob)
		}
		var h uint64 = 1469598103934665603
		for _, b := range blob[lo:hi] {
			h = (h ^ uint64(b)) * 1099511628211
		}
		r := sim.NewRNG(h)
		for j := range dst[i].Vec {
			dst[i].Vec[j] = float32(r.NormFloat64()) / float32(math.Sqrt(float64(m.cfg.Dim)))
		}
		dst[i].Pos = positions[i]
		dst[i].Valid = true
	}
	return nil
}

// kvRef flattens the usable context entries of a page list.
type kvRef struct {
	page *KvPage
	slot int
}

func gatherContext(pages []*KvPage) []kvRef {
	var refs []kvRef
	for _, p := range pages {
		for s, used := range p.Used {
			if used && !p.Masked[s] {
				refs = append(refs, kvRef{p, s})
			}
		}
	}
	return refs
}

// ForwardResult reports what a forward pass produced.
type ForwardResult struct {
	// Outputs holds the final-norm hidden states for the last len(OutputEmb)
	// input tokens; written into the provided slots by the caller-visible
	// contract, returned here for inspection.
	Outputs [][]float32
}

// Forward runs the full transformer pass (§4.2's forward API):
//
//   - ctx: context KV pages (token-mask bits respected),
//   - inputs: input embedding slots with explicit positions,
//   - outKv: pages that receive the input tokens' KV entries, appended in
//     order into unused slots (may be nil to discard KV),
//   - outEmb: slots that receive the outputs of the last len(outEmb) inputs,
//   - mask: optional explicit attention matrix, rows = inputs, cols =
//     context tokens (in gather order) followed by inputs. nil = causal by
//     position.
//   - adapter: optional LoRA adapter name ("" for none).
func (m *Model) Forward(ctx []*KvPage, inputs []*EmbedSlot, outKv []*KvPage, outEmb []*EmbedSlot, mask [][]bool, adapterName string) (*ForwardResult, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("model: Forward with no input embeddings")
	}
	for i, in := range inputs {
		if !in.Valid {
			return nil, fmt.Errorf("model: Forward input %d is uninitialized", i)
		}
	}
	if len(outEmb) > n {
		return nil, fmt.Errorf("model: %d output embeds for %d inputs", len(outEmb), n)
	}
	var adapter *Adapter
	if adapterName != "" {
		a, ok := m.adapters[adapterName]
		if !ok {
			return nil, fmt.Errorf("model: unknown adapter %q", adapterName)
		}
		adapter = a
	}
	refs := gatherContext(ctx)
	nc := len(refs)
	if mask != nil {
		if len(mask) != n {
			return nil, fmt.Errorf("model: mask has %d rows for %d inputs", len(mask), n)
		}
		for i, row := range mask {
			if len(row) != nc+n {
				return nil, fmt.Errorf("model: mask row %d has %d cols, want %d ctx + %d inputs", i, len(row), nc, n)
			}
		}
	}
	// Reserve output KV slots up front.
	var dstRefs []kvRef
	if len(outKv) > 0 {
		for _, p := range outKv {
			for s := range p.Used {
				if !p.Used[s] {
					dstRefs = append(dstRefs, kvRef{p, s})
					if len(dstRefs) == n {
						break
					}
				}
			}
			if len(dstRefs) == n {
				break
			}
		}
		if len(dstRefs) < n {
			return nil, fmt.Errorf("model: output pages have %d free slots for %d tokens", len(dstRefs), n)
		}
	}

	d, hd, heads, L := m.cfg.Dim, m.cfg.HeadDim, m.cfg.Heads, m.cfg.Layers
	h := make([][]float32, n) // residual stream
	for i := range h {
		h[i] = tensor.Copy(inputs[i].Vec)
	}
	// Per-input per-layer new KV (needed for intra-batch attention).
	newK := make([][][]float32, n)
	newV := make([][][]float32, n)
	for i := range newK {
		newK[i] = make([][]float32, L)
		newV[i] = make([][]float32, L)
	}

	allow := func(i int, col int) bool { // col < nc: context; else input index col-nc
		if mask != nil {
			return mask[i][col]
		}
		pi := inputs[i].Pos
		if col < nc {
			r := refs[col]
			return r.page.Pos[r.slot] <= pi
		}
		return inputs[col-nc].Pos <= pi
	}

	xn := make([]float32, d)
	q := make([]float32, d)
	scores := make([]float32, nc+n)
	attnOut := make([]float32, d)
	proj := make([]float32, d)
	ff1 := make([]float32, m.cfg.FFDim)
	ff3 := make([]float32, m.cfg.FFDim)
	lowQ := make([]float32, 64)
	invSqrt := 1 / float32(math.Sqrt(float64(hd)))

	for l := 0; l < L; l++ {
		lw := &m.layers[l]
		// Compute k,v for every input token first (post-RoPE keys).
		for i := 0; i < n; i++ {
			tensor.RMSNorm(h[i], lw.norm1, xn, 1e-5)
			k := make([]float32, d)
			v := make([]float32, d)
			tensor.MatVec(lw.wk, d, d, xn, k)
			tensor.MatVec(lw.wv, d, d, xn, v)
			if adapter != nil {
				applyLoRA(adapter.av[l], adapter.bv[l], adapter.Rank, adapter.Scale, xn, v, lowQ)
			}
			tensor.Rope(k, hd, inputs[i].Pos, m.cfg.RopeBase)
			newK[i][l], newV[i][l] = k, v
		}
		for i := 0; i < n; i++ {
			tensor.RMSNorm(h[i], lw.norm1, xn, 1e-5)
			tensor.MatVec(lw.wq, d, d, xn, q)
			if adapter != nil {
				applyLoRA(adapter.aq[l], adapter.bq[l], adapter.Rank, adapter.Scale, xn, q, lowQ)
			}
			tensor.Rope(q, hd, inputs[i].Pos, m.cfg.RopeBase)
			for hh := 0; hh < heads; hh++ {
				qh := q[hh*hd : (hh+1)*hd]
				cols := 0
				scores = scores[:0]
				colIdx := make([]int, 0, nc+n)
				for cIdx := 0; cIdx < nc+n; cIdx++ {
					if !allow(i, cIdx) {
						continue
					}
					var kvec []float32
					if cIdx < nc {
						r := refs[cIdx]
						kvec = r.page.K[r.slot][l*d : (l+1)*d]
					} else {
						kvec = newK[cIdx-nc][l]
					}
					scores = append(scores, tensor.Dot(qh, kvec[hh*hd:(hh+1)*hd])*invSqrt)
					colIdx = append(colIdx, cIdx)
					cols++
				}
				for j := range attnOut[hh*hd : (hh+1)*hd] {
					attnOut[hh*hd+j] = 0
				}
				if cols == 0 {
					continue
				}
				tensor.Softmax(scores)
				for sIdx, cIdx := range colIdx {
					var vvec []float32
					if cIdx < nc {
						r := refs[cIdx]
						vvec = r.page.V[r.slot][l*d : (l+1)*d]
					} else {
						vvec = newV[cIdx-nc][l]
					}
					w := scores[sIdx]
					for j := 0; j < hd; j++ {
						attnOut[hh*hd+j] += w * vvec[hh*hd+j]
					}
				}
			}
			tensor.MatVec(lw.wo, d, d, attnOut, proj)
			tensor.AddInPlace(h[i], proj)
			// MLP (SwiGLU).
			tensor.RMSNorm(h[i], lw.norm2, xn, 1e-5)
			tensor.MatVec(lw.w1, m.cfg.FFDim, d, xn, ff1)
			tensor.MatVec(lw.w3, m.cfg.FFDim, d, xn, ff3)
			tensor.SiLU(ff1)
			for j := range ff1 {
				ff1[j] *= ff3[j]
			}
			tensor.MatVec(lw.w2, d, m.cfg.FFDim, ff1, proj)
			tensor.AddInPlace(h[i], proj)
		}
	}

	// Persist KV.
	for i, ref := range dstRefs {
		for l := 0; l < L; l++ {
			copy(ref.page.K[ref.slot][l*d:(l+1)*d], newK[i][l])
			copy(ref.page.V[ref.slot][l*d:(l+1)*d], newV[i][l])
		}
		ref.page.Pos[ref.slot] = inputs[i].Pos
		ref.page.Used[ref.slot] = true
		ref.page.Masked[ref.slot] = false
	}

	// Final norm on the last len(outEmb) tokens.
	res := &ForwardResult{}
	start := n - len(outEmb)
	for i, slot := range outEmb {
		out := make([]float32, d)
		tensor.RMSNorm(h[start+i], m.normF, out, 1e-5)
		copy(slot.Vec, out)
		slot.Pos = inputs[start+i].Pos
		slot.Valid = true
		res.Outputs = append(res.Outputs, out)
	}
	return res, nil
}

func applyLoRA(a, b []float32, rank int, scale float32, x, dst, scratch []float32) {
	low := scratch[:rank]
	tensor.MatVec(a, rank, len(x), x, low)
	d := len(dst)
	for r := 0; r < d; r++ {
		var s float32
		for c := 0; c < rank; c++ {
			s += b[r*rank+c] * low[c]
		}
		dst[r] += scale * s
	}
}

// Logits projects a hidden state onto the (tied) output vocabulary.
func (m *Model) Logits(hidden []float32) []float32 {
	v := m.VocabSize()
	out := make([]float32, v)
	tensor.MatVec(m.embed, v, m.cfg.Dim, hidden, out)
	return out
}

// NextDist computes the top-K next-token distribution for an output
// embedding produced by Forward (the get_next_dist API). Probabilities are
// renormalized over the truncated support, descending.
func (m *Model) NextDist(slot *EmbedSlot) (tokens []int, probs []float32, err error) {
	if !slot.Valid {
		return nil, nil, fmt.Errorf("model: NextDist on uninitialized embed")
	}
	logits := m.Logits(slot.Vec)
	tensor.Softmax(logits)
	tokens = topK(logits, min(m.cfg.TopK, len(logits)))
	var sum float32
	for _, i := range tokens {
		sum += logits[i]
	}
	probs = make([]float32, len(tokens))
	for j, i := range tokens {
		probs[j] = logits[i] / sum
	}
	return tokens, probs, nil
}

// topK returns the ids of the k highest probabilities ordered by
// probability descending, then id ascending: the first k of a full sort
// under that order, selected through a k-sized heap in O(n log k).
func topK(probs []float32, k int) []int {
	// ahead reports whether id a ranks before id b.
	ahead := func(a, b int) bool {
		if probs[a] != probs[b] {
			return probs[a] > probs[b]
		}
		return a < b
	}
	// h is a heap of the best k ids so far, rooted at the lowest ranked.
	h := make([]int, k)
	down := func(p int) {
		for {
			c := 2*p + 1
			if c >= k {
				return
			}
			if c+1 < k && ahead(h[c], h[c+1]) {
				c++
			}
			if !ahead(h[p], h[c]) {
				return
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	for i := range h {
		h[i] = i
	}
	for p := k/2 - 1; p >= 0; p-- {
		down(p)
	}
	for i := k; i < len(probs); i++ {
		// i exceeds every id in h, so it ranks ahead only on probability.
		if probs[i] > probs[h[0]] {
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case ahead(a, b):
			return -1
		}
		return 1
	})
	return h
}

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
	if c.HeadDim%2 != 0 {
		return fmt.Errorf("model: HeadDim %d is odd; RoPE rotates pairs", c.HeadDim)
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
	ropeDiv  []float64 // tensor.RopeDivisors for this head size and base
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
	m.ropeDiv = tensor.RopeDivisors(cfg.HeadDim, cfg.RopeBase)
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
//
// Used and Masked are read freely but written only through SetSlot (or
// Reset), which keeps the page's attended-slot count current: batch
// pricing reads Attended once per context page instead of rescanning
// every slot of every page at each dispatch.
type KvPage struct {
	K, V   [][]float32 // [slot][layers*dim]
	Pos    []int
	Used   []bool
	Masked []bool

	attended int // slots that are used and not masked
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
	clear(p.Used)
	clear(p.Masked)
	clear(p.Pos)
	p.attended = 0
}

// SetSlot writes slot s's occupancy and mask bits, keeping the attended
// count current. It is the only writer of Used and Masked besides Reset.
func (p *KvPage) SetSlot(s int, used, masked bool) {
	if p.Used[s] && !p.Masked[s] {
		p.attended--
	}
	p.Used[s], p.Masked[s] = used, masked
	if used && !masked {
		p.attended++
	}
}

// Attended reports how many slots a forward attends over: used and not
// masked.
func (p *KvPage) Attended() int { return p.attended }

// CopyFrom deep-copies src's occupancy, mask bits, positions and (when
// src carries them) KV vectors into p: a whole-page migration between
// replicas.
func (p *KvPage) CopyFrom(src *KvPage) {
	for s := range src.Used {
		p.SetSlot(s, src.Used[s], src.Masked[s])
		p.Pos[s] = src.Pos[s]
		if len(src.K[s]) > 0 {
			p.K[s] = append(p.K[s][:0], src.K[s]...)
			p.V[s] = append(p.V[s][:0], src.V[s]...)
		}
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
		dst.SetSlot(dstOff+i, src.Used[srcOff+i], src.Masked[srcOff+i])
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

	d, hd, heads, L, ffDim := m.cfg.Dim, m.cfg.HeadDim, m.cfg.Heads, m.cfg.Layers, m.cfg.FFDim
	h := make([]float32, n*d) // residual stream, one row per input
	for i, in := range inputs {
		copy(h[i*d:(i+1)*d], in.Vec)
	}
	// The inputs' new KV entries, one layers*dim row per input laid out as
	// in a KvPage, so attention reads them like context entries.
	kvSlab := make([]float32, 2*n*L*d)
	newK, newV := kvSlab[:n*L*d], kvSlab[n*L*d:]
	// Key and value rows of every attention column: context entries in
	// gather order, then the inputs.
	colK := make([][]float32, nc+n)
	colV := make([][]float32, nc+n)
	for c, r := range refs {
		colK[c], colV[c] = r.page.K[r.slot], r.page.V[r.slot]
	}
	for j := 0; j < n; j++ {
		colK[nc+j], colV[nc+j] = newK[j*L*d:(j+1)*L*d], newV[j*L*d:(j+1)*L*d]
	}
	cols := attentionColumns(refs, inputs, mask)
	// One RoPE table per input serves q and k of every head and layer.
	rope := make([]float32, n*hd)
	for i, in := range inputs {
		tensor.RopeTable(rope[i*hd:(i+1)*hd], in.Pos, m.ropeDiv)
	}

	xn := make([]float32, d)
	qs := make([]float32, n*d)
	scores := make([]float32, nc+n)
	attnOut := make([]float32, d)
	proj := make([]float32, d)
	ff1 := make([]float32, ffDim)
	ff3 := make([]float32, ffDim)
	var lowRank []float32
	if adapter != nil {
		lowRank = make([]float32, adapter.Rank)
	}
	invSqrt := 1 / float32(math.Sqrt(float64(hd)))

	for l := 0; l < L; l++ {
		lw := &m.layers[l]
		// Project q, k, v for every input first (post-RoPE q and k): every
		// input's attention reads every other input's k and v.
		for i := 0; i < n; i++ {
			tensor.RMSNorm(h[i*d:(i+1)*d], lw.norm1, xn, 1e-5)
			q := qs[i*d : (i+1)*d]
			k := newK[(i*L+l)*d : (i*L+l+1)*d]
			v := newV[(i*L+l)*d : (i*L+l+1)*d]
			tensor.MatVec(lw.wq, d, d, xn, q)
			tensor.MatVec(lw.wk, d, d, xn, k)
			tensor.MatVec(lw.wv, d, d, xn, v)
			if adapter != nil {
				applyLoRA(adapter.av[l], adapter.bv[l], adapter.Rank, adapter.Scale, xn, v, lowRank)
				applyLoRA(adapter.aq[l], adapter.bq[l], adapter.Rank, adapter.Scale, xn, q, lowRank)
			}
			tab := rope[i*hd : (i+1)*hd]
			tensor.RopeApply(k, tab)
			tensor.RopeApply(q, tab)
		}
		for i := 0; i < n; i++ {
			hi := h[i*d : (i+1)*d]
			for hh := 0; hh < heads; hh++ {
				qh := qs[i*d+hh*hd : i*d+(hh+1)*hd]
				out := attnOut[hh*hd : (hh+1)*hd]
				clear(out)
				if len(cols[i]) == 0 {
					continue
				}
				off := l*d + hh*hd
				sc := scores[:len(cols[i])]
				for s, c := range cols[i] {
					sc[s] = tensor.Dot(qh, colK[c][off:off+hd]) * invSqrt
				}
				tensor.Softmax(sc)
				for s, c := range cols[i] {
					w, vh := sc[s], colV[c][off:off+hd]
					for j := range out {
						out[j] += w * vh[j]
					}
				}
			}
			tensor.MatVec(lw.wo, d, d, attnOut, proj)
			tensor.AddInPlace(hi, proj)
			// MLP (SwiGLU).
			tensor.RMSNorm(hi, lw.norm2, xn, 1e-5)
			tensor.MatVec(lw.w1, ffDim, d, xn, ff1)
			tensor.MatVec(lw.w3, ffDim, d, xn, ff3)
			tensor.SiLU(ff1)
			for j := range ff1 {
				ff1[j] *= ff3[j]
			}
			tensor.MatVec(lw.w2, d, ffDim, ff1, proj)
			tensor.AddInPlace(hi, proj)
		}
	}

	// Persist KV.
	for i, ref := range dstRefs {
		copy(ref.page.K[ref.slot], colK[nc+i])
		copy(ref.page.V[ref.slot], colV[nc+i])
		ref.page.Pos[ref.slot] = inputs[i].Pos
		ref.page.SetSlot(ref.slot, true, false)
	}

	// Final norm on the last len(outEmb) tokens.
	res := &ForwardResult{}
	start := n - len(outEmb)
	for i, slot := range outEmb {
		out := make([]float32, d)
		tensor.RMSNorm(h[(start+i)*d:(start+i+1)*d], m.normF, out, 1e-5)
		copy(slot.Vec, out)
		slot.Pos = inputs[start+i].Pos
		slot.Valid = true
		res.Outputs = append(res.Outputs, out)
	}
	return res, nil
}

// attentionColumns lists, for each input, the attention columns it may
// read, ascending: context entries are columns 0..len(refs)-1 in gather
// order, input j is column len(refs)+j. An explicit mask decides; without
// one an input sees every column at a position no later than its own. The
// lists depend on neither layer nor head, so Forward builds them once.
func attentionColumns(refs []kvRef, inputs []*EmbedSlot, mask [][]bool) [][]int32 {
	nc := len(refs)
	ends := make([]int, len(inputs))
	var flat []int32
	for i, in := range inputs {
		if mask != nil {
			for c, ok := range mask[i] {
				if ok {
					flat = append(flat, int32(c))
				}
			}
		} else {
			for c, r := range refs {
				if r.page.Pos[r.slot] <= in.Pos {
					flat = append(flat, int32(c))
				}
			}
			for j, other := range inputs {
				if other.Pos <= in.Pos {
					flat = append(flat, int32(nc+j))
				}
			}
		}
		ends[i] = len(flat)
	}
	cols := make([][]int32, len(inputs))
	start := 0
	for i, end := range ends {
		cols[i] = flat[start:end:end]
		start = end
	}
	return cols
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
//
// Each candidate is one integer key, ^bits(p)<<32 | id. For p ≥ 0 (softmax
// outputs, +0 on underflow) the float bits grow with p, so ascending keys
// give exactly that order.
func topK(probs []float32, k int) []int {
	key := func(id int) uint64 {
		return uint64(^math.Float32bits(probs[id]))<<32 | uint64(id)
	}
	// h is a max-heap of the best k keys so far, rooted at the lowest ranked.
	h := make([]uint64, k)
	down := func(p int) {
		for {
			c := 2*p + 1
			if c >= k {
				return
			}
			if c+1 < k && h[c+1] > h[c] {
				c++
			}
			if h[p] >= h[c] {
				return
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	for i := range h {
		h[i] = key(i)
	}
	for p := k/2 - 1; p >= 0; p-- {
		down(p)
	}
	for i := k; i < len(probs); i++ {
		if ki := key(i); ki < h[0] {
			h[0] = ki
			down(0)
		}
	}
	slices.Sort(h)
	ids := make([]int, k)
	for j, kj := range h {
		ids[j] = int(uint32(kj))
	}
	return ids
}

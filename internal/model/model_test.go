package model

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pie/internal/tensor"
)

func testModel(t testing.TB) *Model {
	t.Helper()
	return StandardCatalog(42).Models["llama-1b"]
}

func embedPrompt(t testing.TB, m *Model, ids []int, startPos int) []*EmbedSlot {
	t.Helper()
	slots := make([]*EmbedSlot, len(ids))
	pos := make([]int, len(ids))
	for i := range ids {
		slots[i] = m.NewEmbedSlot()
		pos[i] = startPos + i
	}
	if err := m.EmbedTokens(ids, pos, slots); err != nil {
		t.Fatalf("EmbedTokens: %v", err)
	}
	return slots
}

func maxAbsDiff(a, b []float32) float64 {
	var mx float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > mx {
			mx = d
		}
	}
	return mx
}

func TestForwardDeterminism(t *testing.T) {
	a := StandardCatalog(7).Models["llama-1b"]
	b := StandardCatalog(7).Models["llama-1b"]
	ids := a.Tokenizer().Encode("the world is ")
	oa, ob := a.NewEmbedSlot(), b.NewEmbedSlot()
	if _, err := a.Forward(nil, embedPrompt(t, a, ids, 0), nil, []*EmbedSlot{oa}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Forward(nil, embedPrompt(t, b, ids, 0), nil, []*EmbedSlot{ob}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(oa.Vec, ob.Vec); d != 0 {
		t.Fatalf("same-seed forward diverged by %g", d)
	}
}

func TestModelsDiffer(t *testing.T) {
	cat := StandardCatalog(7)
	ids := cat.Tokenizer.Encode("hello")
	m1, m8 := cat.Models["llama-1b"], cat.Models["llama-8b"]
	o1, o8 := m1.NewEmbedSlot(), m8.NewEmbedSlot()
	m1.Forward(nil, embedPrompt(t, m1, ids, 0), nil, []*EmbedSlot{o1}, nil, "")
	m8.Forward(nil, embedPrompt(t, m8, ids, 0), nil, []*EmbedSlot{o8}, nil, "")
	if maxAbsDiff(o1.Vec, o8.Vec) == 0 {
		t.Fatal("1B and 8B models produced identical hidden states")
	}
}

// The paper's §4.2 example: one prefill over n tokens must equal the same
// prefill split into two forward calls chained through a KvPage.
func TestSplitForwardEquivalence(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("the answer to life the universe and everything is ")
	n := len(ids)
	if n < 4 {
		t.Fatal("prompt too short for the test")
	}

	// Single pass.
	single := m.NewEmbedSlot()
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, []*EmbedSlot{single}, nil, ""); err != nil {
		t.Fatal(err)
	}

	// Split pass: first n-1 tokens into a page, then the last token.
	pages := []*KvPage{m.NewKvPage(), m.NewKvPage(), m.NewKvPage(), m.NewKvPage()}
	inputs := embedPrompt(t, m, ids, 0)
	if _, err := m.Forward(nil, inputs[:n-1], pages, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	split := m.NewEmbedSlot()
	if _, err := m.Forward(pages, inputs[n-1:], nil, []*EmbedSlot{split}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(single.Vec, split.Vec); d > 1e-4 {
		t.Fatalf("split forward diverged from single pass by %g", d)
	}
}

// Property: equivalence holds for any split point and prompt.
func TestQuickSplitPointEquivalence(t *testing.T) {
	m := testModel(t)
	f := func(seedText string, cutRaw uint8) bool {
		ids := m.Tokenizer().Encode("prefix " + seedText)
		if len(ids) < 3 {
			return true
		}
		if len(ids) > 24 {
			ids = ids[:24]
		}
		cut := 1 + int(cutRaw)%(len(ids)-1)

		single := m.NewEmbedSlot()
		if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, []*EmbedSlot{single}, nil, ""); err != nil {
			return false
		}
		var pages []*KvPage
		for i := 0; i < (cut+m.cfg.PageSize-1)/m.cfg.PageSize+1; i++ {
			pages = append(pages, m.NewKvPage())
		}
		inputs := embedPrompt(t, m, ids, 0)
		if _, err := m.Forward(nil, inputs[:cut], pages, nil, nil, ""); err != nil {
			return false
		}
		split := m.NewEmbedSlot()
		if _, err := m.Forward(pages, inputs[cut:], nil, []*EmbedSlot{split}, nil, ""); err != nil {
			return false
		}
		return maxAbsDiff(single.Vec, split.Vec) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// CopyFrom migrates a whole page: KV vectors, positions, occupancy, mask
// bits and the attended count, overwriting whatever the destination held.
func TestCopyFromClonesPage(t *testing.T) {
	m := testModel(t)
	src := m.NewKvPage()
	if _, err := m.Forward(nil, embedPrompt(t, m, []int{5, 6, 7, 8, 9}, 0), []*KvPage{src}, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	src.SetSlot(1, true, true)
	dst := m.NewKvPage()
	if _, err := m.Forward(nil, embedPrompt(t, m, []int{20, 21, 22, 23, 24, 25, 26, 27, 28}, 7), []*KvPage{dst}, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	dst.CopyFrom(src)
	if d := diffPages([]*KvPage{src}, []*KvPage{dst}); d != "" {
		t.Fatal(d)
	}
	if dst.Attended() != src.NumUsed()-1 {
		t.Fatalf("attended %d, want %d used minus 1 masked", dst.Attended(), src.NumUsed())
	}
}

// Masking a KV entry must be equivalent to never having cached it.
func TestMaskEquivalentToOmission(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("one two three four five six ")
	n := len(ids)

	// Cache all n tokens, then mask entry 1.
	pagesA := []*KvPage{m.NewKvPage(), m.NewKvPage()}
	inA := embedPrompt(t, m, ids, 0)
	if _, err := m.Forward(nil, inA, pagesA, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	pagesA[0].SetSlot(1, true, true)

	// Cache only tokens != 1 (same positions).
	pagesB := []*KvPage{m.NewKvPage(), m.NewKvPage()}
	var keepIds, keepPos []int
	for i, id := range ids {
		if i == 1 {
			continue
		}
		keepIds = append(keepIds, id)
		keepPos = append(keepPos, i)
	}
	slotsB := make([]*EmbedSlot, len(keepIds))
	for i := range slotsB {
		slotsB[i] = m.NewEmbedSlot()
	}
	if err := m.EmbedTokens(keepIds, keepPos, slotsB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward(nil, slotsB, pagesB, nil, nil, ""); err != nil {
		t.Fatal(err)
	}

	// Note: KV entries for kept tokens differ slightly between A and B
	// (token 1 participated in A's prefill), so compare behaviour with a
	// fresh query token instead of raw KV. Token 1 must be invisible in A.
	q := embedPrompt(t, m, m.Tokenizer().Encode("?"), n)
	outA, outB := m.NewEmbedSlot(), m.NewEmbedSlot()
	if _, err := m.Forward(pagesA, q, nil, []*EmbedSlot{outA}, nil, ""); err != nil {
		t.Fatal(err)
	}
	q2 := embedPrompt(t, m, m.Tokenizer().Encode("?"), n)
	if _, err := m.Forward(pagesB, q2, nil, []*EmbedSlot{outB}, nil, ""); err != nil {
		t.Fatal(err)
	}
	// The two outputs must differ from "no masking" and agree in the
	// number of visible context entries; exact equality is not expected
	// because A's kept KV was computed with token 1 present.
	unmaskedOut := m.NewEmbedSlot()
	pagesA[0].SetSlot(1, true, false)
	q3 := embedPrompt(t, m, m.Tokenizer().Encode("?"), n)
	if _, err := m.Forward(pagesA, q3, nil, []*EmbedSlot{unmaskedOut}, nil, ""); err != nil {
		t.Fatal(err)
	}
	pagesA[0].SetSlot(1, true, true)
	if maxAbsDiff(outA.Vec, unmaskedOut.Vec) == 0 {
		t.Fatal("masking a context token had no effect on attention")
	}
}

func TestExplicitMaskMatchesCausalDefault(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("a b c d ")
	pages := []*KvPage{m.NewKvPage()}
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), pages, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	nc := pages[0].NumUsed()

	q := embedPrompt(t, m, m.Tokenizer().Encode("!"), len(ids))
	implicit := m.NewEmbedSlot()
	if _, err := m.Forward(pages, q, nil, []*EmbedSlot{implicit}, nil, ""); err != nil {
		t.Fatal(err)
	}
	// An explicit all-true mask over (ctx + self) must equal the causal
	// default for a strictly-later query token.
	mask := [][]bool{make([]bool, nc+1)}
	for i := range mask[0] {
		mask[0][i] = true
	}
	q2 := embedPrompt(t, m, m.Tokenizer().Encode("!"), len(ids))
	explicit := m.NewEmbedSlot()
	if _, err := m.Forward(pages, q2, nil, []*EmbedSlot{explicit}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(implicit.Vec, explicit.Vec); d != 0 {
		t.Fatalf("explicit all-true mask diverged from causal default by %g", d)
	}
}

func TestCausalityFutureContextIgnored(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("x y z ")
	pages := []*KvPage{m.NewKvPage()}
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), pages, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	// A query at position 0 must see only context entries at position <= 0.
	q := embedPrompt(t, m, []int{ids[0]}, 0)
	withCtx := m.NewEmbedSlot()
	if _, err := m.Forward(pages, q, nil, []*EmbedSlot{withCtx}, nil, ""); err != nil {
		t.Fatal(err)
	}
	q2 := embedPrompt(t, m, []int{ids[0]}, 0)
	lonely := m.NewEmbedSlot()
	onlyFirst := m.NewKvPage()
	if err := CopyTokens(pages[0], onlyFirst, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward([]*KvPage{onlyFirst}, q2, nil, []*EmbedSlot{lonely}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(withCtx.Vec, lonely.Vec); d != 0 {
		t.Fatalf("future-position context leaked into attention (diff %g)", d)
	}
}

func TestCopyTokensPreservesAttention(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("copy this page now ")
	src := []*KvPage{m.NewKvPage()}
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), src, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	dst := m.NewKvPage()
	if err := CopyTokens(src[0], dst, 0, 0, len(ids)); err != nil {
		t.Fatal(err)
	}
	q1 := embedPrompt(t, m, m.Tokenizer().Encode("."), len(ids))
	q2 := embedPrompt(t, m, m.Tokenizer().Encode("."), len(ids))
	a, b := m.NewEmbedSlot(), m.NewEmbedSlot()
	m.Forward(src, q1, nil, []*EmbedSlot{a}, nil, "")
	m.Forward([]*KvPage{dst}, q2, nil, []*EmbedSlot{b}, nil, "")
	if d := maxAbsDiff(a.Vec, b.Vec); d != 0 {
		t.Fatalf("copied page attends differently (diff %g)", d)
	}
}

func TestCopyTokensBounds(t *testing.T) {
	m := testModel(t)
	a, b := m.NewKvPage(), m.NewKvPage()
	if err := CopyTokens(a, b, 10, 0, 10); err == nil {
		t.Fatal("out-of-range copy succeeded")
	}
	if err := CopyTokens(a, b, 0, 0, m.cfg.PageSize+1); err == nil {
		t.Fatal("oversized copy succeeded")
	}
}

func TestNextDistWellFormed(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("the ")
	out := m.NewEmbedSlot()
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, []*EmbedSlot{out}, nil, ""); err != nil {
		t.Fatal(err)
	}
	tokens, probs, err := m.NextDist(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != m.cfg.TopK || len(probs) != m.cfg.TopK {
		t.Fatalf("dist size = %d, want TopK=%d", len(tokens), m.cfg.TopK)
	}
	var sum float32
	for i, p := range probs {
		sum += p
		if i > 0 && p > probs[i-1] {
			t.Fatal("probs not descending")
		}
		if p < 0 {
			t.Fatal("negative probability")
		}
	}
	if math.Abs(float64(sum)-1) > 1e-3 {
		t.Fatalf("probs sum to %v, want 1", sum)
	}
	seen := map[int]bool{}
	for _, tk := range tokens {
		if seen[tk] {
			t.Fatal("duplicate token in dist")
		}
		seen[tk] = true
	}
}

func TestNextDistOnInvalidSlot(t *testing.T) {
	m := testModel(t)
	if _, _, err := m.NextDist(m.NewEmbedSlot()); err == nil {
		t.Fatal("NextDist on uninitialized slot succeeded")
	}
}

func TestAdapterChangesOutput(t *testing.T) {
	m := testModel(t)
	ids := m.Tokenizer().Encode("adapt ")
	plain, tuned := m.NewEmbedSlot(), m.NewEmbedSlot()
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, []*EmbedSlot{plain}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, []*EmbedSlot{tuned}, nil, "chat"); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(plain.Vec, tuned.Vec) == 0 {
		t.Fatal("adapter had no effect")
	}
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), nil, nil, nil, "nope"); err == nil {
		t.Fatal("unknown adapter accepted")
	}
}

func TestForwardErrors(t *testing.T) {
	m := testModel(t)
	if _, err := m.Forward(nil, nil, nil, nil, nil, ""); err == nil {
		t.Fatal("empty forward accepted")
	}
	// Uninitialized input.
	if _, err := m.Forward(nil, []*EmbedSlot{m.NewEmbedSlot()}, nil, nil, nil, ""); err == nil {
		t.Fatal("uninitialized input accepted")
	}
	// Insufficient output KV space.
	in := embedPrompt(t, m, m.Tokenizer().Encode("a lot of tokens that do not fit at all here "), 0)
	if len(in) <= m.cfg.PageSize {
		t.Fatalf("test prompt too short: %d tokens", len(in))
	}
	if _, err := m.Forward(nil, in, []*KvPage{m.NewKvPage()}, nil, nil, ""); err == nil {
		t.Fatal("overfull output page accepted")
	}
	// Bad mask shape.
	in2 := embedPrompt(t, m, []int{5}, 0)
	if _, err := m.Forward(nil, in2, nil, nil, [][]bool{{true, true, true}}, ""); err == nil {
		t.Fatal("bad mask shape accepted")
	}
}

func TestEmbedImage(t *testing.T) {
	m := StandardCatalog(42).Models["llama-8b"]
	blob := make([]byte, 700)
	for i := range blob {
		blob[i] = byte(i * 7 / (1 + i/251)) // patches differ in content
	}
	need := m.EmbedsNeededForImage(len(blob))
	if need != 3 {
		t.Fatalf("EmbedsNeededForImage(700) = %d, want 3", need)
	}
	slots := []*EmbedSlot{m.NewEmbedSlot(), m.NewEmbedSlot(), m.NewEmbedSlot()}
	if err := m.EmbedImage(blob, []int{0, 1, 2}, slots); err != nil {
		t.Fatal(err)
	}
	slots2 := []*EmbedSlot{m.NewEmbedSlot(), m.NewEmbedSlot(), m.NewEmbedSlot()}
	if err := m.EmbedImage(blob, []int{0, 1, 2}, slots2); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(slots[0].Vec, slots2[0].Vec) != 0 {
		t.Fatal("image embedding not deterministic")
	}
	if maxAbsDiff(slots[0].Vec, slots[1].Vec) == 0 {
		t.Fatal("distinct patches embedded identically")
	}
}

func TestPageReset(t *testing.T) {
	m := testModel(t)
	p := m.NewKvPage()
	ids := m.Tokenizer().Encode("abc")
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), []*KvPage{p}, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	if p.NumUsed() == 0 {
		t.Fatal("page empty after forward")
	}
	p.Reset()
	if p.NumUsed() != 0 {
		t.Fatal("page not empty after Reset")
	}
}

func BenchmarkForwardDecodeStep(b *testing.B) {
	m := StandardCatalog(42).Models["llama-1b"]
	ids := m.Tokenizer().Encode("a reasonably long prompt for benchmarking the decode path of the model ")
	pages := []*KvPage{m.NewKvPage(), m.NewKvPage(), m.NewKvPage(), m.NewKvPage()}
	in := make([]*EmbedSlot, len(ids))
	pos := make([]int, len(ids))
	for i := range ids {
		in[i] = m.NewEmbedSlot()
		pos[i] = i
	}
	m.EmbedTokens(ids, pos, in)
	if _, err := m.Forward(nil, in, pages, nil, nil, ""); err != nil {
		b.Fatal(err)
	}
	q := m.NewEmbedSlot()
	m.EmbedTokens([]int{ids[0]}, []int{len(ids)}, []*EmbedSlot{q})
	out := m.NewEmbedSlot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(pages, []*EmbedSlot{q}, nil, []*EmbedSlot{out}, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTopKMatchesFullSort checks the heap selection against the full sort
// it replaces, on inputs dense with tied probabilities: eighths, mostly
// zeros, and all equal.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(300)
		probs := make([]float32, n)
		same := float32(rng.IntN(2)) / 3
		for i := range probs {
			switch trial % 3 {
			case 0:
				probs[i] = float32(rng.IntN(8)) / 8
			case 1:
				if rng.IntN(4) == 0 {
					probs[i] = float32(rng.IntN(8)) / 8
				}
			case 2:
				probs[i] = same
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			if probs[want[a]] != probs[want[b]] {
				return probs[want[a]] > probs[want[b]]
			}
			return want[a] < want[b]
		})
		k := 1 + rng.IntN(n)
		if got := topK(probs, k); !slices.Equal(got, want[:k]) {
			t.Fatalf("trial %d: topK(n=%d, k=%d) = %v, want %v", trial, n, k, got, want[:k])
		}
	}
}

func BenchmarkNextDist(b *testing.B) {
	m := StandardCatalog(42).Models["llama-1b"]
	ids := m.Tokenizer().Encode("the next token distribution ")
	out := m.NewEmbedSlot()
	if _, err := m.Forward(nil, embedPrompt(b, m, ids, 0), nil, []*EmbedSlot{out}, nil, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := m.NextDist(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextDistVaried rotates NextDist over 64 distinct hidden states
// (the final outputs of 64 different one-token prompts). BenchmarkNextDist
// repeats one input, so the branch predictor learns its top-K selection;
// this one measures the selection on distributions that keep changing.
func BenchmarkNextDistVaried(b *testing.B) {
	m := StandardCatalog(42).Models["llama-1b"]
	outs := make([]*EmbedSlot, 64)
	for i := range outs {
		outs[i] = m.NewEmbedSlot()
		in := embedPrompt(b, m, []int{4 + i*37%(m.VocabSize()-4)}, i)
		if _, err := m.Forward(nil, in, nil, outs[i:i+1], nil, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, err := m.NextDist(outs[i%len(outs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// referenceForward is Model.Forward as it stood before the forward pass was
// optimized, kept as the bit-exact oracle: naive matrix-vector products,
// RoPE recomputed per element, head, layer and projection, and attention
// columns tested per head. Only its LoRA scratch differs: it is sized by
// the adapter's rank.
func referenceForward(m *Model, ctx []*KvPage, inputs []*EmbedSlot, outKv []*KvPage, outEmb []*EmbedSlot, mask [][]bool, adapterName string) (*ForwardResult, error) {
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
		h[i] = append([]float32(nil), inputs[i].Vec...)
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
	invSqrt := 1 / float32(math.Sqrt(float64(hd)))

	for l := 0; l < L; l++ {
		lw := &m.layers[l]
		// Compute k,v for every input token first (post-RoPE keys).
		for i := 0; i < n; i++ {
			tensor.RMSNorm(h[i], lw.norm1, xn, 1e-5)
			k := make([]float32, d)
			v := make([]float32, d)
			referenceMatVec(lw.wk, d, d, xn, k)
			referenceMatVec(lw.wv, d, d, xn, v)
			if adapter != nil {
				referenceLoRA(adapter.av[l], adapter.bv[l], adapter.Rank, adapter.Scale, xn, v)
			}
			referenceRope(k, hd, inputs[i].Pos, m.cfg.RopeBase)
			newK[i][l], newV[i][l] = k, v
		}
		for i := 0; i < n; i++ {
			tensor.RMSNorm(h[i], lw.norm1, xn, 1e-5)
			referenceMatVec(lw.wq, d, d, xn, q)
			if adapter != nil {
				referenceLoRA(adapter.aq[l], adapter.bq[l], adapter.Rank, adapter.Scale, xn, q)
			}
			referenceRope(q, hd, inputs[i].Pos, m.cfg.RopeBase)
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
			referenceMatVec(lw.wo, d, d, attnOut, proj)
			tensor.AddInPlace(h[i], proj)
			// MLP (SwiGLU).
			tensor.RMSNorm(h[i], lw.norm2, xn, 1e-5)
			referenceMatVec(lw.w1, m.cfg.FFDim, d, xn, ff1)
			referenceMatVec(lw.w3, m.cfg.FFDim, d, xn, ff3)
			tensor.SiLU(ff1)
			for j := range ff1 {
				ff1[j] *= ff3[j]
			}
			referenceMatVec(lw.w2, d, m.cfg.FFDim, ff1, proj)
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
		ref.page.SetSlot(ref.slot, true, false)
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

func referenceLoRA(a, b []float32, rank int, scale float32, x, dst []float32) {
	low := make([]float32, rank)
	referenceMatVec(a, rank, len(x), x, low)
	d := len(dst)
	for r := 0; r < d; r++ {
		var s float32
		for c := 0; c < rank; c++ {
			s += b[r*rank+c] * low[c]
		}
		dst[r] += scale * s
	}
}

func referenceMatVec(w []float32, rows, cols int, x, out []float32) {
	for r := 0; r < rows; r++ {
		var s float32
		for c, v := range w[r*cols : (r+1)*cols] {
			s += v * x[c]
		}
		out[r] = s
	}
}

func referenceRope(v []float32, headDim, pos int, base float64) {
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

// referenceNextDist is NextDist over the naive logits with a full sort in
// place of the top-K heap.
func referenceNextDist(m *Model, slot *EmbedSlot) ([]int, []float32) {
	logits := make([]float32, m.VocabSize())
	referenceMatVec(m.embed, len(logits), m.cfg.Dim, slot.Vec, logits)
	tensor.Softmax(logits)
	ids := make([]int, len(logits))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return logits[ids[a]] > logits[ids[b]] })
	ids = ids[:min(m.cfg.TopK, len(ids))]
	var sum float32
	for _, i := range ids {
		sum += logits[i]
	}
	probs := make([]float32, len(ids))
	for j, i := range ids {
		probs[j] = logits[i] / sum
	}
	return ids, probs
}

func clonePages(pages []*KvPage) []*KvPage {
	out := make([]*KvPage, len(pages))
	for i, p := range pages {
		c := &KvPage{
			Pos:    slices.Clone(p.Pos),
			Used:   slices.Clone(p.Used),
			Masked: slices.Clone(p.Masked),

			attended: p.attended,
		}
		for s := range p.K {
			c.K = append(c.K, slices.Clone(p.K[s]))
			c.V = append(c.V, slices.Clone(p.V[s]))
		}
		out[i] = c
	}
	return out
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

// diffPages names the first difference between two page lists, or "".
func diffPages(a, b []*KvPage) string {
	for i := range a {
		pa, pb := a[i], b[i]
		for s := range pa.K {
			switch {
			case !sameBits(pa.K[s], pb.K[s]):
				return fmt.Sprintf("page %d slot %d: K differs", i, s)
			case !sameBits(pa.V[s], pb.V[s]):
				return fmt.Sprintf("page %d slot %d: V differs", i, s)
			case pa.Pos[s] != pb.Pos[s] || pa.Used[s] != pb.Used[s] || pa.Masked[s] != pb.Masked[s]:
				return fmt.Sprintf("page %d slot %d: Pos/Used/Masked %d/%v/%v vs %d/%v/%v", i, s,
					pa.Pos[s], pa.Used[s], pa.Masked[s], pb.Pos[s], pb.Used[s], pb.Masked[s])
			}
		}
		if pa.Attended() != pb.Attended() {
			return fmt.Sprintf("page %d: attended count %d vs %d", i, pa.Attended(), pb.Attended())
		}
	}
	return ""
}

// TestForwardMatchesReference drives Forward and referenceForward through
// the same seeded call sequences, each on its own copy of the KV pages, and
// requires bit-identical hidden states, KV pages and next-token
// distributions. Sequences cover prefill, prefill split across calls and
// decode, explicit masks (including rows that see nothing), masked context
// slots, both adapters, discarded KV and every subset size of outputs.
func TestForwardMatchesReference(t *testing.T) {
	cat := StandardCatalog(11)
	rng := rand.New(rand.NewPCG(13, 17))
	adapters := []string{"", "chat", "code"}
	for _, name := range cat.Names() {
		m := cat.Models[name]
		for trial := 0; trial < 10; trial++ {
			fast := []*KvPage{m.NewKvPage(), m.NewKvPage(), m.NewKvPage(), m.NewKvPage()}
			ref := clonePages(fast)
			pos := 0
			for step := 0; step < 4; step++ {
				n := 1 + rng.IntN(3)
				if step == 0 {
					n = 1 + rng.IntN(30)
				}
				ids := make([]int, n)
				positions := make([]int, n)
				for i := range ids {
					ids[i] = rng.IntN(m.VocabSize())
					positions[i] = pos
					pos += 1 + rng.IntN(2) // occasional gaps
				}
				if rng.IntN(4) == 0 && pos > 0 { // a token placed before its predecessors
					positions[n-1] = rng.IntN(pos)
				}
				for _, p := range [][]*KvPage{fast, ref} { // odd trials mask the first cached entry
					p[0].SetSlot(0, p[0].Used[0], p[0].Used[0] && trial%2 == 1)
				}
				nc := len(gatherContext(fast))
				var mask [][]bool
				if rng.IntN(3) == 0 {
					mask = make([][]bool, n)
					for i := range mask {
						mask[i] = make([]bool, nc+n)
						for c := range mask[i] {
							mask[i][c] = rng.IntN(3) != 0
						}
					}
					if rng.IntN(2) == 0 {
						clear(mask[0])
					}
				}
				outKvFast, outKvRef := fast, ref
				if rng.IntN(5) == 0 {
					outKvFast, outKvRef = nil, nil
				}
				adapter := adapters[rng.IntN(len(adapters))]
				nOut := rng.IntN(n + 1)
				inFast, inRef := embedPrompt(t, m, ids, 0), embedPrompt(t, m, ids, 0)
				for i := range inFast {
					inFast[i].Pos, inRef[i].Pos = positions[i], positions[i]
				}
				outFast, outRef := make([]*EmbedSlot, nOut), make([]*EmbedSlot, nOut)
				for i := range outFast {
					outFast[i], outRef[i] = m.NewEmbedSlot(), m.NewEmbedSlot()
				}
				where := fmt.Sprintf("%s trial %d step %d (n=%d nc=%d mask=%v adapter=%q out=%d)",
					name, trial, step, n, nc, mask != nil, adapter, nOut)
				resFast, err := m.Forward(fast, inFast, outKvFast, outFast, mask, adapter)
				if err != nil {
					t.Fatalf("%s: Forward: %v", where, err)
				}
				resRef, err := referenceForward(m, ref, inRef, outKvRef, outRef, mask, adapter)
				if err != nil {
					t.Fatalf("%s: referenceForward: %v", where, err)
				}
				if len(resFast.Outputs) != len(resRef.Outputs) {
					t.Fatalf("%s: %d outputs, want %d", where, len(resFast.Outputs), len(resRef.Outputs))
				}
				for i := range outFast {
					if !sameBits(resFast.Outputs[i], resRef.Outputs[i]) || !sameBits(outFast[i].Vec, outRef[i].Vec) ||
						outFast[i].Pos != outRef[i].Pos || outFast[i].Valid != outRef[i].Valid {
						t.Fatalf("%s: output %d differs", where, i)
					}
					gotIds, gotProbs, err := m.NextDist(outFast[i])
					if err != nil {
						t.Fatal(err)
					}
					wantIds, wantProbs := referenceNextDist(m, outRef[i])
					if !slices.Equal(gotIds, wantIds) || !sameBits(gotProbs, wantProbs) {
						t.Fatalf("%s: NextDist of output %d differs", where, i)
					}
				}
				if d := diffPages(fast, ref); d != "" {
					t.Fatalf("%s: %s", where, d)
				}
			}
		}
	}
}

// An adapter's rank sizes Forward's LoRA scratch: ranks above the catalog's
// 4 (and above 64) must run, and match the reference.
func TestHighRankAdapterForward(t *testing.T) {
	m := StandardCatalog(42).Models["llama-1b"]
	m.RegisterAdapter("wide", 96, 0.5, 99)
	ids := m.Tokenizer().Encode("a wide adapter ")
	fast, ref := []*KvPage{m.NewKvPage()}, []*KvPage{m.NewKvPage()}
	outFast, outRef := m.NewEmbedSlot(), m.NewEmbedSlot()
	if _, err := m.Forward(nil, embedPrompt(t, m, ids, 0), fast, []*EmbedSlot{outFast}, nil, "wide"); err != nil {
		t.Fatal(err)
	}
	if _, err := referenceForward(m, nil, embedPrompt(t, m, ids, 0), ref, []*EmbedSlot{outRef}, nil, "wide"); err != nil {
		t.Fatal(err)
	}
	if !sameBits(outFast.Vec, outRef.Vec) {
		t.Fatal("rank-96 adapter output differs from the reference")
	}
	if d := diffPages(fast, ref); d != "" {
		t.Fatal(d)
	}
}

func BenchmarkForwardPrefill(b *testing.B) {
	m := StandardCatalog(42).Models["llama-1b"]
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = (i * 37) % m.VocabSize()
	}
	in := embedPrompt(b, m, ids, 0)
	pages := []*KvPage{m.NewKvPage(), m.NewKvPage()}
	out := m.NewEmbedSlot()
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range pages {
			p.Reset()
		}
		if _, err := m.Forward(nil, in, pages, []*EmbedSlot{out}, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidateRejectsOddHeadDim(t *testing.T) {
	cfg := testModel(t).Config()
	cfg.Dim, cfg.Heads, cfg.HeadDim = 15, 1, 15
	if err := cfg.Validate(); err == nil {
		t.Fatal("odd HeadDim accepted")
	}
}

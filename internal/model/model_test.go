package model

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
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
	pagesA[0].Masked[1] = true

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
	pagesA[0].Masked[1] = false
	q3 := embedPrompt(t, m, m.Tokenizer().Encode("?"), n)
	if _, err := m.Forward(pagesA, q3, nil, []*EmbedSlot{unmaskedOut}, nil, ""); err != nil {
		t.Fatal(err)
	}
	pagesA[0].Masked[1] = true
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(pages, []*EmbedSlot{q}, nil, []*EmbedSlot{out}, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTopKMatchesFullSort checks the heap selection against the full sort
// it replaces, on inputs dense with tied probabilities.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		probs := make([]float32, n)
		for i := range probs {
			probs[i] = float32(rng.IntN(8)) / 8
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

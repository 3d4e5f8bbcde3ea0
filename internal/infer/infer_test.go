package infer

import (
	"testing"
	"time"

	"pie/internal/model"
	"pie/internal/sim"
)

func testRuntime(mode ExecMode) *ModelRuntime {
	cat := model.StandardCatalog(42)
	return NewModelRuntime(cat.Models["llama-1b"], mode)
}

func TestBatchCostSharesWeightStream(t *testing.T) {
	rt := testRuntime(ExecTiming)
	mkFwd := func() *Call {
		in := rt.Embed(0)
		in.Valid = true
		return &Call{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}
	}
	one := (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mkFwd()}}).Cost()
	var calls []*Call
	for i := 0; i < 16; i++ {
		calls = append(calls, mkFwd())
	}
	sixteen := (&Batch{Op: OpForward, Model: rt, Calls: calls}).Cost()
	if sixteen >= 16*one/4 {
		t.Fatalf("no batching economics: 16 calls cost %v vs %v for one", sixteen, one)
	}
	if sixteen <= one {
		t.Fatal("marginal per-call cost missing")
	}
}

func TestBatchCostPrefillVsDecode(t *testing.T) {
	rt := testRuntime(ExecTiming)
	mk := func(n int) *Call {
		var ins []*model.EmbedSlot
		for i := 0; i < n; i++ {
			s := rt.Embed(int32(100 + i))
			s.Valid = true
			ins = append(ins, s)
		}
		return &Call{Op: OpForward, Model: rt, Inputs: ins}
	}
	decode64 := time.Duration(0)
	for i := 0; i < 64; i++ {
		decode64 += (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mk(1)}}).Cost()
	}
	prefill64 := (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mk(64)}}).Cost()
	if prefill64 >= decode64/4 {
		t.Fatalf("bulk prefill (%v) should be far cheaper than 64 decode kernels (%v)", prefill64, decode64)
	}
}

func TestBatchExtraAddsToCost(t *testing.T) {
	rt := testRuntime(ExecTiming)
	in := rt.Embed(0)
	in.Valid = true
	b := &Batch{Op: OpForward, Model: rt, Calls: []*Call{{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}}}
	base := b.Cost()
	b.Extra = time.Millisecond
	if b.Cost() != base+time.Millisecond {
		t.Fatalf("Extra not added: %v vs %v", b.Cost(), base)
	}
}

func TestTimingForwardBookkeeping(t *testing.T) {
	rt := testRuntime(ExecTiming)
	page := rt.Page(0)
	var ins []*model.EmbedSlot
	for i := 0; i < 5; i++ {
		s := rt.Embed(int32(i))
		s.Valid = true
		s.Pos = 10 + i
		ins = append(ins, s)
	}
	out := rt.Embed(99)
	c := &Call{Op: OpForward, Model: rt, Inputs: ins,
		OutPages: []*model.KvPage{page}, Outputs: []*model.EmbedSlot{out}}
	if err := rt.executeCall(c); err != nil {
		t.Fatal(err)
	}
	if page.NumUsed() != 5 {
		t.Fatalf("page has %d used slots, want 5", page.NumUsed())
	}
	if page.Pos[0] != 10 || page.Pos[4] != 14 {
		t.Fatalf("positions not recorded: %v", page.Pos[:5])
	}
	if !out.Valid || out.Pos != 14 {
		t.Fatalf("output slot not updated: valid=%v pos=%d", out.Valid, out.Pos)
	}
	// CtxTokens must count unmasked used slots.
	probe := &Call{Op: OpForward, Model: rt, CtxPages: []*model.KvPage{page}}
	if probe.CtxTokens() != 5 {
		t.Fatalf("CtxTokens = %d, want 5", probe.CtxTokens())
	}
	page.SetSlot(1, true, true)
	if probe.CtxTokens() != 4 {
		t.Fatalf("CtxTokens after mask = %d, want 4", probe.CtxTokens())
	}
}

func TestTimingForwardRejectsOverfullPages(t *testing.T) {
	rt := testRuntime(ExecTiming)
	page := rt.Page(1)
	var ins []*model.EmbedSlot
	for i := 0; i < rt.Model.Config().PageSize+1; i++ {
		s := rt.Embed(int32(200 + i))
		s.Valid = true
		ins = append(ins, s)
	}
	c := &Call{Op: OpForward, Model: rt, Inputs: ins, OutPages: []*model.KvPage{page}}
	if err := rt.executeCall(c); err == nil {
		t.Fatal("overfull output page accepted")
	}
}

func TestTimingDistDeterministicAndWellFormed(t *testing.T) {
	rt := testRuntime(ExecTiming)
	slot := rt.Embed(7)
	slot.Valid = true
	clock := sim.NewClock()
	get := func() DistResult {
		c := &Call{Op: OpNextDist, Model: rt, Inst: 3, Seq: 9, DistOf: slot,
			DistFut: sim.NewFuture[DistResult](clock)}
		if err := rt.executeCall(c); err != nil {
			t.Fatal(err)
		}
		r, _ := c.DistFut.Get()
		return r
	}
	var a, b DistResult
	clock.Go("p", func() { a = get(); b = get() })
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.Tokens) != rt.Model.Config().TopK {
		t.Fatalf("dist size %d", len(a.Tokens))
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("timing-mode dist not deterministic")
		}
		if a.Tokens[i] < 4 || a.Tokens[i] >= rt.Model.VocabSize() {
			t.Fatalf("token %d out of range", a.Tokens[i])
		}
	}
}

func TestBackendExecutesBatchInOrder(t *testing.T) {
	// Two chained forwards in one batch: the second reads the first's
	// output page (vertical batching of the paper's split-prefill).
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	page := rt.Page(3)
	mk := func(pos int, ctx []*model.KvPage) *Call {
		in := rt.Embed(int32(300 + pos))
		in.Valid = true
		in.Pos = pos
		return &Call{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in},
			CtxPages: ctx, OutPages: []*model.KvPage{page},
			Done: sim.NewSignal(clock)}
	}
	c1 := mk(0, nil)
	c2 := mk(1, []*model.KvPage{page})
	clock.Go("driver", func() {
		be.Submit(&Batch{Op: OpForward, Model: rt, Calls: []*Call{c1, c2}})
		_ = sim.Await(c2.Done)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if c1.Err != nil || c2.Err != nil {
		t.Fatalf("errors: %v / %v", c1.Err, c2.Err)
	}
	if page.NumUsed() != 2 {
		t.Fatalf("page used %d, want 2 (chained writes)", page.NumUsed())
	}
	if be.BatchesRun != 1 || be.CallsRun != 2 {
		t.Fatalf("backend stats: %d batches, %d calls", be.BatchesRun, be.CallsRun)
	}
}

func TestOpControlSide(t *testing.T) {
	if OpForward.ControlSide() || OpNextDist.ControlSide() {
		t.Fatal("GPU ops marked control-side")
	}
	if !OpDealloc.ControlSide() || !OpSync.ControlSide() {
		t.Fatal("control ops not marked")
	}
	if OpForward.String() != "forward" || OpNextDist.String() != "get_next_dist" {
		t.Fatal("op names wrong")
	}
}

// TestAttendedCountMatchesRecount drives random sequences of forwards,
// masks, token copies, resets and whole-page migration copies through
// both execution modes and checks, after every step, that each page's
// attended count (what CtxTokens sums) equals a full recount of its used,
// unmasked slots.
func TestAttendedCountMatchesRecount(t *testing.T) {
	recount := func(p *model.KvPage) int {
		n := 0
		for s, u := range p.Used {
			if u && !p.Masked[s] {
				n++
			}
		}
		return n
	}
	for _, mode := range []ExecMode{ExecTiming, ExecFull} {
		for seed := uint64(1); seed <= 8; seed++ {
			rt := testRuntime(mode)
			rng := sim.NewRNG(seed)
			ps := rt.Model.Config().PageSize
			pages := make([]*model.KvPage, 5)
			for i := range pages {
				pages[i] = rt.Page(int32(i))
			}
			pick := func() *model.KvPage { return pages[rng.Intn(len(pages))] }
			pos, forwards := 0, 0
			for step := 0; step < 150; step++ {
				var err error
				op := rng.Intn(6)
				switch op {
				case 0, 1: // forward: read some pages, append into others
					n := 1 + rng.Intn(4)
					ins := make([]*model.EmbedSlot, n)
					ids, positions := make([]int, n), make([]int, n)
					for i := range ins {
						ins[i] = rt.Embed(int32(i))
						ids[i], positions[i] = 4+rng.Intn(rt.Model.VocabSize()-4), pos
						pos++
					}
					if mode == ExecFull {
						err = rt.Model.EmbedTokens(ids, positions, ins)
					} else {
						for i, in := range ins {
							in.Valid, in.Pos = true, positions[i]
						}
					}
					if err == nil {
						c := &Call{Op: OpForward, Model: rt, Inputs: ins,
							CtxPages: []*model.KvPage{pick(), pick()}, OutPages: []*model.KvPage{pick(), pick()}}
						err = rt.executeCall(c) // overfull output pages fail before writing
					}
					if err == nil {
						forwards++
					}
				case 2: // mask_kvpage
					bits := make([]bool, rng.Intn(ps+1))
					for i := range bits {
						bits[i] = rng.Intn(2) == 0
					}
					err = rt.executeCall(&Call{Op: OpMaskKv, Model: rt, MaskPage: pick(), MaskBits: bits})
				case 3: // copy_kvpage
					n := rng.Intn(ps + 1)
					err = rt.executeCall(&Call{Op: OpCopyKv, Model: rt, SrcPage: pick(), DstPage: pick(),
						SrcOff: rng.Intn(ps - n + 1), DstOff: rng.Intn(ps - n + 1), NumTokens: n})
				case 4: // a fresh owner
					pick().Reset()
				case 5: // migration copy
					pick().CopyFrom(pick())
				}
				if err != nil && op != 0 && op != 1 {
					t.Fatalf("mode %d seed %d step %d: op %d: %v", mode, seed, step, op, err)
				}
				for i, p := range pages {
					if got, want := p.Attended(), recount(p); got != want {
						t.Fatalf("mode %d seed %d step %d: page %d attended %d, recount %d", mode, seed, step, i, got, want)
					}
				}
			}
			if forwards < 20 {
				t.Fatalf("mode %d seed %d: only %d forwards wrote KV", mode, seed, forwards)
			}
		}
	}
}

// Tests and benchmarks for the per-call control path: instance release
// order, the dense page table against a map-based oracle, and the cost of
// one ModeTiming decode step through the controller.
package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

const testModel = "llama-1b"

// newTestController builds a one-model ModeTiming controller on a fresh
// clock.
func newTestController(sched SchedConfig) (*sim.Clock, *Controller) {
	clock := sim.NewClock()
	rt := infer.NewModelRuntime(model.StandardCatalog(7).Models[testModel], infer.ExecTiming)
	ctl := NewController(clock, infer.NewBackend(clock, "gpu0"), []*infer.ModelRuntime{rt},
		sched, OffloadConfig{}, ArtifactConfig{})
	return clock, ctl
}

// releaseTranscript kills an instance holding many queues (each with
// pending calls and a queued dealloc), pages and embeds, and reports the
// order in which its pending calls failed and the page and embed free
// lists it left behind.
func releaseTranscript(t *testing.T) (failed []string, pageFree, embFree []int32) {
	sched := DefaultSchedConfig()
	sched.Policy, sched.T = PolicyTOnly, time.Hour // nothing dispatches before the kill
	clock, ctl := newTestController(sched)
	clock.Go("victim", func() {
		inst := ctl.RegisterInstance("victim", nil, nil)
		for qi := 0; qi < 12; qi++ {
			q, err := ctl.CreateQueue(inst, testModel)
			if err != nil {
				t.Error(err)
				return
			}
			pages, err := ctl.AllocPages(inst, q, 3)
			if err != nil {
				t.Error(err)
				return
			}
			embs, err := ctl.AllocEmbeds(inst, q, 4)
			if err != nil {
				t.Error(err)
				return
			}
			for ci, e := range embs {
				done, err := ctl.EmbedText(inst, q, []int{5 + ci}, []int{ci}, []api.Embed{e})
				if err != nil {
					t.Error(err)
					return
				}
				label := fmt.Sprintf("q%d/embed%d", qi, ci)
				done.Subscribe(func() { failed = append(failed, label) })
			}
			done, err := ctl.Forward(inst, q, api.ForwardArgs{InputKv: pages[:2], OutputKv: pages[2:], InputEmb: embs})
			if err != nil {
				t.Error(err)
				return
			}
			label := fmt.Sprintf("q%d/forward", qi)
			done.Subscribe(func() { failed = append(failed, label) })
			// A queued dealloc: its physical free runs at release.
			if err := ctl.DeallocPages(inst, q, pages[:1]); err != nil {
				t.Error(err)
				return
			}
		}
		if !ctl.AbortInstance(inst, api.ErrTerminated) {
			t.Error("abort of a live instance reported no abort")
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	return failed, slices.Clone(ctl.pagePool[testModel].free), slices.Clone(ctl.embPool[testModel].free)
}

// TestReleaseInstanceIsDeterministic: killing an instance fails its
// pending calls and returns its physical ids to the free lists in one
// order on every run (queues, embeds and pages each walked by ascending
// handle), never in Go map order.
func TestReleaseInstanceIsDeterministic(t *testing.T) {
	failed, pageFree, embFree := releaseTranscript(t)
	if len(failed) != 12*5 || len(pageFree) != 12*3 || len(embFree) != 12*4 {
		t.Fatalf("transcript sizes: %d failed calls, %d free pages, %d free embeds", len(failed), len(pageFree), len(embFree))
	}
	if failed[0] != "q0/embed0" || failed[len(failed)-1] != "q11/forward" {
		t.Fatalf("calls did not fail in queue order: first %s, last %s", failed[0], failed[len(failed)-1])
	}
	for run := 1; run < 12; run++ {
		f, pf, ef := releaseTranscript(t)
		if !slices.Equal(f, failed) {
			t.Fatalf("run %d: failure order differs:\n%v\n%v", run, f, failed)
		}
		if !slices.Equal(pf, pageFree) {
			t.Fatalf("run %d: page free list differs:\n%v\n%v", run, pf, pageFree)
		}
		if !slices.Equal(ef, embFree) {
			t.Fatalf("run %d: embed free list differs:\n%v\n%v", run, ef, embFree)
		}
	}
}

// oraclePool is the map-keyed tiered pool the dense table replaced, kept
// as the reference: same victims, tiers, refs and pins at every step.
type oraclePool struct {
	devCap, hostCap     int
	next                int32
	free                []int32
	meta                map[int32]*pageMeta
	evict               Evictor
	devInUse, hostInUse int
	useSeq, genSeq      uint64
}

func (p *oraclePool) touch(id int32) {
	if m, ok := p.meta[id]; ok {
		p.useSeq++
		m.lastUse = p.useSeq
	}
}

func (p *oraclePool) pin(id int32) (uint64, bool) {
	m, ok := p.meta[id]
	if !ok {
		return 0, false
	}
	m.pins++
	return m.gen, true
}

func (p *oraclePool) unpin(id int32, gen uint64) {
	if m, ok := p.meta[id]; ok && m.gen == gen && m.pins > 0 {
		m.pins--
	}
}

// pinTouch is the old preparePages prologue: dedup through a set, then
// pin and touch each distinct id.
func (p *oraclePool) pinTouch(ids []int32) []infer.PagePin {
	var pins []infer.PagePin
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if gen, ok := p.pin(id); ok {
			pins = append(pins, infer.PagePin{Page: id, Gen: gen})
		}
		p.touch(id)
	}
	return pins
}

func (p *oraclePool) victims(k int) []int32 {
	var cands []int32
	for id := int32(0); id < p.next; id++ {
		if m, ok := p.meta[id]; ok && m.tier == tierDevice && m.pins == 0 {
			cands = append(cands, id)
		}
	}
	for i := 0; i < k && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			a, b := p.meta[cands[j]], p.meta[cands[best]]
			if p.evict.Prefer(a, b) || (!p.evict.Prefer(b, a) && cands[j] < cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

func (p *oraclePool) offload(ids []int32) {
	for _, id := range ids {
		p.meta[id].tier = tierHost
		p.devInUse--
		p.hostInUse++
	}
}

func (p *oraclePool) alloc(n, pri int) ([]int32, int, bool) {
	if p.devCap+p.hostCap-p.devInUse-p.hostInUse < n {
		return nil, 0, false
	}
	swapped := 0
	if need := n - (p.devCap - p.devInUse); need > 0 {
		if p.hostCap-p.hostInUse < need {
			return nil, 0, false
		}
		vs := p.victims(need)
		if len(vs) < need {
			return nil, 0, false
		}
		p.offload(vs)
		swapped = need
	}
	var ids []int32
	for len(ids) < n && len(p.free) > 0 {
		ids = append(ids, p.free[len(p.free)-1])
		p.free = p.free[:len(p.free)-1]
	}
	for len(ids) < n {
		ids = append(ids, p.next)
		p.next++
	}
	for _, id := range ids {
		p.useSeq++
		p.genSeq++
		p.meta[id] = &pageMeta{refs: 1, tier: tierDevice, gen: p.genSeq, lastUse: p.useSeq, pri: pri}
	}
	p.devInUse += n
	return ids, swapped, true
}

func (p *oraclePool) faultIn(ids []int32) (in, out int, ok bool) {
	need := 0
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if m, okm := p.meta[id]; okm && m.tier == tierHost {
			need++
		}
	}
	if need == 0 {
		return 0, 0, true
	}
	if evict := need - (p.devCap - p.devInUse); evict > 0 {
		vs := p.victims(evict)
		if len(vs) < evict {
			return 0, 0, false
		}
		p.offload(vs)
		out = evict
	}
	for _, id := range ids {
		if m, okm := p.meta[id]; okm && m.tier == tierHost {
			m.tier = tierDevice
			p.hostInUse--
			p.devInUse++
			p.useSeq++
			m.lastUse = p.useSeq
			in++
		}
	}
	return in, out, true
}

func (p *oraclePool) retain(id int32) {
	if m, ok := p.meta[id]; ok {
		m.refs++
	}
}

func (p *oraclePool) release(id int32) bool {
	m, ok := p.meta[id]
	if !ok {
		return false
	}
	if m.refs > 1 {
		m.refs--
		return false
	}
	if m.tier == tierDevice {
		p.devInUse--
	} else {
		p.hostInUse--
	}
	delete(p.meta, id)
	p.free = append(p.free, id)
	return true
}

// TestTieredPoolMatchesMapOracle drives the dense pool and the map-keyed
// oracle through identical seeded operation streams — alloc, release,
// retain, pin/unpin, touch, deduplicating pin-and-touch and fault-in with
// repeated ids — under both evictors, and requires identical results,
// victim order, tiers, refs and pins after every step.
func TestTieredPoolMatchesMapOracle(t *testing.T) {
	for _, ev := range []Evictor{lruEvictor{}, priorityEvictor{}} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := newTieredPool(6, 10, ev)
			o := &oraclePool{devCap: 6, hostCap: 10, meta: map[int32]*pageMeta{}, evict: ev}
			var held [][]infer.PagePin // pin sets outstanding on both pools
			live := func() []int32 { return slices.Sorted(maps.Keys(o.meta)) }
			somePages := func() []int32 {
				ids := live()
				var out []int32
				for i := rng.Intn(5); i >= 0 && len(ids) > 0; i-- {
					out = append(out, ids[rng.Intn(len(ids))]) // repeats allowed
				}
				if rng.Intn(4) == 0 {
					out = append(out, int32(40+rng.Intn(4))) // never materialized
				}
				return out
			}
			for step := 0; step < 500; step++ {
				where := fmt.Sprintf("%s seed %d step %d", ev.Name(), seed, step)
				switch rng.Intn(8) {
				case 0, 1:
					n, pri := 1+rng.Intn(3), rng.Intn(3)
					gi, gs, gok := p.alloc(n, pri)
					wi, ws, wok := o.alloc(n, pri)
					if !slices.Equal(gi, wi) || gs != ws || gok != wok {
						t.Fatalf("%s: alloc = %v %d %v, oracle %v %d %v", where, gi, gs, gok, wi, ws, wok)
					}
				case 2:
					if ids := live(); len(ids) > 0 {
						id := ids[rng.Intn(len(ids))]
						if g, w := p.release(id), o.release(id); g != w {
							t.Fatalf("%s: release(%d) = %v, oracle %v", where, id, g, w)
						}
					}
					if g, w := p.release(99), o.release(99); g || w {
						t.Fatalf("%s: released an unknown id", where)
					}
				case 3:
					if ids := live(); len(ids) > 0 {
						id := ids[rng.Intn(len(ids))]
						p.retain(id)
						o.retain(id)
					}
				case 4:
					ids := somePages()
					for _, id := range ids {
						p.touch(id)
						o.touch(id)
					}
				case 5: // a call's prologue: pin-and-touch, then fault in
					ids := somePages()
					gp := p.pinTouch(ids, nil)
					wp := o.pinTouch(ids)
					if !slices.Equal(gp, wp) {
						t.Fatalf("%s: pins %v, oracle %v", where, gp, wp)
					}
					gi, gout, gok := p.faultIn(ids)
					wi, wout, wok := o.faultIn(ids)
					if gi != wi || gout != wout || gok != wok {
						t.Fatalf("%s: faultIn = %d %d %v, oracle %d %d %v", where, gi, gout, gok, wi, wout, wok)
					}
					held = append(held, gp)
				case 6: // a call completes (or is torn down): unpin
					if len(held) > 0 {
						i := rng.Intn(len(held))
						for _, pp := range held[i] {
							p.unpin(pp.Page, pp.Gen)
							o.unpin(pp.Page, pp.Gen)
						}
						held = slices.Delete(held, i, i+1)
					}
				case 7:
					k := rng.Intn(4)
					if g, w := p.victims(k), o.victims(k); !slices.Equal(g, w) {
						t.Fatalf("%s: victims(%d) = %v, oracle %v", where, k, g, w)
					}
				}
				checkTieredInvariants(t, p)
				if !slices.Equal(p.free, o.free) || len(p.meta) != int(o.next) {
					t.Fatalf("%s: free %v / %d ids, oracle %v / %d", where, p.free, len(p.meta), o.free, o.next)
				}
				for id := range p.meta {
					g, w := p.lookup(int32(id)), o.meta[int32(id)]
					if (g == nil) != (w == nil) {
						t.Fatalf("%s: id %d live %v, oracle %v", where, id, g != nil, w != nil)
					}
					if g != nil && (g.tier != w.tier || g.refs != w.refs || g.pins != w.pins || g.gen != w.gen || g.lastUse != w.lastUse) {
						t.Fatalf("%s: id %d = %+v, oracle %+v", where, id, *g, *w)
					}
				}
			}
		}
	}
}

// BenchmarkControllerDecodeStep measures one ModeTiming decode step
// through the control layer — embed, forward over a 64-page context
// appending into a tail page, and get_next_dist — including handle
// resolution, pinning, batch pricing and completion. The tail page is
// recycled every PageSize steps, as a growing context would allocate a
// fresh one.
func BenchmarkControllerDecodeStep(b *testing.B) {
	const ctxPages = 64
	clock, ctl := newTestController(DefaultSchedConfig())
	ps := ctl.ModelRuntime(testModel).Info.PageSize
	var failure error
	clock.Go("decode", func() {
		inst := ctl.RegisterInstance("bench", nil, nil)
		fail := func(err error) bool {
			if err != nil && failure == nil {
				failure = err
			}
			return failure != nil
		}
		q, err := ctl.CreateQueue(inst, testModel)
		if fail(err) {
			return
		}
		emb, err := ctl.AllocEmbeds(inst, q, ps)
		if fail(err) {
			return
		}
		pages, err := ctl.AllocPages(inst, q, ctxPages)
		if fail(err) {
			return
		}
		pos := 0
		step := func(toks []int, ctx, out []api.KvPage, in []api.Embed) bool {
			positions := make([]int, len(toks))
			for i := range positions {
				positions[i] = pos + i
			}
			pos += len(toks)
			if _, err := ctl.EmbedText(inst, q, toks, positions, in); fail(err) {
				return false
			}
			done, err := ctl.Forward(inst, q, api.ForwardArgs{InputKv: ctx, OutputKv: out,
				InputEmb: in, OutputEmb: in[len(in)-1:]})
			if fail(err) || fail(sim.Await(done)) {
				return false
			}
			dist, err := ctl.NextDist(inst, q, in[len(in)-1])
			if fail(err) {
				return false
			}
			_, err = dist.Get()
			return !fail(err)
		}
		// Prefill the context one page per forward.
		toks := make([]int, ps)
		for i := range toks {
			toks[i] = 5 + i
		}
		for i := range pages {
			if !step(toks, pages[:i], pages[i:i+1], emb) {
				return
			}
		}
		tail, err := ctl.AllocPages(inst, q, 1)
		if fail(err) {
			return
		}
		ctx := append(slices.Clone(pages), tail[0]) // decode reads the tail page it appends to
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%ps == 0 {
				if fail(ctl.DeallocPages(inst, q, tail)) {
					return
				}
				if tail, err = ctl.AllocPages(inst, q, 1); fail(err) {
					return
				}
				ctx[ctxPages] = tail[0]
			}
			if !step(toks[:1], ctx, tail, emb[:1]) {
				return
			}
		}
		b.StopTimer()
	})
	if err := clock.Run(); err != nil {
		b.Fatal(err)
	}
	if failure != nil {
		b.Fatal(failure)
	}
}

package baseline

import (
	"testing"
	"time"

	"pie/internal/sim"
)

func prompt(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 100 + i%50
	}
	return out
}

func TestEngineCompletesRequest(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B"})
	var out []int
	var took time.Duration
	clock.Go("client", func() {
		t0 := clock.Now()
		out = e.Generate(prompt(64), 16, nil)
		took = clock.Now() - t0
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("generated %d tokens, want 16", len(out))
	}
	if took <= 0 {
		t.Fatal("no virtual time charged")
	}
	// Roughly: prefill step + 16 decode steps at 1B ≈ 16 × ~11ms.
	if took < 50*time.Millisecond || took > 2*time.Second {
		t.Fatalf("implausible single-request latency %v", took)
	}
}

func TestScriptedTokens(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: VLLM})
	script := []int{9, 8, 7, 6}
	var out []int
	clock.Go("client", func() { out = e.Generate(prompt(8), 4, script) })
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tok := range out {
		if tok != script[i] {
			t.Fatalf("output %v != script %v", out, script)
		}
	}
}

func TestContinuousBatchingThroughput(t *testing.T) {
	run := func(n int) time.Duration {
		clock := sim.NewClock()
		e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B"})
		g := sim.NewGroup(clock)
		for i := 0; i < n; i++ {
			g.Go("client", func() { e.Generate(prompt(64), 32, nil) })
		}
		clock.Go("main", g.Wait)
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		return clock.Now()
	}
	one := run(1)
	sixteen := run(16)
	if sixteen > 4*one {
		t.Fatalf("16 concurrent requests took %v vs %v for one: batching broken", sixteen, one)
	}
}

func TestPrefixCacheAvoidsReprefill(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B"})
	p := prompt(256)
	var first, second time.Duration
	clock.Go("client", func() {
		t0 := clock.Now()
		e.Generate(p, 4, nil)
		first = clock.Now() - t0
		t0 = clock.Now()
		e.Generate(p, 4, nil)
		second = clock.Now() - t0
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if e.CacheHitToks == 0 {
		t.Fatal("no cache hits on identical prompt")
	}
	if second >= first {
		t.Fatalf("cached request (%v) not faster than cold (%v)", second, first)
	}
}

func TestRadixCacheSharesPrefix(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: SGLang, ModelLabel: "1B"})
	shared := prompt(128)
	a := append(append([]int(nil), shared...), 1, 2, 3)
	b := append(append([]int(nil), shared...), 4, 5, 6)
	clock.Go("client", func() {
		e.Generate(a, 4, nil)
		e.Generate(b, 4, nil)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if e.CacheHitToks < 64 {
		t.Fatalf("radix cache hit only %d tokens", e.CacheHitToks)
	}
}

func TestForkSharesPrefill(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: SGLang, ModelLabel: "1B"})
	c := NewClient(clock, e, 8*time.Millisecond)
	var outs [][]int
	clock.Go("client", func() {
		outs = c.GenerateFork(prompt(128), 4, 8, nil)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("%d outputs", len(outs))
	}
	for _, o := range outs {
		if len(o) != 8 {
			t.Fatalf("branch generated %d tokens", len(o))
		}
	}
	if e.CacheHitToks < 3*112 {
		t.Fatalf("forks re-prefilled: only %d cached tokens hit", e.CacheHitToks)
	}
}

func TestSpeculativeDecodingFaster(t *testing.T) {
	run := func(spec bool) time.Duration {
		clock := sim.NewClock()
		e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B", SpecDecode: spec})
		clock.Go("client", func() { e.Generate(prompt(64), 64, nil) })
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		return clock.Now()
	}
	plain := run(false)
	spec := run(true)
	if spec >= plain {
		t.Fatalf("speculative decoding (%v) not faster than plain (%v)", spec, plain)
	}
}

func TestLMQLSlowerPerStep(t *testing.T) {
	run := func(kind Kind) time.Duration {
		clock := sim.NewClock()
		e := NewEngine(clock, Config{Kind: kind, ModelLabel: "1B"})
		clock.Go("client", func() {
			e.Submit(&Request{Prompt: prompt(32), MaxTokens: 32, Guided: true})
			r := e.Submit(&Request{Prompt: prompt(32), MaxTokens: 32, Guided: true})
			_ = sim.Await(r.Done)
		})
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		return clock.Now()
	}
	if vllm, lmql := run(VLLM), run(LMQL); lmql <= vllm {
		t.Fatalf("LMQL (%v) should be slower than vLLM (%v) on guided decoding", lmql, vllm)
	}
}

func TestStreamingLLMSingleStream(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: StreamingLLM, ModelLabel: "1B"})
	g := sim.NewGroup(clock)
	var ends [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		g.Go("client", func() {
			e.Generate(prompt(32), 16, nil)
			ends[i] = clock.Now()
		})
	}
	clock.Go("main", g.Wait)
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	// Strictly serialized: the second finishes roughly 2x after the first.
	if ends[1] < ends[0]*3/2 {
		t.Fatalf("requests overlapped on a single-stream engine: %v then %v", ends[0], ends[1])
	}
}

func TestSinkWindowBoundsContext(t *testing.T) {
	clock := sim.NewClock()
	cfg := Config{Kind: StreamingLLM, ModelLabel: "1B"}
	e := NewEngine(clock, cfg)
	if e.attended(10000) != e.Config().SinkWindow {
		t.Fatalf("attended(10000) = %d, want %d", e.attended(10000), e.Config().SinkWindow)
	}
	if e.attended(10) != 10 {
		t.Fatal("short context clipped")
	}
}

func TestBeamWidthCostsMore(t *testing.T) {
	run := func(width int) time.Duration {
		clock := sim.NewClock()
		e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B"})
		clock.Go("client", func() {
			r := e.Submit(&Request{Prompt: prompt(32), MaxTokens: 24, BeamWidth: width})
			_ = sim.Await(r.Done)
		})
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		return clock.Now()
	}
	if w1, w3 := run(1), run(3); w3 <= w1 {
		t.Fatalf("beam width 3 (%v) not costlier than width 1 (%v)", w3, w1)
	}
}

func TestPoolExhaustionAbortsOversizedRequest(t *testing.T) {
	clock := sim.NewClock()
	e := NewEngine(clock, Config{Kind: VLLM, ModelLabel: "8B"})
	capBlocks := e.blockPool.capacity
	huge := prompt((capBlocks + 10) * e.cfg.PageSize)
	var out []int
	clock.Go("client", func() { out = e.Generate(huge, 8, nil) })
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("oversized request produced output %v", out)
	}
	if e.blockPool.inUse() != 0 {
		t.Fatalf("blocks leaked: %d", e.blockPool.inUse())
	}
}

func TestBlockPoolRefcounting(t *testing.T) {
	p := newBlockPool(8)
	ids, ok := p.alloc(4)
	if !ok {
		t.Fatal("alloc failed")
	}
	p.retain(ids[0])
	p.release(ids[0])
	if p.available() != 4 {
		t.Fatalf("available = %d, want 4 (one ref outstanding)", p.available())
	}
	p.release(ids[0])
	if p.available() != 5 {
		t.Fatalf("available = %d, want 5", p.available())
	}
}

func TestHashCacheEviction(t *testing.T) {
	pool := newBlockPool(16)
	c := newHashCache(4)
	for i := 0; i < 3; i++ {
		pr := prompt(8)
		pr[0] = 1000 + i // distinct prompts
		blocks, _ := pool.alloc(2)
		c.insert(pr, nil, blocks, pool)
		for _, b := range blocks {
			pool.release(b)
		}
	}
	if pool.available() != 10 {
		t.Fatalf("available = %d, want 10 (6 cached)", pool.available())
	}
	if !c.evict(pool, 14) {
		t.Fatal("evict freed nothing")
	}
	if pool.available() < 14 {
		t.Fatalf("after evict available = %d", pool.available())
	}
}

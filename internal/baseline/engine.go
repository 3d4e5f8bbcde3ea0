// Package baseline simulates the monolithic serving systems Pie is
// evaluated against: vLLM (continuous batching + block-hash automatic
// prefix caching + n-gram speculative decoding + beam search), SGLang
// (RadixAttention prefix tree + server-side fork/join), LMQL (per-step
// constraint interpretation), and StreamingLLM (single-stream sink
// attention). All of them run on the same internal/gpu device and cost
// model as Pie's inference layer, so comparisons isolate architecture —
// matching the paper's methodology (§7: "all use the FlashInfer backend").
//
// The defining architectural property reproduced here is the monolithic
// generation loop: requests are prompts; the engine owns KV management and
// the predict-then-sample step; anything else (tool calls, tree search,
// cache strategy) must happen client-side through new requests.
package baseline

import (
	"time"

	"pie/internal/gpu"
	"pie/internal/sim"
)

// Kind names a baseline personality.
type Kind string

// The simulated systems.
const (
	VLLM         Kind = "vllm"
	SGLang       Kind = "sglang"
	LMQL         Kind = "lmql"
	StreamingLLM Kind = "streamingllm"
)

// Config parameterizes a baseline engine.
type Config struct {
	Kind       Kind
	ModelLabel string // "1B", "3B", "8B"
	PageSize   int    // KV block size (same 16 as Pie for parity)
	MaxBatch   int    // max sequences advanced per step

	// PrefixCache selects reuse policy: "" (none), "hash" (vLLM),
	// "radix" (SGLang).
	PrefixCache string

	// PerStepOverhead models per-iteration engine work outside kernels
	// (LMQL's query interpretation is large; others are small).
	PerStepOverhead time.Duration

	// PerRequestOverhead is the server front-end cost per request: HTTP
	// handling, tokenizing the (re-sent, full) context, detokenizing the
	// response, queue re-entry. Pie avoids this entirely for intra-agent
	// steps because the workflow never leaves the serving process.
	PerRequestOverhead time.Duration

	// GrammarStepCost is added per step for guided-decoding requests
	// (logit masking on the hot path).
	GrammarStepCost time.Duration

	// SingleStream serializes requests entirely (StreamingLLM).
	SingleStream bool
	// KernelFactor scales kernel costs (StreamingLLM's eager kernels).
	KernelFactor float64
	// SinkWindow bounds attended context (StreamingLLM): sink+window
	// tokens; 0 means unbounded.
	SinkWindow int

	// SpecDecode enables engine-wide n-gram speculative decoding.
	SpecDecode   bool
	SpecDraftLen int
	// SpecAcceptRate is the scripted acceptance probability (see
	// DESIGN.md: trained-model copy behaviour is simulated).
	SpecAcceptRate float64
}

func (c Config) withDefaults() Config {
	if c.ModelLabel == "" {
		c.ModelLabel = "1B"
	}
	if c.PageSize == 0 {
		c.PageSize = 16
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.KernelFactor == 0 {
		c.KernelFactor = 1
	}
	if c.SpecDraftLen == 0 {
		c.SpecDraftLen = 4
	}
	if c.SpecAcceptRate == 0 {
		c.SpecAcceptRate = 0.7
	}
	if c.PerRequestOverhead == 0 {
		c.PerRequestOverhead = 4 * time.Millisecond
	}
	switch c.Kind {
	case VLLM:
		if c.PrefixCache == "" {
			c.PrefixCache = "hash"
		}
		if c.PerStepOverhead == 0 {
			c.PerStepOverhead = 100 * time.Microsecond
		}
		if c.GrammarStepCost == 0 {
			c.GrammarStepCost = 900 * time.Microsecond // outlines-style FSM walk
		}
	case SGLang:
		if c.PrefixCache == "" {
			c.PrefixCache = "radix"
		}
		if c.PerStepOverhead == 0 {
			c.PerStepOverhead = 110 * time.Microsecond
		}
		if c.GrammarStepCost == 0 {
			c.GrammarStepCost = 250 * time.Microsecond // compressed-FSM jump-forward
		}
	case LMQL:
		c.PrefixCache = ""
		if c.MaxBatch > 8 {
			c.MaxBatch = 8
		}
		if c.PerStepOverhead == 0 {
			c.PerStepOverhead = 2 * time.Millisecond // Python query interpreter
		}
		if c.GrammarStepCost == 0 {
			c.GrammarStepCost = 1500 * time.Microsecond
		}
	case StreamingLLM:
		c.PrefixCache = ""
		c.SingleStream = true
		c.MaxBatch = 1
		if c.KernelFactor == 1 {
			c.KernelFactor = 1.5 // research-prototype eager kernels
		}
		if c.SinkWindow == 0 {
			c.SinkWindow = 4 + 1020
		}
		if c.PerStepOverhead == 0 {
			c.PerStepOverhead = 400 * time.Microsecond
		}
	}
	return c
}

// Request is one generation request as a monolithic engine sees it.
type Request struct {
	ID        int
	Prompt    []int
	MaxTokens int
	// Script supplies sampled tokens (teacher forcing); nil falls back to
	// deterministic pseudo-tokens.
	Script []int
	// Guided applies the per-step grammar cost (constrained decoding).
	Guided bool
	// BeamWidth > 1 runs beam search (width sequences per step).
	BeamWidth int

	// Results.
	Output     []int
	Arrived    time.Duration
	FirstToken time.Duration
	Finished   time.Duration
	Done       *sim.Signal

	// Scheduling state.
	blocks    []int32 // owned KV block ids
	cachedTok int     // prompt tokens served from prefix cache
	prefilled int     // prompt tokens whose KV exists (cached+computed)
	generated int
	beamExtra int // extra per-step sequences for beam width
}

// Engine is the shared monolithic core.
type Engine struct {
	clock  *sim.Clock
	cfg    Config
	spec   gpu.Spec
	device *gpu.Device

	waiting []*Request
	running []*Request
	wake    *sim.Mailbox[struct{}]
	nextID  int

	blockPool *blockPool
	cache     prefixCache
	rng       *sim.RNG

	// Stats.
	Steps        int
	Preemptions  int
	CacheHitToks int
	stopped      bool
}

// NewEngine starts a baseline engine on the clock.
func NewEngine(clock *sim.Clock, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	spec := gpu.SpecFor(cfg.ModelLabel)
	e := &Engine{
		clock:  clock,
		cfg:    cfg,
		spec:   spec,
		device: gpu.NewDevice(clock, "bl-"+string(cfg.Kind)),
		wake:   sim.NewMailbox[struct{}](clock),
		rng:    sim.NewRNG(0xBA5E ^ uint64(len(cfg.Kind))),
	}
	e.blockPool = newBlockPool(spec.KvPageCapacity(cfg.PageSize))
	switch cfg.PrefixCache {
	case "hash":
		e.cache = newHashCache(cfg.PageSize)
	case "radix":
		e.cache = newRadixCache(cfg.PageSize)
	default:
		e.cache = nullCache{}
	}
	clock.GoDaemon("baseline:"+string(cfg.Kind), e.loop)
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Submit enqueues a request; its Done signal fires at completion.
func (e *Engine) Submit(r *Request) *Request {
	e.nextID++
	r.ID = e.nextID
	r.Arrived = e.clock.Now()
	r.Done = sim.NewSignal(e.clock)
	if r.MaxTokens <= 0 {
		r.MaxTokens = 16
	}
	if r.BeamWidth > 1 {
		r.beamExtra = r.BeamWidth - 1
	}
	e.waiting = append(e.waiting, r)
	e.wake.Send(struct{}{})
	return r
}

// Generate is the blocking client-side call (over no link; see Client).
func (e *Engine) Generate(prompt []int, maxTokens int, script []int) []int {
	r := e.Submit(&Request{Prompt: prompt, MaxTokens: maxTokens, Script: script})
	_ = sim.Await(r.Done)
	return r.Output
}

// loop is the monolithic scheduler: admit, step, repeat — the fixed
// prefill–decode iteration of Fig. 1.
func (e *Engine) loop() {
	for !e.stopped {
		if len(e.running) == 0 && len(e.waiting) == 0 {
			if _, err := e.wake.Recv(); err != nil {
				return
			}
			continue
		}
		e.admit()
		if len(e.running) == 0 {
			// Admission starved (pool exhausted by waiting giants).
			e.clock.Sleep(time.Millisecond)
			continue
		}
		e.step()
	}
}

// admit moves waiting requests into the running batch while KV blocks
// last, consulting the prefix cache first.
func (e *Engine) admit() {
	for len(e.waiting) > 0 {
		if e.cfg.SingleStream && len(e.running) >= 1 {
			return
		}
		if len(e.running) >= e.cfg.MaxBatch {
			return
		}
		r := e.waiting[0]
		hitToks, hitBlocks := e.cache.match(r.Prompt)
		needTokens := (len(r.Prompt) - hitToks) + r.MaxTokens + 1
		needBlocks := (needTokens + e.cfg.PageSize - 1) / e.cfg.PageSize
		ids, ok := e.blockPool.alloc(needBlocks)
		if !ok {
			// vLLM-style preemption: evict cache entries, then give up
			// until a running request finishes.
			if e.cache.evict(e.blockPool, needBlocks) {
				continue
			}
			if len(e.running) == 0 {
				// Nothing running can ever free blocks: the request does
				// not fit at all. Abort it (engine OOM).
				e.Preemptions++
				e.waiting = e.waiting[1:]
				r.Finished = e.clock.Now()
				sim.Fire(r.Done)
				continue
			}
			return
		}
		for _, b := range hitBlocks {
			e.blockPool.retain(b)
		}
		r.blocks = append(append([]int32(nil), hitBlocks...), ids...)
		r.cachedTok = hitToks
		r.prefilled = hitToks
		e.CacheHitToks += hitToks
		e.waiting = e.waiting[1:]
		e.running = append(e.running, r)
	}
}

// step advances every running sequence by one iteration: chunked prefill
// for new requests plus one decode token for the rest, one fused kernel.
func (e *Engine) step() {
	e.Steps++
	const prefillChunk = 512
	prefillTokens, decodeSeqs, ctxTokens, seqs := 0, 0, 0, 0
	guided := 0
	for _, r := range e.running {
		width := 1 + r.beamExtra
		if r.prefilled < len(r.Prompt) {
			chunk := len(r.Prompt) - r.prefilled
			if chunk > prefillChunk {
				chunk = prefillChunk
			}
			prefillTokens += chunk
			ctxTokens += e.attended(r.prefilled)
			seqs++
		} else {
			decodeSeqs += width * e.specWidth(r)
			ctxTokens += width * e.attended(len(r.Prompt)+r.generated)
			seqs += width
		}
		if r.Guided {
			guided++
		}
	}
	cost := e.spec.ForwardCost(decodeSeqs, prefillTokens, ctxTokens) + e.spec.FusedSampleCost(seqs)
	cost = time.Duration(float64(cost) * e.cfg.KernelFactor)
	cost += e.cfg.PerStepOverhead
	cost += time.Duration(guided) * e.cfg.GrammarStepCost
	_ = sim.Await(e.device.Submit("step", cost))

	// Advance sequences.
	var still []*Request
	for _, r := range e.running {
		if r.prefilled < len(r.Prompt) {
			r.prefilled += prefillChunk
			if r.prefilled >= len(r.Prompt) {
				r.prefilled = len(r.Prompt)
				// The prefix is now reusable by concurrent requests
				// (SGLang shares in-flight prefixes via the radix tree).
				e.cache.insert(r.Prompt, nil, r.blocks, e.blockPool)
			}
			still = append(still, r)
			continue
		}
		produced := e.specWidth(r)
		for k := 0; k < produced && r.generated < r.MaxTokens; k++ {
			r.Output = append(r.Output, e.nextToken(r))
			r.generated++
			if r.generated == 1 {
				r.FirstToken = e.clock.Now()
			}
		}
		if r.generated >= r.MaxTokens {
			e.finish(r)
			continue
		}
		still = append(still, r)
	}
	e.running = still
}

// attended returns context size under the engine's attention policy.
func (e *Engine) attended(ctx int) int {
	if e.cfg.SinkWindow > 0 && ctx > e.cfg.SinkWindow {
		return e.cfg.SinkWindow
	}
	return ctx
}

// specWidth returns tokens produced per step for a sequence: 1 normally,
// more under accepted speculative drafts.
func (e *Engine) specWidth(r *Request) int {
	if !e.cfg.SpecDecode {
		return 1
	}
	accepted := 1
	for i := 0; i < e.cfg.SpecDraftLen; i++ {
		if e.rng.Float64() < e.cfg.SpecAcceptRate {
			accepted++
		} else {
			break
		}
	}
	return accepted
}

func (e *Engine) nextToken(r *Request) int {
	if r.generated < len(r.Script) {
		return r.Script[r.generated]
	}
	// Deterministic filler tokens (match Pie's timing-mode convention).
	x := uint64(r.ID)*0x9E3779B97F4A7C15 ^ uint64(r.generated)*0xD6E8FEB86659FD93
	x ^= x >> 31
	return 4 + int(x%2000)
}

// finish releases or caches the request's blocks and signals completion.
// The full sequence (prompt + output) is inserted so follow-up requests
// that extend this conversation re-use its KV — the mechanism that lets
// baselines partially mitigate agent re-prefills (§2.2).
func (e *Engine) finish(r *Request) {
	r.Finished = e.clock.Now()
	e.cache.insert(r.Prompt, r.Output, r.blocks, e.blockPool)
	for _, b := range r.blocks {
		e.blockPool.release(b)
	}
	r.blocks = nil
	sim.Fire(r.Done)
}

// Stop ends the engine loop once idle.
func (e *Engine) Stop() {
	e.stopped = true
	e.wake.Close()
}

// BusyTime reports cumulative GPU time.
func (e *Engine) BusyTime() time.Duration { return e.device.BusyTime() }

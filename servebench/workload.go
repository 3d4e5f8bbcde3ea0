package main

import (
	"math"
	"math/rand/v2"
	"time"
)

// vocab is ModelInfo.VocabSize of the standard catalog's models; every
// Pie leg checks it against the engine before sending a request. Ids
// below specialTokens are the tokenizer's control ids and are never drawn.
const (
	vocab         = 1137
	specialTokens = 4
	pageSize      = 16
)

// Workload kinds: which runner drives the leg.
const (
	kindChat  = "chat"
	kindAgent = "agent"
	kindKV    = "kv"
)

// workload is one traffic mix: an open-loop arrival process at one or
// more fixed rates, the engine it runs on, and its latency contract.
type workload struct {
	name   string
	kind   string
	vllm   bool      // run on the baseline vLLM engine instead of Pie
	model  string    // catalog model every request runs on
	rates  []float64 // fixed arrival rates, requests (sessions) per virtual second
	n      int       // requests per leg, warm-up included
	warm   int       // leading requests excluded from the measured phase
	passes int       // measured passes per run (independent input draws)
	slo    slo
	// report is the index of the rate whose leg the latency, goodput and
	// token metrics are read from (the sweep's middle rate).
	report int
	kv     kvSizing // KV-session workloads: engine and session sizing
}

// kvSizing oversubscribes one replica's small device KV pool against a
// host tier: sessions idle in their think period get offloaded, and when
// both tiers are full the FCFS policy reclaims the newest session.
type kvSizing struct {
	full      bool    // ModeFull (real tensor math) instead of ModeTiming
	pages     int     // device KV pages (KVPagesOverride)
	hostRatio float64 // host tier size as a multiple of the device pool
	prompt    [2]int  // unshared prompt length range, tokens
}

var workloads = map[string]*workload{
	"chat-sweep": {
		name: "chat-sweep", kind: kindChat, model: "llama-1b",
		rates: []float64{200, 300, 450}, n: 1100, warm: 100, passes: 5, report: 1,
		slo: slo{TTFT: 150 * time.Millisecond, ITL: 45 * time.Millisecond},
	},
	"agent-prefix": {
		name: "agent-prefix", kind: kindAgent, model: "llama-8b",
		rates: []float64{6}, n: 600, warm: 60, passes: 2,
		slo: slo{TTFT: 300 * time.Millisecond, ITL: 100 * time.Millisecond},
	},
	"kv-full": {
		name: "kv-full", kind: kindKV, model: "llama-1b",
		rates: []float64{20}, n: 600, warm: 60, passes: 2,
		slo: slo{TTFT: 100 * time.Millisecond, ITL: 30 * time.Millisecond},
		kv:  kvSizing{full: true, pages: 32, hostRatio: 2.0, prompt: [2]int{16, 40}},
	},
	"agent-vllm": {
		name: "agent-vllm", kind: kindAgent, vllm: true, model: "llama-8b",
		rates: []float64{1.5}, n: 600, warm: 60, passes: 2,
		slo: slo{TTFT: 300 * time.Millisecond, ITL: 100 * time.Millisecond},
	},
}

// Agent session shape.
const (
	hotPrompts = 8 // distinct shared system prompts
	zipfS      = 1.2
)

// A KV session's client relaunches a reclaimed session up to maxAttempts
// in all. Its n-th backoff is retryBackoff·2^(n-1), scaled by a uniform
// draw from [0.5, 1) so that relaunches do not arrive in lockstep.
const (
	maxAttempts  = 8
	retryBackoff = 50 * time.Millisecond
)

// tools are the external services agent steps call: name and latency.
var tools = []struct {
	host    string
	latency time.Duration
}{
	{"search.api", 40 * time.Millisecond},
	{"code.exec", 80 * time.Millisecond},
	{"fn.api", 30 * time.Millisecond},
}

// request is one generated input: a chat completion, an agent session or
// a KV session, due at an exact virtual instant.
type request struct {
	due      time.Duration
	measured bool
	prompt   []int           // chat/kv prompt, or the agent's task
	out      int             // chat: output tokens; kv: decode tokens after the first
	think    time.Duration   // kv: idle period between first token and decode
	sys      int             // agent: hot system prompt index
	steps    []agentStep     // agent: think -> tool -> observe
	final    int             // agent: answer tokens after the last step
	backoff  []time.Duration // kv: the client's waits before each relaunch
}

type agentStep struct {
	think int // tokens generated
	tool  int // index into tools
	obs   []int
}

// want is the number of output tokens the request asks for.
func (r *request) want(kind string) int {
	switch kind {
	case kindChat:
		return r.out
	case kindKV:
		return 1 + r.out
	}
	n := r.final
	for _, s := range r.steps {
		n += s.think
	}
	return n
}

// inputs is one leg's generated traffic.
type inputs struct {
	rate float64
	reqs []request
	sys  [][]int // agent: hot system prompts
}

// legSeed derives the input seed of one leg from the run seed, the pass
// and the rate index, so every leg draws independent inputs.
func legSeed(seed uint64, pass, rate int) (uint64, uint64) {
	return seed, uint64(pass)<<8 | uint64(rate)
}

func tokens(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = specialTokens + rng.IntN(vocab-specialTokens)
	}
	return out
}

// between draws uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

// generate draws a leg's inputs: Poisson arrivals at rate, and a
// per-kind request shape.
func generate(w *workload, seed uint64, pass, rateIdx int) *inputs {
	rng := rand.New(rand.NewPCG(legSeed(seed, pass, rateIdx)))
	in := &inputs{rate: w.rates[rateIdx], reqs: make([]request, w.n)}
	if w.kind == kindAgent {
		// The hot prompts depend on the run seed alone, so every pass and
		// both engines share them; page-aligned so they export whole.
		srng := rand.New(rand.NewPCG(seed, 0xFFFF))
		for range hotPrompts {
			in.sys = append(in.sys, tokens(srng, pageSize*between(srng, 16, 32)))
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, hotPrompts-1)
	var t float64
	for i := range in.reqs {
		t += -math.Log(1-rng.Float64()) / in.rate
		r := &in.reqs[i]
		r.due = time.Duration(t * float64(time.Second))
		r.measured = i >= w.warm
		switch w.kind {
		case kindChat:
			r.prompt = tokens(rng, between(rng, 16, 64))
			r.out = between(rng, 4, 16)
		case kindKV:
			r.prompt = tokens(rng, between(rng, w.kv.prompt[0], w.kv.prompt[1]))
			r.out = between(rng, 8, 16)
			r.think = time.Duration(between(rng, 300, 600)) * time.Millisecond
			for n := range maxAttempts - 1 {
				r.backoff = append(r.backoff, time.Duration((0.5+rng.Float64()/2)*float64(retryBackoff<<n)))
			}
		case kindAgent:
			r.sys = int(zipf.Uint64())
			r.prompt = tokens(rng, between(rng, 16, 48))
			for range between(rng, 4, 8) {
				r.steps = append(r.steps, agentStep{
					think: between(rng, 8, 24),
					tool:  rng.IntN(len(tools)),
					obs:   tokens(rng, between(rng, 16, 48)),
				})
			}
			r.final = between(rng, 8, 24)
		}
	}
	return in
}

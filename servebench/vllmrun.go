package main

import (
	"errors"
	"strings"
	"time"

	"pie/internal/baseline"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// vllmRTT matches Pie's default client link, so both engines' sessions
// pay the same network per request.
const vllmRTT = 8 * time.Millisecond

// errAborted marks a baseline request the engine finished without output
// (its KV demand could never fit the block pool).
var errAborted = errors.New("baseline: request aborted, KV demand exceeds the block pool")

// vllmRun drives agent sessions against one baseline vLLM engine with
// automatic prefix caching. All agent logic lives at the client: every
// think step is a request carrying the whole accumulated context, and
// tool calls go out from the client.
type vllmRun struct {
	in      *inputs
	clock   *sim.Clock
	eng     *baseline.Engine
	world   *netsim.World
	tr      *tracer
	res     *legResult
	reqSpan []int
	prompts int // prompt tokens submitted (cache-hit denominator)
}

func runVLLMLeg(w *workload, in *inputs, tr *tracer) *legResult {
	r := setupVLLM(w, in, tr)
	res := r.res
	r.clock.Go("generator", func() {
		for i := range in.reqs {
			due := in.reqs[i].due
			r.clock.Sleep(due - r.clock.Now())
			res.lag = max(res.lag, r.clock.Now()-due)
			r.clock.Go("client", func() { r.session(i) })
		}
	})
	res.run(r.clock.Run)
	r.eng.Stop()

	L := res.layer
	L["sim.events"] = float64(r.clock.Events())
	L["netsim.tool_calls"] = float64(r.world.Calls)
	L["baseline.steps"] = float64(r.eng.Steps)
	L["baseline.preemptions"] = float64(r.eng.Preemptions)
	L["baseline.cache_hit_frac"] = ratio(r.eng.CacheHitToks, r.prompts)
	if now := r.clock.Now().Seconds(); now > 0 {
		L["gpu.busy_frac"] = r.eng.BusyTime().Seconds() / now
	}
	return res
}

// setupVLLM builds the leg's engine and its tool services, timing both on
// the host clock.
func setupVLLM(w *workload, in *inputs, tr *tracer) *vllmRun {
	res := newLegResult(w, in, tr)
	r := &vllmRun{in: in, tr: tr, res: res, reqSpan: make([]int, len(in.reqs))}
	res.setup(func() {
		r.clock = sim.NewClock()
		r.eng = baseline.NewEngine(r.clock, baseline.Config{Kind: baseline.VLLM, ModelLabel: strings.ToUpper(strings.TrimPrefix(w.model, "llama-")), PrefixCache: "hash"})
	}, func() {
		r.world = netsim.NewWorld(r.clock)
		for _, t := range tools {
			r.world.Register(&netsim.Service{Name: t.host, Latency: t.latency, Handler: func(string) string { return `{"status":200,"body":"ok"}` }})
		}
	})
	return r
}

// generate is one client request: half a round trip out, the server's
// front-end cost, the engine's generation, half a round trip back. The
// engine does not stream, so the first token is taken at the instant the
// engine produced it, and the request's mean gap stands for its ITL.
func (r *vllmRun) generate(i int, prompt []int, n int, first bool) ([]int, error) {
	o := &r.res.outs[i]
	r.clock.Sleep(vllmRTT / 2)
	r.clock.Sleep(r.eng.Config().PerRequestOverhead)
	t := r.clock.Now()
	rq := r.eng.Submit(&baseline.Request{Prompt: prompt, MaxTokens: n})
	r.prompts += len(prompt)
	if err := sim.Await(rq.Done); err != nil {
		return nil, err
	}
	r.tr.virt(spEngineRequest, t, rq.Finished, r.reqSpan[i], i)
	if len(rq.Output) != n {
		return nil, errAborted
	}
	if first {
		o.firstSeen = rq.FirstToken
	}
	if n > 1 {
		o.gapSum += rq.Finished - rq.FirstToken
		o.gaps += n - 1
		if o.measured {
			r.res.itl = append(r.res.itl, ms((rq.Finished-rq.FirstToken)/time.Duration(n-1)))
		}
	}
	o.tokens += n
	r.clock.Sleep(vllmRTT - vllmRTT/2)
	return rq.Output, nil
}

func (r *vllmRun) session(i int) {
	o := &r.res.outs[i]
	r.reqSpan[i] = r.tr.virt(spRequest, o.due, o.due, -1, i)
	o.err = r.steps(i)
	if o.err == nil && o.tokens != o.want {
		o.err = errShort
	}
	o.done = r.clock.Now()
	r.tr.end(r.reqSpan[i], o.done)
}

func (r *vllmRun) steps(i int) error {
	rq := &r.in.reqs[i]
	ctx := append(append([]int(nil), r.in.sys[rq.sys]...), rq.prompt...)
	for k, st := range rq.steps {
		out, err := r.generate(i, ctx, st.think, k == 0)
		if err != nil {
			return err
		}
		ctx = append(ctx, out...)
		t := r.clock.Now()
		_, err = r.world.Call("http://"+tools[st.tool].host+"/q", "step").Get()
		r.tr.virt(spTool, t, r.clock.Now(), r.reqSpan[i], i)
		if err != nil {
			return err
		}
		ctx = append(ctx, st.obs...)
	}
	_, err := r.generate(i, ctx, rq.final, false)
	return err
}

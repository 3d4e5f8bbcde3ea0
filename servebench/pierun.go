package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"pie"
	"pie/api"
	"pie/support"
)

// legResult is everything one leg (one engine, one rate, one input draw)
// reports back: client outcomes, the untraced host cost of its phases,
// and the layer counters read from the engine once it is quiescent.
type legResult struct {
	in      *inputs
	outs    []outcome
	itl     []float64 // ITL samples of measured requests (ms): per token, or per request when not streamed
	setupNS int64     // host: engine build + registration
	engNS   int64     // host: engine build alone
	regNS   int64     // host: program and tool registration
	runNS   int64     // host: simulation run
	lag     time.Duration
	runErr  error    // Engine.Run's result (a deadlock is a failed run)
	retried []error  // errors of attempts the client relaunched
	checks  []string // failed correctness checks
	layer   map[string]float64
	mallocs uint64  // heap bytes allocated during the run
	gcs     uint32  // GC cycles during the run
	tr      *tracer // the leg's spans; nil when untraced
}

func newLegResult(w *workload, in *inputs, tr *tracer) *legResult {
	l := &legResult{in: in, outs: make([]outcome, len(in.reqs)), layer: map[string]float64{}, tr: tr}
	for i := range in.reqs {
		l.outs[i].due = in.reqs[i].due
		l.outs[i].measured = in.reqs[i].measured
		l.outs[i].want = in.reqs[i].want(w.kind)
	}
	return l
}

func (l *legResult) check(ok bool, format string, args ...any) {
	if !ok {
		l.checks = append(l.checks, fmt.Sprintf(format, args...))
	}
}

// setup times building the engine and registering with it (host clock).
func (l *legResult) setup(build, register func()) {
	t0 := time.Now()
	build()
	t1 := time.Now()
	register()
	t2 := time.Now()
	l.engNS, l.regNS, l.setupNS = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t2.Sub(t0).Nanoseconds()
	l.tr.phase(spSetupEngine, t0, t1)
	l.tr.phase(spSetupRegister, t1, t2)
}

// run times the simulation run (host clock) and its heap allocation.
func (l *legResult) run(run func() error) {
	m0 := readMem()
	t0 := time.Now()
	l.runErr = run()
	t1 := time.Now()
	m1 := readMem()
	l.runNS = t1.Sub(t0).Nanoseconds()
	l.mallocs, l.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	l.tr.phase(spRun, t0, t1)
}

// pieRun drives one leg against a Pie engine. The inferlets are the
// benchmark's own: they read their request from the generated inputs by
// index, stream the first token to the client, and time every token.
type pieRun struct {
	w     *workload
	in    *inputs
	e     *pie.Engine
	tr    *tracer
	model api.ModelInfo
	res   *legResult

	launchAt  []time.Duration
	reqSpan   []int
	itl       [][]float64 // per request: the token gaps (ms) of its current attempt
	pending   int
	genDone   bool
	hits      int // agent sessions whose replica already held their export
	sessions  int
	calls     int // control + inference calls over completed requests
	fwdTokens int // tokens sent through forward passes
}

func pieConfig(w *workload, seed uint64) pie.Config {
	switch w.kind {
	case kindChat:
		return pie.Config{Seed: seed, Mode: pie.ModeTiming, Replicas: 2, Placement: pie.PlaceLeastLoaded}
	case kindAgent:
		return pie.Config{Seed: seed, Mode: pie.ModeTiming, Replicas: 4, Placement: pie.PlaceKVAffinity}
	}
	mode := pie.ModeTiming
	if w.kv.full {
		mode = pie.ModeFull
	}
	return pie.Config{Seed: seed, Mode: mode, Replicas: 1, KVPagesOverride: w.kv.pages, HostKVRatio: w.kv.hostRatio}
}

func runPieLeg(w *workload, in *inputs, seed uint64, tr *tracer) *legResult {
	r := setupPie(w, in, seed, tr)
	res := r.res
	if len(res.checks) > 0 {
		return res
	}
	for _, m := range r.e.Controller().ModelInfos() {
		if string(m.ID) == w.model {
			r.model = m
		}
	}
	res.check(r.model.VocabSize == vocab, "model %s vocabulary is %d tokens, inputs are drawn from %d", w.model, r.model.VocabSize, vocab)

	r.e.Go("generator", r.generator)
	res.run(r.e.Run)
	r.quiescence()
	return res
}

// setupPie builds the leg's engine and registers its programs and tools,
// timing both on the host clock.
func setupPie(w *workload, in *inputs, seed uint64, tr *tracer) *pieRun {
	res := newLegResult(w, in, tr)
	r := &pieRun{w: w, in: in, tr: tr, res: res,
		launchAt: make([]time.Duration, len(in.reqs)), reqSpan: make([]int, len(in.reqs)),
		itl: make([][]float64, len(in.reqs))}
	var regErr error
	res.setup(func() { r.e = pie.New(pieConfig(w, seed)) }, func() {
		for _, p := range r.programs() {
			if err := r.e.Register(p); err != nil && regErr == nil {
				regErr = fmt.Errorf("register %s: %w", p.Name, err)
			}
		}
		for _, t := range tools {
			r.e.RegisterTool(t.host, t.latency, func(string) string { return `{"status":200,"body":"ok"}` })
		}
	})
	res.check(regErr == nil, "%v", regErr)
	return r
}

func (r *pieRun) programs() []pie.Program {
	prog := func(name string, run func(s pie.Session) error) pie.Program {
		return pie.Program{Name: name, BinarySize: 128 << 10, Run: run}
	}
	switch r.w.kind {
	case kindChat:
		return []pie.Program{prog("sb_chat", r.chat)}
	case kindAgent:
		return []pie.Program{prog("sb_agent", r.agent), prog("sb_release", r.release)}
	}
	return []pie.Program{prog("sb_kv", r.kv)}
}

// generator issues every request at its exact due time, each from its
// own client process.
func (r *pieRun) generator() {
	for i := range r.in.reqs {
		due := r.in.reqs[i].due
		r.e.Sleep(due - r.e.Now())
		r.res.lag = max(r.res.lag, r.e.Now()-due)
		r.pending++
		r.e.Go("client", func() { r.client(i) })
	}
	r.genDone = true
}

// launchSpec builds the launch for request i. Agent sessions carry their
// system prompt's export name as the KV-affinity routing hint.
func (r *pieRun) launchSpec(i int) pie.LaunchSpec {
	switch r.w.kind {
	case kindChat:
		return pie.Spec("sb_chat", strconv.Itoa(i))
	case kindAgent:
		return pie.Spec("sb_agent", `{"affinity":"`+sysKey(r.in.reqs[i].sys)+`","req":`+strconv.Itoa(i)+`}`)
	}
	return pie.Spec("sb_kv", strconv.Itoa(i))
}

func sysKey(k int) string { return "sys-" + strconv.Itoa(k) }

// errShort marks a request that completed with another token count than it asked for.
var errShort = errors.New("servebench: completed with the wrong token count")

// client sends request i. A KV session the engine's FCFS policy reclaims
// (api.ErrTerminated) is relaunched after each of its drawn backoffs in
// turn; it stays timed from its original due time.
func (r *pieRun) client(i int) {
	o := &r.res.outs[i]
	r.reqSpan[i] = r.tr.virt(spRequest, o.due, o.due, -1, i)
	err := r.attempt(i)
	for _, wait := range r.in.reqs[i].backoff {
		if !errors.Is(err, api.ErrTerminated) {
			break
		}
		r.res.retried = append(r.res.retried, err)
		r.e.Sleep(wait)
		err = r.attempt(i)
	}
	if err == nil && o.measured {
		r.res.itl = append(r.res.itl, r.itl[i]...)
	}
	o.done, o.err = r.e.Now(), err
	r.tr.end(r.reqSpan[i], o.done)
	r.pending--
	if r.pending == 0 && r.genDone && r.w.kind == kindAgent {
		r.releaseExports()
	}
}

// attempt launches request i once and checks what it returned. The
// client-side counts start afresh: a reclaimed attempt's tokens are lost.
func (r *pieRun) attempt(i int) error {
	o := &r.res.outs[i]
	o.firstSeen, o.gapSum, o.gaps, o.tokens, r.itl[i] = 0, 0, 0, 0, r.itl[i][:0]
	r.launchAt[i] = r.e.Now()
	h, err := r.e.Launch(r.launchSpec(i))
	if err != nil {
		return err
	}
	if err := h.Wait(); err != nil {
		return err
	}
	ctl, inf, got := h.Stats()
	r.calls += ctl + inf
	msg, streamed := h.TryRecv()
	switch {
	case !streamed || msg != "first":
		return fmt.Errorf("servebench: first-token message missing (got %q)", msg)
	case got != o.want || o.tokens != o.want:
		return fmt.Errorf("%w: asked %d, engine counted %d, client saw %d", errShort, o.want, got, o.tokens)
	}
	return nil
}

// releaseExports drops every hot-prompt export once traffic has drained,
// routing each release to the replica holding it, so the engine can be
// checked for leaked pages at quiescence.
func (r *pieRun) releaseExports() {
	for k := range r.in.sys {
		h, err := r.e.Launch(pie.Spec("sb_release", `{"affinity":"`+sysKey(k)+`"}`))
		if err == nil {
			err = h.Wait()
		}
		r.res.check(err == nil, "release export %s: %v", sysKey(k), err)
	}
}

// begin runs first in every request inferlet: it resolves the request
// index and records Launch -> first inferlet instruction.
func (r *pieRun) begin(s pie.Session, arg string) (int, error) {
	i, err := strconv.Atoi(arg)
	if err != nil || i < 0 || i >= len(r.in.reqs) {
		return 0, fmt.Errorf("servebench: bad request index %q", arg)
	}
	r.tr.virt(spILMStart, r.launchAt[i], s.Now(), r.reqSpan[i], i)
	return i, nil
}

// ctl records a control-layer call's span.
func (r *pieRun) ctl(name spanName, start time.Duration, s pie.Session, i int) {
	r.tr.virt(name, start, s.Now(), r.reqSpan[i], i)
}

// open creates a context on its own queue, timing the control calls.
func (r *pieRun) open(s pie.Session, i int) (*support.Context, error) {
	t := s.Now()
	ctx, err := support.NewContext(s, r.model)
	r.ctl(spCtlOpen, t, s, i)
	return ctx, err
}

func (r *pieRun) closeCtx(s pie.Session, ctx *support.Context, i int) error {
	t := s.Now()
	err := ctx.Close()
	r.ctl(spCtlClose, t, s, i)
	return err
}

// fill prefills toks and returns when it was issued (the start of the
// forward span that ends at the next token).
func (r *pieRun) fill(s pie.Session, ctx *support.Context, toks []int) (time.Duration, error) {
	t := s.Now()
	r.fwdTokens += len(toks)
	return t, ctx.FillTokens(toks)
}

// generate decodes n tokens. Each token closes a forward span: the first
// from fwdStart (the prefill that fed it), the rest from the previous
// token. Gaps within the generation are the request's inter-token
// latencies; with notify set, the first token is streamed to the client.
func (r *pieRun) generate(s pie.Session, ctx *support.Context, i, n int, fwdStart time.Duration, notify bool) error {
	o := &r.res.outs[i]
	last, got := fwdStart, 0
	res, err := ctx.Generate(support.GenOpts{MaxTokens: n, OnToken: func(int) {
		now := s.Now()
		r.tr.virt(spForward, last, now, r.reqSpan[i], i)
		if got == 0 {
			if notify {
				o.firstSeen = now
				s.Send("first")
			}
		} else {
			gap := now - last
			o.gapSum += gap
			o.gaps++
			r.itl[i] = append(r.itl[i], ms(gap))
		}
		last = now
		got++
	}})
	o.tokens += len(res.Tokens)
	r.fwdTokens += len(res.Tokens)
	return err
}

func (r *pieRun) chat(s pie.Session) error {
	i, err := r.begin(s, s.GetArg()[0])
	if err != nil {
		return err
	}
	rq := &r.in.reqs[i]
	ctx, err := r.open(s, i)
	if err != nil {
		return err
	}
	t, err := r.fill(s, ctx, rq.prompt)
	if err != nil {
		return err
	}
	if err := r.generate(s, ctx, i, rq.out, t, true); err != nil {
		return err
	}
	return r.closeCtx(s, ctx, i)
}

// kv is the KV-pressure session: an unshared prompt, the first token,
// an idle think period (its pages turn cold and may be offloaded), then a
// decode that reads the whole context back.
func (r *pieRun) kv(s pie.Session) error {
	i, err := r.begin(s, s.GetArg()[0])
	if err != nil {
		return err
	}
	rq := &r.in.reqs[i]
	ctx, err := r.open(s, i)
	if err != nil {
		return err
	}
	t, err := r.fill(s, ctx, rq.prompt)
	if err != nil {
		return err
	}
	if err := r.generate(s, ctx, i, 1, t, true); err != nil {
		return err
	}
	s.Sleep(rq.think)
	if err := r.generate(s, ctx, i, rq.out, s.Now(), false); err != nil {
		return err
	}
	return r.closeCtx(s, ctx, i)
}

type agentArgs struct {
	Affinity string `json:"affinity"`
	Req      int    `json:"req"`
}

// agent is a ReAct-style session: a hot system prompt imported from the
// replica's export (or prefilled and exported by the first session there),
// the task, then think -> tool -> observe steps and a final answer.
func (r *pieRun) agent(s pie.Session) error {
	var a agentArgs
	if err := json.Unmarshal([]byte(s.GetArg()[0]), &a); err != nil {
		return err
	}
	i, err := r.begin(s, strconv.Itoa(a.Req))
	if err != nil {
		return err
	}
	rq := &r.in.reqs[i]
	sys := r.in.sys[rq.sys]
	ctx, err := r.open(s, i)
	if err != nil {
		return err
	}
	r.sessions++
	al := ctx.Alloc()
	t := s.Now()
	if al.HasExport(a.Affinity) {
		r.hits++
		pages, err := al.Import(a.Affinity)
		r.ctl(spCtlImport, t, s, i)
		if err != nil {
			return err
		}
		if _, err := support.ComposeContext(ctx, pages, len(sys)); err != nil {
			return err
		}
	} else {
		if _, err := r.fill(s, ctx, sys); err != nil {
			return err
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		// A concurrent session on this replica may export between the
		// probe and this export (both are control calls that take virtual
		// time); the first export wins and the loser keeps its own pages.
		t = s.Now()
		err := al.Export(a.Affinity, ctx.Pages())
		r.ctl(spCtlExport, t, s, i)
		if err != nil && !(errors.Is(err, api.ErrBadArgument) && al.HasExport(a.Affinity)) {
			return err
		}
	}
	fwd, err := r.fill(s, ctx, rq.prompt)
	if err != nil {
		return err
	}
	for k, st := range rq.steps {
		if err := r.generate(s, ctx, i, st.think, fwd, k == 0); err != nil {
			return err
		}
		t := s.Now()
		_, err := s.HTTPGet("http://" + tools[st.tool].host + "/q?step=" + strconv.Itoa(k)).Get()
		r.tr.virt(spTool, t, s.Now(), r.reqSpan[i], i)
		if err != nil {
			return err
		}
		if fwd, err = r.fill(s, ctx, st.obs); err != nil {
			return err
		}
	}
	if err := r.generate(s, ctx, i, rq.final, fwd, false); err != nil {
		return err
	}
	return r.closeCtx(s, ctx, i)
}

// release drops a hot-prompt export on the replica holding it.
func (r *pieRun) release(s pie.Session) error {
	var a agentArgs
	if err := json.Unmarshal([]byte(s.GetArg()[0]), &a); err != nil {
		return err
	}
	q, err := s.Open(r.model.ID)
	if err != nil {
		return err
	}
	al, err := q.Alloc()
	if err != nil {
		return err
	}
	if al.HasExport(a.Affinity) {
		if err := al.ReleaseExport(a.Affinity); err != nil {
			return err
		}
	}
	return q.Close()
}

// quiescence checks the engine once the run is over and reads its layer
// counters.
func (r *pieRun) quiescence() {
	res, st := r.res, r.e.Stats()
	for _, m := range r.e.Models() {
		inUse, _ := r.e.PoolStats(m)
		res.check(inUse == 0, "%s: %d KV pages still in use at quiescence", m, inUse)
	}
	res.check(st.KVDevicePages+st.KVHostPages == 0, "KV tiers hold %d device + %d host pages at quiescence", st.KVDevicePages, st.KVHostPages)

	done := 0
	for i := range res.outs {
		if res.outs[i].ok() {
			done++
		}
	}
	var placements []float64
	for _, rs := range r.e.ReplicaStats() {
		placements = append(placements, float64(rs.Placements))
	}
	window := r.e.Now().Seconds()
	replicas := float64(len(placements))
	L := res.layer
	L["sim.events"] = float64(r.e.Clock().Events())
	L["core.batches"] = float64(st.Batches)
	L["core.batch_size_mean"] = st.AvgBatch
	L["core.batch_size_max"] = float64(st.MaxBatch)
	L["core.kv_peak_pages"] = float64(st.KVPeakPages)
	L["core.swap_in_pages"] = float64(st.SwapInPages)
	L["core.swap_out_pages"] = float64(st.SwapOutPages)
	L["core.swap_ms"] = ms(st.SwapTime)
	L["core.artifact_hit_ratio"] = ratio(st.ArtifactHits, st.ArtifactHits+st.ArtifactMisses)
	L["ilm.cold_launches"] = float64(st.ColdLaunches)
	L["inferlet.calls_per_req"] = ratio(r.calls, done)
	L["cluster.prefix_hit_ratio"] = ratio(r.hits, r.sessions)
	L["cluster.placement_imbalance"] = imbalance(placements)
	L["cluster.sheds"] = float64(st.Sheds)
	L["netsim.tool_calls"] = float64(st.ToolCalls)
	L["gpu.kernels"] = float64(st.Kernels)
	if window > 0 && replicas > 0 {
		L["gpu.busy_frac"] = st.GPUBusy.Seconds() / (window * replicas)
	}
	L["model.forward_tokens"] = float64(r.fwdTokens)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// imbalance is max ÷ mean of per-replica placements (1 = perfectly even).
func imbalance(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(xs)))
}

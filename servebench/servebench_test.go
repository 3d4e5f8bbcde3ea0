package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"pie/api"
)

func TestFrameLayerMapsEveryModule(t *testing.T) {
	cases := map[string]string{
		"pie/internal/sim.(*Clock).Run":                       "sim",
		"pie/internal/sim.(*Future[go.shape.string]).Get":     "sim",
		"pie/internal/core.(*Controller).ReleaseInstance":     "core",
		"pie/internal/infer.(*ModelRuntime).execNextDist":     "infer",
		"pie/internal/gpu.(*Device).Submit.func1":             "infer",
		"pie/internal/model.(*Model).Forward":                 "model",
		"pie/internal/tensor.MatMul":                          "model",
		"pie/internal/ilm.(*ILM).Launch":                      "ilm",
		"pie/support.(*Context).Generate":                     "ilm",
		"pie/inferlet.(*Queue).Alloc":                         "ilm",
		"pie/inferlet/compat.Launch":                          "ilm",
		"pie/api.All[go.shape.struct {}]":                     "ilm",
		"pie.(*Engine).Launch":                                "ilm",
		"pie/internal/cluster.(*Cluster).pickAffinity":        "cluster",
		"pie/internal/netsim.(*World).Call.func1":             "netsim",
		"pie/internal/baseline.(*hashCache).evict":            "baseline",
		"pie/internal/eval.Fig6":                              "other",
		"main.(*pieRun).agent":                                "bench",
		"runtime.mallocgc":                                    "",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "",
		"encoding/json.(*decodeState).object":                 "",
		"slices.Sort[go.shape.[]pie/api.KvPage,go.shape.int]": "",
	}
	for fn, want := range cases {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeChargesInnermostLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Runtime work on behalf of the scheduler is the scheduler's.
		{[]string{"runtime.mallocgc", "runtime.growslice", "pie/internal/core.(*Scheduler).add", "pie/internal/sim.(*Clock).Run"}, "core"},
		// The benchmark's inferlet calling into support: support is innermost.
		{[]string{"pie/support.(*Context).extend", "main.(*pieRun).chat", "pie/internal/ilm.run"}, "ilm"},
		// Time in the benchmark's own code is the benchmark's.
		{[]string{"encoding/json.Unmarshal", "main.(*pieRun).agent", "pie/internal/ilm.run"}, "bench"},
		// No frame of this module or the benchmark: runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// rawDump is a trimmed `go tool pprof -raw` dump: location 3 carries an
// inlined frame on a continuation line.
const rawDump = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2
          1   10000000: 3 2
          1   10000000: 4
Locations
     1: 0x4c00b1 M=1 pie/internal/sim.(*Clock).dispatch /src/sim/clock.go:325:0 s=321
     2: 0x4df884 M=1 main.main /src/main.go:18:0 s=16
     3: 0x4c00c1 M=1 runtime.memmove /src/runtime/memmove.s:1:0 s=1
             pie/internal/core.(*tieredPool).unpin /src/core/offload.go:93:0 s=63
     4: 0x4d0000 M=1 runtime.gcBgMarkWorker /src/runtime/mgc.go:1:0 s=1
Mappings
1: 0x400000/0x600000/0x0 /bin/servebench
`

func TestParseRawAndShares(t *testing.T) {
	samples, err := parseRaw(strings.NewReader(rawDump))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if got := samples[1].stack; !slices.Equal(got, []string{"runtime.memmove", "pie/internal/core.(*tieredPool).unpin", "main.main"}) {
		t.Fatalf("inlined stack = %v", got)
	}
	sh := layerShares(samples)
	want := map[string]float64{"sim": 0.5, "core": 0.25, "runtime": 0.25}
	total := 0.0
	for _, l := range layers {
		total += sh[l]
		if math.Abs(sh[l]-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, sh[l], want[l])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1
	}
	if p := percentile(xs, .5); p != 500 {
		t.Errorf("p50 = %v, want 500", p)
	}
	if p := percentile(xs, .99); p != 990 {
		t.Errorf("p99 = %v, want 990", p)
	}
	if p := percentile([]float64{7}, .99); p != 7 {
		t.Errorf("single-sample p99 = %v", p)
	}
	if p := percentile(nil, .5); p != 0 {
		t.Errorf("empty p50 = %v", p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// leg builds n measured outcomes due every 10ms, each with the given TTFT,
// mean token gap (over 4 gaps) and latency.
func leg(n int, ttft, gap, lat func(i int) time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * 10 * time.Millisecond
		outs[i] = outcome{
			due: due, firstSeen: due + ttft(i), done: due + lat(i),
			gapSum: 4 * gap(i), gaps: 4, tokens: 5, want: 5, measured: true,
		}
	}
	return outs
}

func constant(d time.Duration) func(int) time.Duration { return func(int) time.Duration { return d } }

func TestGoodputCountsMissesAndFailures(t *testing.T) {
	s := slo{TTFT: 100 * time.Millisecond, ITL: 20 * time.Millisecond}
	outs := leg(100, func(i int) time.Duration {
		if i%10 == 0 {
			return 150 * time.Millisecond // TTFT miss
		}
		return 50 * time.Millisecond
	}, func(i int) time.Duration {
		if i%10 == 1 {
			return 30 * time.Millisecond // ITL miss
		}
		return 10 * time.Millisecond
	}, constant(200*time.Millisecond))
	outs[2].err = errShort // a failure is a miss, and no sample
	outs[3].measured = false
	l := summarize(100, outs, nil, s)
	if l.attempted != 99 {
		t.Fatalf("attempted %d, want 99", l.attempted)
	}
	if l.good != 99-1-10-10 {
		t.Errorf("good = %d, want %d", l.good, 99-1-10-10)
	}
	if len(l.ttft) != 98 || len(l.latency) != 98 {
		t.Errorf("samples ttft=%d latency=%d, want 98", len(l.ttft), len(l.latency))
	}
	// Window: first to last measured arrival (0 to 990 ms).
	if math.Abs(l.window-0.99) > 1e-9 {
		t.Errorf("window = %v s, want 0.99", l.window)
	}
	if got := float64(l.good) / l.window; math.Abs(got-78/0.99) > 1e-9 {
		t.Errorf("goodput = %v", got)
	}
	if l.sustained() {
		t.Errorf("share %.3f sustained at 0.9", l.sloShare())
	}
}

func TestMaxRatePicksHighestSustainedRate(t *testing.T) {
	s := slo{TTFT: 100 * time.Millisecond, ITL: 20 * time.Millisecond}
	ok := leg(100, constant(50*time.Millisecond), constant(10*time.Millisecond), constant(300*time.Millisecond))
	slow := leg(100, constant(150*time.Millisecond), constant(10*time.Millisecond), constant(300*time.Millisecond))
	// Meets the SLO, but latency grows with every arrival: a backlog.
	growing := leg(100, constant(50*time.Millisecond), constant(10*time.Millisecond),
		func(i int) time.Duration { return time.Duration(100+20*i) * time.Millisecond })
	if !backlogGrew(growing) || backlogGrew(ok) {
		t.Fatalf("backlog detection: growing=%v steady=%v", backlogGrew(growing), backlogGrew(ok))
	}
	legs := []*legSummary{summarize(100, ok, nil, s), summarize(200, ok, nil, s), summarize(300, slow, nil, s)}
	if r := maxRate(legs); r != 200 {
		t.Errorf("max rate = %v, want 200", r)
	}
	legs[1] = summarize(200, growing, nil, s)
	if r := maxRate(legs); r != 100 {
		t.Errorf("max rate with a growing backlog at 200 = %v, want 100", r)
	}
	if r := maxRate(legs[2:]); r != 0 {
		t.Errorf("max rate with no sustained leg = %v, want 0", r)
	}
	m := merge(legs[:2])
	if m.attempted != 200 || len(m.ttft) != 200 || !m.backlog {
		t.Errorf("merge: attempted %d samples %d backlog %v", m.attempted, len(m.ttft), m.backlog)
	}
}

// TestTallyCountsRelaunchedAttempts checks that reclaimed attempts a
// client relaunched are tallied by typed error and in the leg's failure
// counters, while only requests that finally failed count as failed.
func TestTallyCountsRelaunchedAttempts(t *testing.T) {
	w := *workloads["kv-full"]
	l := &legResult{in: &inputs{rate: 10}, layer: map[string]float64{}, outs: []outcome{
		{due: 1, done: 2, measured: true},
		{due: 1, done: 2, measured: true},
		{due: 1, done: 2, measured: true, err: api.ErrOutOfResources},
		{due: 1, done: 2},
	}, retried: []error{api.ErrTerminated, fmt.Errorf("wrapped: %w", api.ErrTerminated)}}
	tl := &tally{failures: map[string]int{}, firstErr: map[string]string{}, phases: map[string][3]int{}}
	tl.add(&w, []*legResult{l}, nil)
	if tl.attempted != 4 || tl.failed != 1 || tl.retried != 2 {
		t.Errorf("attempted %d failed %d retried %d, want 4, 1, 2", tl.attempted, tl.failed, tl.retried)
	}
	if tl.failures["reclaimed"] != 2 || tl.failures["pool_exhausted"] != 1 {
		t.Errorf("failures by error: %v", tl.failures)
	}
	if got := l.layer["fail_frac"]; got != 3.0/6 {
		t.Errorf("fail_frac = %v, want 0.5 (3 failed of 6 attempts)", got)
	}
	if l.layer["core.fail_reclaimed"] != 2 || l.layer["core.fail_pool_exhausted"] != 1 {
		t.Errorf("leg counters: %v", l.layer)
	}
	if c := tl.phases["measure@10/s"]; c != [3]int{3, 2, 1} {
		t.Errorf("measured phase sent/succeeded/failed = %v", c)
	}
}

func TestTracingOffAllocatesNothing(t *testing.T) {
	var tr *tracer
	allocs := testing.AllocsPerRun(100, func() {
		i := tr.virt(spRequest, 1, 2, -1, 0)
		tr.end(i, 3)
		tr.phase(spRun, processStart, processStart)
	})
	if allocs != 0 {
		t.Errorf("untraced span calls allocate %v times", allocs)
	}
	if tr.durations(spRequest) != nil {
		t.Error("nil tracer returned spans")
	}
}

func TestInputsAreSeededAndInVocabulary(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7, 1, 0), generate(w, 7, 1, 0)
		c := generate(w, 8, 1, 0)
		if sigInputs(a) != sigInputs(b) {
			t.Errorf("%s: same seed drew different inputs", w.name)
		}
		if sigInputs(a) == sigInputs(c) {
			t.Errorf("%s: different seeds drew the same inputs", w.name)
		}
		for _, r := range a.reqs {
			toks := slices.Clone(r.prompt)
			for _, s := range r.steps {
				toks = append(toks, s.obs...)
			}
			for _, tok := range toks {
				if tok < specialTokens || tok >= vocab {
					t.Fatalf("%s: token %d outside [%d, %d)", w.name, tok, specialTokens, vocab)
				}
			}
		}
	}
}

func sigInputs(in *inputs) string {
	var b strings.Builder
	for _, r := range in.reqs {
		b.WriteString(r.due.String())
		for _, t := range r.prompt {
			b.WriteByte(byte(t))
		}
	}
	return b.String()
}

// TestSmokeEveryWorkload runs a short leg of each workload twice, traced
// and untraced: every request completes with its token count, the engine
// is clean at quiescence, the traced leg carries the expected spans, and
// tracing leaves the virtual-time outcome unchanged.
func TestSmokeEveryWorkload(t *testing.T) {
	for name, full := range workloads {
		t.Run(name, func(t *testing.T) {
			w := *full
			w.n, w.warm = 40, 5
			plain := runLeg(&w, 3, 0, w.report, nil)
			traced := runLeg(&w, 3, 0, w.report, &tracer{})
			for _, l := range []*legResult{plain, traced} {
				if l.runErr != nil || len(l.checks) > 0 {
					t.Fatalf("run error %v, checks %v", l.runErr, l.checks)
				}
				for i := range l.outs {
					if o := &l.outs[i]; !o.ok() || o.tokens != o.want || o.firstSeen <= o.due {
						t.Fatalf("request %d: err %v, tokens %d of %d, first %v due %v", i, o.err, o.tokens, o.want, o.firstSeen, o.due)
					}
				}
			}
			if plain.tr != nil {
				t.Error("untraced leg holds a tracer")
			}
			want := []spanName{spRequest, spEngineRequest, spTool}
			if !w.vllm {
				want = []spanName{spRequest, spForward, spILMStart, spCtlOpen, spCtlClose}
			}
			if w.kind == kindAgent && !w.vllm {
				want = append(want, spTool, spCtlExport, spCtlImport)
			}
			for _, n := range want {
				if len(traced.tr.durations(n)) == 0 {
					t.Errorf("traced leg has no %q span", n)
				}
			}
			if signature(&w, plain) != signature(&w, traced) {
				t.Errorf("tracing changed the virtual outcome:\n%s\n%s", signature(&w, plain), signature(&w, traced))
			}
		})
	}
}

// TestReportMatchesBenchmarkJSON checks that both report modes print
// exactly the metrics BENCHMARK.json declares, with the same units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := *workloads["chat-sweep"]
	w.n, w.warm, w.passes = 30, 5, 1
	measured := [][]*legResult{runPass(&w, 1, 0, false)}
	traced := runPass(&w, 1, 0, true)
	tl := &tally{failures: map[string]int{}, firstErr: map[string]string{}, phases: map[string][3]int{}}
	tl.add(&w, measured[0], nil)
	tl.add(&w, traced, measured[0])

	e2e := &report{Metrics: map[string]metric{}}
	endToEnd(&w, e2e, tl, measured, 1)
	layer := &report{Attempted: tl.attempted, Metrics: map[string]metric{}}
	perLayer(&w, layer, tl, measured, traced, map[string]float64{}, 0, 0)
	for _, c := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{e2e.Metrics, spec.EndToEnd}, {layer.Metrics, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("report has %d metrics, BENCHMARK.json declares %d", len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if g, ok := c.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: reported %+v (present %v), declared unit %q", m.Name, g, ok, m.Unit)
			}
		}
	}
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name spanName) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// TestKnownDefectReclaimDeadlocks pins known defect 6 (README.md): under
// KV pressure that makes the FCFS policy reclaim sessions, the engine
// fails forwards silently and then hangs a session, so Engine.Run reports
// a sim deadlock. kv-full runs below that pressure for this reason. When
// this test fails, the defect is fixed and kv-full can move to this
// sizing.
func TestKnownDefectReclaimDeadlocks(t *testing.T) {
	w := *workloads["kv-full"]
	w.rates = []float64{30}
	w.kv = kvSizing{pages: 64, hostRatio: 1.5, prompt: [2]int{64, 112}}
	l := runLeg(&w, 3, 6, 0, nil)
	if len(l.retried) == 0 {
		t.Fatal("no session was reclaimed: the sizing no longer reaches the reclaim path")
	}
	if l.runErr == nil || !strings.Contains(l.runErr.Error(), "deadlock") {
		t.Fatalf("Engine.Run = %v, want the known sim deadlock", l.runErr)
	}
}

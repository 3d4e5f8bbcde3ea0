// Command servebench is the serving benchmark of record: it drives one
// open-loop workload against Pie (or the baseline vLLM engine), checks
// every output, and prints each end-to-end metric — or, with --trace 1,
// each per-layer metric — by name and unit. The last line of standard
// output is one JSON object.
//
//	go run . --workload chat-sweep --seed 1 --seconds 10 --trace 0
//
// Latency, throughput and goodput metrics are read from the simulated
// (virtual) clock; setup, host throughput and memory from the host clock.
// See README.md for the workloads, the metric map and the known defects.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"pie/api"
)

var processStart = time.Now()

func main() {
	name := flag.String("workload", "", "workload: chat-sweep, agent-prefix, kv-full or agent-vllm")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced leg and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "servebench"), "directory for spans and the CPU profile of a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLeg dispatches one leg to its engine. Returning the previous leg's
// garbage to the OS first keeps it out of this leg's host timings.
func runLeg(w *workload, seed uint64, pass, rate int, tr *tracer) *legResult {
	in := generate(w, seed, pass, rate)
	debug.FreeOSMemory()
	if w.vllm {
		return runVLLMLeg(w, in, tr)
	}
	return runPieLeg(w, in, seed, tr)
}

// setupSamples is how many extra engines a run builds and registers,
// timed but never run, so that setup_s is a median of many samples even
// where only a few legs fit in a run. They are built after every timed
// pass: unrun engines are never collected either (known defect 3), and
// the heap they hold would slow the passes' garbage collection.
const setupSamples = 16

// setupOnly builds and registers one engine of the workload's leg and
// returns the (unrun) leg with its setup timings.
func setupOnly(w *workload, seed uint64) *legResult {
	in := &inputs{rate: w.rates[0]}
	debug.FreeOSMemory()
	if w.vllm {
		return setupVLLM(w, in, nil).res
	}
	return setupPie(w, in, seed, nil).res
}

// addSetups times setupSamples extra engine builds.
func (t *tally) addSetups(w *workload, seed uint64) {
	for range setupSamples {
		l := setupOnly(w, seed)
		t.checks = append(t.checks, l.checks...)
		t.addSetup(l)
	}
}

func (t *tally) addSetup(l *legResult) {
	t.setup = append(t.setup, float64(l.setupNS)/1e9)
	t.eng = append(t.eng, float64(l.engNS)/1e6)
	t.reg = append(t.reg, float64(l.regNS)/1e6)
}

// runPass runs every rate of the workload once on input draw `pass`.
func runPass(w *workload, seed uint64, pass int, traced bool) []*legResult {
	legs := make([]*legResult, len(w.rates))
	for ri := range w.rates {
		var tr *tracer
		if traced {
			tr = &tracer{pass: pass}
		}
		legs[ri] = runLeg(w, seed, pass, ri, tr)
	}
	return legs
}

// signature is a leg's virtual-time outcome; equal inputs on a
// deterministic engine give equal signatures.
func signature(w *workload, l *legResult) string {
	s := summarize(l.in.rate, l.outs, l.itl, w.slo)
	return fmt.Sprintf("ttft=%v/%v itl=%v/%v lat=%v/%v good=%d tok=%d win=%v events=%v",
		percentile(s.ttft, .5), percentile(s.ttft, .99), percentile(s.itl, .5), percentile(s.itl, .99),
		percentile(s.latency, .5), percentile(s.latency, .99), s.good, s.tokens, s.window, l.layer["sim.events"])
}

// tally accumulates what every leg of a run reports, so repeat legs can be
// dropped as soon as they are counted.
type tally struct {
	attempted, failed int
	retried           int               // attempts the client relaunched
	failures          map[string]int    // failed attempts by typed error
	firstErr          map[string]string // the first error of each kind
	phases            map[string][3]int // sent, succeeded, failed
	checks            []string
	diverged          []string
	setup, eng, reg   []float64 // host seconds, ms, ms per engine built
	passRPS           []float64 // completed requests per host second, per pass
	lag               time.Duration
	fwdTokens         float64
}

// add counts one pass and compares it with its measured twin, if any.
func (t *tally) add(w *workload, legs, twin []*legResult) {
	done, runNS := 0, int64(0)
	for ri, l := range legs {
		if l.runErr != nil {
			t.checks = append(t.checks, "engine run: "+l.runErr.Error())
		}
		t.checks = append(t.checks, l.checks...)
		// Every attempt's failure is tallied by typed error, the relaunched
		// ones as well as those the request finally failed with.
		byErr := map[string]int{}
		count := func(err error) {
			kind := errName(err)
			byErr[kind]++
			if t.failures[kind]++; t.firstErr[kind] == "" {
				t.firstErr[kind] = fmt.Sprint(err)
			}
		}
		for _, err := range l.retried {
			count(err)
		}
		t.retried += len(l.retried)
		if twin != nil {
			if a, b := signature(w, twin[ri]), signature(w, l); a != b {
				t.diverged = append(t.diverged, fmt.Sprintf("rate %g: %s vs %s", w.rates[ri], a, b))
			}
		}
		for i := range l.outs {
			o := &l.outs[i]
			ph := fmt.Sprintf("measure@%g/s", l.in.rate)
			if !o.measured {
				ph = "warmup"
			}
			c := t.phases[ph]
			c[0]++
			t.attempted++
			if o.ok() {
				c[1]++
				done++
			} else {
				c[2]++
				t.failed++
				count(o.err)
			}
			t.phases[ph] = c
		}
		failedAttempts := 0
		for _, n := range byErr {
			failedAttempts += n
		}
		l.layer["fail_frac"] = ratio(failedAttempts, len(l.outs)+len(l.retried))
		l.layer["core.fail_reclaimed"] = float64(byErr["reclaimed"])
		l.layer["core.fail_pool_exhausted"] = float64(byErr["pool_exhausted"])
		runNS += l.runNS
		t.addSetup(l)
		t.lag = max(t.lag, l.lag)
		t.fwdTokens += l.layer["model.forward_tokens"]
	}
	t.passRPS = append(t.passRPS, float64(done)/(float64(runNS)/1e9))
}

// run measures workload w: `passes` measured passes (independent input
// draws, pooled for the virtual-time metrics), then repeat passes of the
// same draws until the run has lasted `dur`; each repeat is compared with
// its measured twin (determinism) and timed (host metrics). A traced run
// repeats the draws traced, under a CPU profile, and reports per-layer
// metrics instead.
func run(w *workload, seed uint64, dur time.Duration, traced bool, outDir string) (*report, error) {
	start := time.Now()
	t := &tally{failures: map[string]int{}, firstErr: map[string]string{}, phases: map[string][3]int{}}
	measured := make([][]*legResult, w.passes)
	if !traced {
		for p := range measured {
			measured[p] = runPass(w, seed, p, false)
			t.add(w, measured[p], nil)
		}
		// Engines are never collected once they finish (see README), so
		// the process grows with every leg: read the peak over the fixed
		// set of measured legs, not over however many repeats fit.
		rss := peakRSSMB()
		for k := 0; k == 0 || time.Since(start) < dur; k++ {
			t.add(w, runPass(w, seed, k%w.passes, false), measured[k%w.passes])
		}
		t.addSetups(w, seed)
		rep := t.verdict()
		endToEnd(w, rep, t, measured, rss)
		return rep, nil
	}

	// Traced: each draw runs untraced, then traced, under one CPU profile;
	// the pairs give the tracing overhead, and the first traced repetition
	// is kept for its spans.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var tracedLegs []*legResult
	var tracedNS, plainNS int64
	for k := 0; k < w.passes || time.Since(start) < dur; k++ {
		p := k % w.passes
		plain := runPass(w, seed, p, false)
		t.add(w, plain, measured[p])
		if measured[p] == nil {
			measured[p] = plain
		}
		legs := runPass(w, seed, p, true)
		t.add(w, legs, measured[p])
		if k < w.passes {
			tracedLegs = append(tracedLegs, legs...)
		}
		for i := range legs {
			tracedNS += legs[i].runNS
			plainNS += plain[i].runNS
		}
	}
	pprof.StopCPUProfile()
	t.addSetups(w, seed)
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := writeSpans(base+".spans.jsonl", tracedLegs); err != nil {
		return nil, err
	}
	cpu, cpuSec, err := profileLayers(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	rep := t.verdict()
	perLayer(w, rep, t, measured, tracedLegs, cpu, cpuSec, float64(tracedNS)/float64(plainNS)-1)
	return rep, nil
}

// verdict prints the per-phase counts, failures and the determinism
// result, and returns the report with its correctness decided.
func (t *tally) verdict() *report {
	rep := &report{Correct: true, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	var keys []string
	for k := range t.phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := t.phases[k]
		fmt.Printf("phase %-16s sent=%d succeeded=%d failed=%d\n", k, c[0], c[1], c[2])
	}
	if len(t.failures) > 0 {
		fmt.Printf("failed attempts by error: %v (%d relaunched); first of each: %q\n", t.failures, t.retried, t.firstErr)
	}
	checks := t.checks
	if len(t.diverged) > 0 {
		checks = append(checks, fmt.Sprintf("%d same-seed leg(s) diverged; first: %s", len(t.diverged), t.diverged[0]))
	} else {
		fmt.Printf("determinism: every repeated leg matched its twin exactly\n")
	}
	if len(checks) > 0 {
		rep.Correct = false
		for _, c := range dedupe(checks) {
			fmt.Println("check failed:", c)
		}
	}
	return rep
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// errName tallies a failure under its typed error.
func errName(err error) string {
	for _, e := range []struct {
		err  error
		name string
	}{
		{api.ErrTerminated, "reclaimed"},
		{api.ErrOutOfResources, "pool_exhausted"},
		{api.ErrOverloaded, "shed"},
		{api.ErrAborted, "aborted"},
		{api.ErrDeadlineExceeded, "deadline"},
		{api.ErrReplicaLost, "replica_lost"},
		{errShort, "wrong_token_count"},
		{errAborted, "baseline_aborted"},
	} {
		if errors.Is(err, e.err) {
			return e.name
		}
	}
	if err == nil {
		return "unfinished"
	}
	return "other"
}

// reportLegs pools the measured legs at the workload's reporting rate.
func reportLegs(w *workload, measured [][]*legResult, ri int) *legSummary {
	var s []*legSummary
	for _, legs := range measured {
		l := legs[ri]
		s = append(s, summarize(l.in.rate, l.outs, l.itl, w.slo))
	}
	return merge(s)
}

func endToEnd(w *workload, rep *report, t *tally, measured [][]*legResult, rss float64) {
	m := rep.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	var legs []*legSummary
	for ri := range w.rates {
		legs = append(legs, reportLegs(w, measured, ri))
	}
	s := legs[w.report]
	for _, l := range legs {
		fmt.Printf("rate %6g/s: slo share %.3f, backlog grew %v, %d measured samples, ttft p50/p99 %.1f/%.1f ms, itl p50/p99 %.1f/%.1f ms\n",
			l.rate, l.sloShare(), l.backlog, l.attempted, percentile(l.ttft, .5), percentile(l.ttft, .99), percentile(l.itl, .5), percentile(l.itl, .99))
	}
	put("ttft_p50_ms", "ms", percentile(s.ttft, .5))
	put("ttft_p99_ms", "ms", percentile(s.ttft, .99))
	put("itl_p50_ms", "ms", percentile(s.itl, .5))
	put("itl_p99_ms", "ms", percentile(s.itl, .99))
	put("latency_p50_ms", "ms", percentile(s.latency, .5))
	put("latency_p99_ms", "ms", percentile(s.latency, .99))
	put("goodput_rps", "1/s", float64(s.good)/s.window)
	put("max_rate_rps", "1/s", maxRate(legs))
	put("tokens_per_s", "1/s", float64(s.tokens)/s.window)
	put("setup_s", "s", median(t.setup))
	// Other tenants of the machine only ever slow a pass down, so the
	// fastest pass is the steadiest estimate of the program's own speed.
	put("host_rps", "1/s", slices.Max(t.passRPS))
	put("peak_rss_mb", "MB", rss)
	fmt.Printf("samples: ttft=%d itl=%d latency=%d (virtual clock); setup=%d host_rps=%d passes (host clock)\n",
		len(s.ttft), len(s.itl), len(s.latency), len(t.setup), len(t.passRPS))
}

func perLayer(w *workload, rep *report, t *tally, measured [][]*legResult, traced []*legResult,
	cpu map[string]float64, cpuSec, overhead float64) {
	m := rep.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// Counters and spans come from the traced legs at the reporting rate,
	// averaged over passes.
	var rl []*legResult
	for i, l := range traced {
		if i%len(w.rates) == w.report {
			rl = append(rl, l)
		}
	}
	mean := func(key string) float64 {
		var s float64
		for _, l := range rl {
			s += l.layer[key]
		}
		return s / float64(len(rl))
	}
	spans := func(match func(spanName) bool, unit time.Duration) []float64 {
		var out []float64
		for _, l := range rl {
			for _, s := range l.tr.spans {
				if match(s.name) {
					out = append(out, float64(s.end-s.start)/float64(unit))
				}
			}
		}
		return out
	}
	is := func(n spanName) func(spanName) bool { return func(m spanName) bool { return m == n } }
	for _, k := range []string{"sim.events", "core.batches", "core.batch_size_mean", "core.batch_size_max",
		"core.kv_peak_pages", "core.swap_in_pages", "core.swap_out_pages", "core.swap_ms",
		"core.artifact_hit_ratio", "ilm.cold_launches", "inferlet.calls_per_req",
		"cluster.prefix_hit_ratio", "cluster.placement_imbalance", "cluster.sheds", "netsim.tool_calls",
		"gpu.kernels", "gpu.busy_frac", "model.forward_tokens",
		"baseline.steps", "baseline.preemptions", "baseline.cache_hit_frac",
		"fail_frac", "core.fail_reclaimed", "core.fail_pool_exhausted"} {
		put(k, unitOf(k), mean(k))
	}
	fwd := spans(is(spForward), time.Millisecond)
	put("core.forward_ms_p50", "ms", percentile(fwd, .5))
	put("core.forward_ms_p99", "ms", percentile(fwd, .99))
	ctl := spans(spanName.control, time.Microsecond)
	put("inferlet.control_us_p50", "us", percentile(ctl, .5))
	put("inferlet.control_us_p99", "us", percentile(ctl, .99))
	put("ilm.start_ms_p50", "ms", percentile(spans(is(spILMStart), time.Millisecond), .5))

	// Host cost of the untraced measured legs at the reporting rate.
	var runNS, mallocs int64
	var events, gcs float64
	reqs := 0
	for _, legs := range measured {
		l := legs[w.report]
		runNS += l.runNS
		mallocs += int64(l.mallocs)
		gcs += float64(l.gcs)
		events += l.layer["sim.events"]
		reqs += len(l.outs)
	}
	put("sim.host_ns_per_event", "ns", float64(runNS)/events)
	put("runtime.alloc_bytes_per_req", "B", float64(mallocs)/float64(reqs))
	put("runtime.gc_cycles", "count", gcs/float64(len(measured)))
	for _, l := range layers {
		put(l+".cpu_frac", "ratio", cpu[l])
	}
	perTok := 0.0
	if t.fwdTokens > 0 { // the profile covers every leg of the run
		perTok = cpu["model"] * cpuSec * 1e6 / t.fwdTokens
	}
	put("model.host_us_per_token", "us", perTok)
	put("setup.engine_ms", "ms", median(t.eng))
	put("setup.register_ms", "ms", median(t.reg))
	put("gen.lag_ms_max", "ms", ms(t.lag))

	put("trace.overhead_frac", "ratio", overhead)
}

// unitOf names the unit of a per-layer counter.
func unitOf(k string) string {
	switch {
	case strings.HasSuffix(k, "_ms"):
		return "ms"
	case strings.HasSuffix(k, "_pages"):
		return "pages"
	case strings.HasSuffix(k, "_ratio"), strings.HasSuffix(k, "_frac"), strings.HasSuffix(k, "_imbalance"):
		return "ratio"
	case strings.HasSuffix(k, "_mean"), strings.HasSuffix(k, "_max"), strings.HasSuffix(k, "_per_req"):
		return "calls"
	case strings.HasSuffix(k, "_tokens"):
		return "tokens"
	}
	return "count"
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// peakRSSMB is the process's peak resident set (getrusage, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

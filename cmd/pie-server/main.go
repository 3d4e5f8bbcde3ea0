// Command pie-server exposes a Pie engine over HTTP, mirroring the
// paper's ILM front end: clients upload nothing (programs are registered
// at startup) but can launch inferlets, exchange messages with them,
// stream their output, and inspect engine stats. The virtual clock runs
// in external mode: real HTTP requests inject work, simulated time
// advances instantly between them, and responses report virtual timings.
//
// The HTTP surface is versioned under /v1/ with structured JSON errors
// ({"error":{"code","message"}}); the original unversioned paths remain
// as deprecated aliases. Completed runs are evicted from the handle table
// by /v1/wait and /v1/close, so long-lived servers do not accumulate
// finished runs.
//
// Cluster mode fronts N backend replicas behind the placement router:
//
//	pie-server -addr :8080
//	pie-server -replicas 4 -placement kv-affinity
//	pie-server -replicas 1 -autoscale-max 8 -placement least
//	curl -X POST 'localhost:8080/v1/launch?program=text_completion' \
//	     -d '{"prompt":"Hello, ","max_tokens":8}'
//	curl 'localhost:8080/v1/recv?id=1'
//	curl -N 'localhost:8080/v1/stream?id=1'   # SSE message stream
//	curl 'localhost:8080/v1/wait?id=1'        # waits, reports, evicts
//	curl 'localhost:8080/v1/stats'            # engine + per-replica stats
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/cluster"
	"pie/internal/core"
	"pie/internal/fleet"
	"pie/internal/metrics"
)

type server struct {
	engine *pie.Engine
	mu     sync.Mutex
	nextID int
	runs   map[int]*pie.Handle
}

// newEngine assembles the serving engine exactly as main runs it: every
// app registered, tool services installed, external clock enabled, and the
// event loop running. Tests drive the same path.
func newEngine(cfg pie.Config) *pie.Engine {
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)
	e.RegisterTool("search.api", 40*time.Millisecond, func(string) string { return "search results" })
	e.RegisterTool("code.exec", 80*time.Millisecond, func(string) string { return "exit 0" })
	e.RegisterTool("fn.api", 30*time.Millisecond, func(string) string { return "ok" })
	e.Clock().EnableExternal()
	go func() {
		if err := e.Run(); err != nil {
			log.Printf("engine: %v", err)
		}
	}()
	return e
}

func newServer(e *pie.Engine) *server {
	return &server{engine: e, runs: make(map[int]*pie.Handle)}
}

// mux routes the HTTP API: versioned paths first, then the legacy
// unversioned aliases (deprecated; they answer with a Deprecation header).
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"/launch":   s.launch,
		"/send":     s.send,
		"/recv":     s.recv,
		"/wait":     s.wait,
		"/close":    s.close,
		"/abort":    s.abort,
		"/stream":   s.stream,
		"/stats":    s.stats,
		"/programs": s.programs,
		"/fleet":    s.fleet,
	}
	for path, h := range routes {
		mux.HandleFunc("/v1"+path, h)
		mux.HandleFunc(path, deprecated("/v1"+path, h))
	}
	return mux
}

// deprecated wraps a handler for a legacy alias path.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// serverOptions is everything buildConfig decides: the engine config plus
// the server-level knobs (listen address, fleet-manifest path, validate
// mode).
type serverOptions struct {
	Addr       string
	Cfg        pie.Config
	ConfigPath string // fleet manifest the engine was built from ("" = flags only)
	Validate   bool   // parse/validate the manifest and exit
}

// topologyFlags shape the replica fleet. With -config, topology belongs
// to the manifest; setting any of these explicitly alongside it is a
// conflict, not an override.
var topologyFlags = []string{
	"replicas", "variants", "roles", "classes",
	"scaler-max", "scaler-min", "scale-to-zero",
	"autoscale-max", "autoscale-min",
}

// buildConfig defines the CLI surface on fs, parses args, and assembles
// the engine config. Split from main so tests can drive the same flag
// wiring (notably the fault-injection, health, shedding, and retry knobs)
// without exec'ing the binary.
//
// Precedence with -config: the manifest is the base, and only flags
// explicitly present on the command line override it — a flag left at
// its default does not (fs.Visit distinguishes the two). Topology flags
// conflict with -config outright (topologyFlags above).
func buildConfig(fs *flag.FlagSet, args []string) (serverOptions, error) {
	fail := func(err error) (serverOptions, error) { return serverOptions{}, err }
	addrFlag := fs.String("addr", ":8080", "listen address")
	configPath := fs.String("config", "", "fleet manifest path (declarative pools, pins, policies); explicitly set flags override manifest values, defaults do not")
	validate := fs.Bool("validate", false, "with -config: parse and validate the manifest, report, and exit")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	replicas := fs.Int("replicas", 1, "backend replicas behind the cluster router")
	placement := fs.String("placement", "round-robin", "placement policy: round-robin | least-outstanding-tokens | kv-affinity | program-affinity")
	autoMax := fs.Int("autoscale-max", 0, "enable the autoscaler with this max replica bound (0 disables)")
	autoMin := fs.Int("autoscale-min", 1, "autoscaler min replica bound")
	classes := fs.String("classes", "", "service-class registry, e.g. 'interactive:ttft=250ms,itl=50ms,prio=10;batch:degradable' (empty: no classes)")
	variants := fs.String("variants", "", "heterogeneous replica pool, e.g. 'l4:cost=1,count=4;l4e:cost=0.6,slow=1.4' (empty: homogeneous)")
	roles := fs.String("roles", "", "prefill/decode disaggregated pool, e.g. 'prefill:count=2;decode' (empty: unified)")
	handoffBudget := fs.Int("handoff-budget", 0, "max concurrent prefill->decode KV transfers (0: default)")
	scalerMax := fs.Int("scaler-max", 0, "enable the SLO scaler with this max replica bound (0 disables; supersedes -autoscale-max)")
	scalerMin := fs.Int("scaler-min", 1, "SLO scaler min replica bound")
	scaleToZero := fs.Bool("scale-to-zero", false, "let the SLO scaler drain an idle fleet to zero replicas")
	hostKV := fs.Float64("host-kv-ratio", 0, "host-memory KV tier size as a multiple of device page capacity (0 disables offload)")
	kvEvict := fs.String("kv-evict", "lru", "KV offload eviction policy: lru | priority")
	artCache := fs.Int64("artifact-cache", 0, "per-replica warm-artifact cache capacity in bytes (0: device default, <0: unbounded)")
	healthEvery := fs.Duration("health-interval", 0, "replica health-check interval (0 disables the health monitor)")
	hangTimeout := fs.Duration("hang-timeout", 0, "declare a silent replica dead after this much virtual time without progress (0: default)")
	shedWatermark := fs.Float64("shed-watermark", 0, "shed best-effort launches above this cluster KV utilization (0 disables shedding)")
	shedQueue := fs.Float64("shed-queue", 0, "shed best-effort launches above this mean per-replica queue depth (0: default)")
	faultPlan := fs.String("fault-plan", "", "injected fault schedule, e.g. 'crash:1@200ms,hang:2@300ms,slow:3@100ms*4'")
	faultRate := fs.Float64("fault-rate", 0, "per-launch transient fault probability (0 disables)")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for the transient-fault stream (default: -seed)")
	retryAttempts := fs.Int("retry-attempts", 0, "default launch retry attempts, including the first (<=1 disables retries)")
	retryBudget := fs.Duration("retry-budget", 0, "default cumulative backoff budget per launch (0: unlimited)")
	if err := fs.Parse(args); err != nil {
		return fail(err)
	}

	// Which flags the command line actually set: the precedence boundary.
	// Explicitly set flags override the manifest; defaults never do.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var cfg pie.Config
	fromManifest := *configPath != ""
	if fromManifest {
		for _, name := range topologyFlags {
			if set[name] {
				return fail(fmt.Errorf("-%s conflicts with -config: declare fleet topology in the manifest", name))
			}
		}
		m, err := fleet.ParseFile(*configPath)
		if err != nil {
			return fail(err)
		}
		cfg, err = pie.ConfigFromManifest(m)
		if err != nil {
			return fail(err)
		}
	}
	// useFlag: apply the flag's value when it may speak — always without a
	// manifest, only when explicitly set with one.
	useFlag := func(name string) bool { return !fromManifest || set[name] }

	if useFlag("seed") {
		cfg.Seed = *seed
	}
	if useFlag("placement") {
		pol, err := cluster.ParsePlacement(*placement)
		if err != nil {
			return fail(err)
		}
		cfg.Placement = pol
	}
	if useFlag("host-kv-ratio") {
		cfg.HostKVRatio = *hostKV
	}
	if useFlag("kv-evict") {
		evict, err := core.ParseEviction(*kvEvict)
		if err != nil {
			return fail(err)
		}
		cfg.KVEviction = evict
	}
	cfg.ArtifactCacheBytes = *artCache
	if !fromManifest {
		cfg.Replicas = *replicas
		if *autoMax > 0 {
			cfg.Autoscale = pie.AutoscaleConfig{Enabled: true, Min: *autoMin, Max: *autoMax}
		}
		if *classes != "" {
			var err error
			cfg.Classes, err = pie.ParseServiceClasses(*classes)
			if err != nil {
				return fail(err)
			}
		}
		if *variants != "" {
			var err error
			cfg.Variants, err = pie.ParseReplicaVariants(*variants)
			if err != nil {
				return fail(err)
			}
		}
		if *roles != "" {
			var err error
			cfg.Roles, err = pie.ParseRoles(*roles)
			if err != nil {
				return fail(err)
			}
			cfg.HandoffBudget = *handoffBudget
		}
		if *scalerMax > 0 {
			cfg.Scaler = pie.ScalerConfig{Enabled: true, Min: *scalerMin, Max: *scalerMax, ScaleToZero: *scaleToZero}
		}
	}
	if *healthEvery > 0 {
		cfg.Health = pie.HealthConfig{Enabled: true, Interval: *healthEvery, HangTimeout: *hangTimeout}
	}
	if *shedWatermark > 0 {
		cfg.Shed = pie.ShedConfig{Enabled: true, KVWatermark: *shedWatermark, QueueDepth: *shedQueue}
	}
	if *faultPlan != "" || *faultRate > 0 {
		plan, perr := pie.ParseFaultPlan(*faultPlan)
		if perr != nil {
			return fail(perr)
		}
		plan.CallFailRate = *faultRate
		plan.Seed = *faultSeed
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		cfg.Faults = plan
	}
	if *retryAttempts > 1 {
		cfg.DefaultRetry = pie.RetryPolicy{MaxAttempts: *retryAttempts, Budget: *retryBudget}
	}
	return serverOptions{Addr: *addrFlag, Cfg: cfg, ConfigPath: *configPath, Validate: *validate}, nil
}

func main() {
	opts, err := buildConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if opts.Validate {
		// buildConfig already parsed and validated the manifest (and
		// would have log.Fatal'd above on any typed error).
		if opts.ConfigPath == "" {
			log.Fatal("-validate requires -config")
		}
		fmt.Printf("%s: ok\n", opts.ConfigPath)
		return
	}
	s := newServer(newEngine(opts.Cfg))
	if opts.ConfigPath != "" {
		// SIGHUP re-reads the manifest and hot-applies it, the classic
		// daemon reload contract. POST /v1/fleet is the remote equivalent.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := s.reloadFleet(opts.ConfigPath); err != nil {
					log.Printf("fleet reload %s: %v", opts.ConfigPath, err)
				} else {
					log.Printf("fleet reload %s: applied", opts.ConfigPath)
				}
			}
		}()
	}
	log.Printf("pie-server listening on %s (%v)", opts.Addr, s.engine)
	log.Fatal(newHTTPServer(opts.Addr, s.mux(), headerTimeout).ListenAndServe())
}

// Slow- and hostile-client limits. A client that never finishes its
// request headers is dropped after headerTimeout; request bodies (launch
// arguments, sent messages, fleet manifests) are capped at maxBodyBytes
// and answered 413 beyond it. There is deliberately no write timeout:
// /v1/stream holds its response open for the life of a run.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
	maxBodyBytes  = 1 << 20
)

// newHTTPServer wraps h with the connection-level timeouts.
func newHTTPServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// readBody reads a request body of at most maxBodyBytes. On failure it
// has already answered: 413 body_too_large past the cap, 400 for an
// unreadable body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		return body, true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "unreadable body")
	}
	return nil, false
}

// reloadFleet re-reads the boot manifest and applies it to the running
// engine (the SIGHUP path; tests drive it directly).
func (s *server) reloadFleet(path string) error {
	m, err := fleet.ParseFile(path)
	if err != nil {
		return err
	}
	var applyErr error
	s.inject("http:fleet-reload", func() { applyErr = s.engine.ApplyFleet(m) })
	return applyErr
}

// inject runs fn as a sim process and blocks the HTTP handler until done.
func (s *server) inject(name string, fn func()) {
	done := make(chan struct{})
	s.engine.Clock().Inject(name, func() {
		defer close(done)
		fn()
	})
	<-done
}

// errCode maps an engine error to the machine-readable code used in /v1/
// error bodies, so clients can branch on failure class (retry a
// replica_lost, back off an overloaded) without parsing message text.
func errCode(err error) string {
	switch {
	case errors.Is(err, pie.ErrNoSuchProgram):
		return "no_such_program"
	case errors.Is(err, pie.ErrUnsatisfiedManifest):
		return "unsatisfied_manifest"
	case errors.Is(err, pie.ErrNoSuchClass):
		return "no_such_class"
	case errors.Is(err, pie.ErrNoDecodeCapacity):
		return "no_decode_capacity"
	case errors.Is(err, pie.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, pie.ErrRetryBudgetExhausted):
		return "retry_budget_exhausted"
	case errors.Is(err, pie.ErrReplicaLost):
		return "replica_lost"
	case errors.Is(err, pie.ErrTransientFault):
		return "transient_fault"
	case errors.Is(err, pie.ErrAborted):
		return "aborted"
	case errors.Is(err, pie.ErrDeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, pie.ErrTerminated):
		return "terminated"
	default:
		return "internal"
	}
}

// writeErr emits the structured error body shared by every endpoint.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// launchBody is the /v1/launch request: a wire-form pie.LaunchSpec. The
// legacy form (?program= query parameter, body as the single launch
// argument) keeps working — presence of the query parameter selects it.
type launchBody struct {
	Program    string   `json:"program"` // "name" or "name@version"
	Args       []string `json:"args"`
	Class      string   `json:"class"` // service class (empty: manifest default)
	Priority   int      `json:"priority"`
	DeadlineMS int64    `json:"deadline_ms"`
	ClientTag  string   `json:"client_tag"`
}

func (s *server) launch(w http.ResponseWriter, r *http.Request) {
	program := r.URL.Query().Get("program")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var spec pie.LaunchSpec
	if program != "" {
		// Legacy form: the body is the program's single JSON argument.
		spec = pie.Spec(program)
		if len(body) > 0 {
			spec.Args = []string{string(body)}
		}
	} else {
		var lb launchBody
		if err := json.Unmarshal(body, &lb); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_argument",
				"body must be a JSON launch spec (or pass ?program=)")
			return
		}
		if lb.Program == "" {
			writeErr(w, http.StatusBadRequest, "invalid_argument", "launch spec needs a program")
			return
		}
		if lb.DeadlineMS < 0 {
			writeErr(w, http.StatusBadRequest, "invalid_argument", "deadline_ms must be >= 0")
			return
		}
		spec = pie.LaunchSpec{
			Program:   lb.Program,
			Args:      lb.Args,
			Class:     lb.Class,
			Priority:  lb.Priority,
			Deadline:  time.Duration(lb.DeadlineMS) * time.Millisecond,
			ClientTag: lb.ClientTag,
		}
	}
	var h *pie.Handle
	var err error
	s.inject("http:launch", func() { h, err = s.engine.Launch(spec) })
	if err != nil {
		status, code := http.StatusBadRequest, "launch_failed"
		switch {
		case errors.Is(err, pie.ErrNoSuchProgram):
			status, code = http.StatusNotFound, "no_such_program"
		case errors.Is(err, pie.ErrUnsatisfiedManifest):
			status, code = http.StatusConflict, "unsatisfied_manifest"
		case errors.Is(err, pie.ErrNoSuchClass):
			status, code = http.StatusBadRequest, "no_such_class"
		case errors.Is(err, pie.ErrOverloaded):
			// Saturation guard shed a best-effort launch: classic 429,
			// with Retry-After so well-behaved clients back off.
			w.Header().Set("Retry-After", "1")
			status, code = http.StatusTooManyRequests, "overloaded"
		case errors.Is(err, pie.ErrRetryBudgetExhausted),
			errors.Is(err, pie.ErrReplicaLost),
			errors.Is(err, pie.ErrTransientFault):
			status, code = http.StatusServiceUnavailable, errCode(err)
		}
		writeErr(w, status, code, err.Error())
		return
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.runs[id] = h
	s.mu.Unlock()
	name, version := h.Program()
	writeJSON(w, map[string]interface{}{
		"id": id, "program": name, "version": version, "client_tag": h.ClientTag(),
	})
}

// abort cancels a running inferlet: its resources return to the pools and
// a pending or future wait reports the abort error. The handle stays in
// the table so the client can still collect logs via /v1/wait.
func (s *server) abort(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	var aborted bool
	s.inject("http:abort", func() { aborted = h.Abort() })
	if !aborted {
		writeErr(w, http.StatusConflict, "already_finished",
			fmt.Sprintf("run %d already finished; nothing to abort", id))
		return
	}
	writeJSON(w, map[string]interface{}{"status": "aborted", "id": id})
}

// handle resolves the id parameter to a live run, or reports the
// structured error it wrote.
func (s *server) handle(w http.ResponseWriter, r *http.Request) (*pie.Handle, int, bool) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "id must be an integer")
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.runs[id]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_id", fmt.Sprintf("no run with id %d", id))
		return nil, id, false
	}
	return h, id, true
}

// evict removes a finished run from the handle table.
func (s *server) evict(id int) {
	s.mu.Lock()
	delete(s.runs, id)
	s.mu.Unlock()
}

// liveRuns reports the handle-table size (eviction tests).
func (s *server) liveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

func (s *server) send(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	s.inject("http:send", func() { h.Send(string(body)) })
	writeJSON(w, map[string]string{"status": "sent"})
}

func (s *server) recv(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	var msg string
	var recvErr error
	s.inject("http:recv", func() { msg, recvErr = h.Recv().Get() })
	if recvErr != nil {
		writeErr(w, http.StatusGone, "gone", recvErr.Error())
		return
	}
	writeJSON(w, map[string]string{"message": msg})
}

// wait blocks until the run finishes, reports its result, and evicts the
// handle: a waited-on run is finished business and must not leak in the
// table. Clients drain messages (recv/stream) before waiting.
func (s *server) wait(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	var runErr error
	s.inject("http:wait", func() { runErr = h.Wait() })
	cc, ic, tok := h.Stats()
	resp := map[string]interface{}{
		"logs": h.Logs(), "controlCalls": cc, "inferCalls": ic, "outputTokens": tok,
		"virtualTime": s.engine.Now().String(),
	}
	if runErr != nil {
		resp["error"] = runErr.Error()
		resp["error_code"] = errCode(runErr)
	}
	s.evict(id)
	writeJSON(w, resp)
}

// close evicts a run without waiting: the client is done with it.
func (s *server) close(w http.ResponseWriter, r *http.Request) {
	_, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	s.evict(id)
	writeJSON(w, map[string]interface{}{"status": "closed", "id": id})
}

// stream serves the run's messages as Server-Sent Events: one `data:`
// event per inferlet message, then `event: end` when the inferlet's
// mailbox closes (all messages delivered, inferlet finished).
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusInternalServerError, "no_streaming", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Poll with TryRecv instead of parking a sim process in a blocking
	// Recv: an abandoned connection must neither leak a goroutine stuck
	// in inject nor consume a message a live consumer was waiting for.
	for {
		var msg string
		var got, finished bool
		s.inject("http:stream", func() {
			msg, got = h.TryRecv()
			if !got {
				// Messages enqueue before the run resolves done, so
				// done + drained means nothing more will ever arrive.
				finished = h.Done()
			}
		})
		switch {
		case got:
			for _, line := range strings.Split(msg, "\n") {
				fmt.Fprintf(w, "data: %s\n", line)
			}
			fmt.Fprint(w, "\n")
			fl.Flush()
		case finished:
			fmt.Fprint(w, "event: end\ndata: closed\n\n")
			fl.Flush()
			return
		default:
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
}

// stats reports engine totals plus per-replica counters. The snapshot
// runs as an injected sim process like every other handler: the counters
// live on the engine's event-loop goroutine.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	var engine pie.Stats
	var replicas []metrics.ReplicaStats
	s.inject("http:stats", func() {
		engine = s.engine.Stats()
		replicas = s.engine.ReplicaStats()
	})
	writeJSON(w, map[string]interface{}{
		"engine":   engine,
		"replicas": replicas,
	})
}

// programInfoJSON is the /v1/programs wire form of one registered artifact.
type programInfoJSON struct {
	Name       string   `json:"name"`
	Version    string   `json:"version"`
	Latest     bool     `json:"latest"`
	BinarySize int      `json:"binary_size"`
	Models     []string `json:"models,omitempty"`
	Traits     []string `json:"traits,omitempty"`
	MaxQueues  int      `json:"max_queues,omitempty"`
	MaxKvPages int      `json:"max_kv_pages,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

func programJSON(p pie.ProgramInfo) programInfoJSON {
	out := programInfoJSON{
		Name:       p.Name,
		Version:    p.Version,
		Latest:     p.Latest,
		BinarySize: p.BinarySize,
		MaxQueues:  p.Manifest.Limits.MaxQueues,
		MaxKvPages: p.Manifest.Limits.MaxKvPages,
		DeadlineMS: int64(p.Manifest.Limits.Deadline / time.Millisecond),
	}
	for _, m := range p.Manifest.Models {
		out.Models = append(out.Models, string(m))
	}
	for _, t := range p.Manifest.Traits {
		out.Traits = append(out.Traits, string(t))
	}
	return out
}

// programs lists the versioned registry with manifest details; ?name=
// narrows to one program's versions (404 when it is not registered).
func (s *server) programs(w http.ResponseWriter, r *http.Request) {
	var infos []pie.ProgramInfo
	s.inject("http:programs", func() { infos = s.engine.Programs() })
	name := r.URL.Query().Get("name")
	out := make([]programInfoJSON, 0, len(infos))
	for _, p := range infos {
		if name == "" || p.Name == name {
			out = append(out, programJSON(p))
		}
	}
	if name != "" && len(out) == 0 {
		writeErr(w, http.StatusNotFound, "no_such_program",
			fmt.Sprintf("no program named %q", name))
		return
	}
	writeJSON(w, out)
}

// fleetErrStatus maps a manifest/apply error to an HTTP status and the
// machine-readable code clients branch on.
func fleetErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, pie.ErrNotFleetManaged):
		return http.StatusNotFound, "not_fleet_managed"
	case errors.Is(err, fleet.ErrImmutable):
		return http.StatusConflict, "immutable_field"
	case errors.Is(err, fleet.ErrUnknownReference):
		return http.StatusBadRequest, "unknown_reference"
	case errors.Is(err, fleet.ErrBadVersion):
		return http.StatusBadRequest, "bad_version"
	case errors.Is(err, fleet.ErrAmbiguousPool):
		return http.StatusBadRequest, "ambiguous_pool"
	default:
		return http.StatusBadRequest, "invalid_manifest"
	}
}

// fleet is the declarative-management surface: GET reports the
// controller's desired-vs-actual reconciliation status; POST hot-applies
// a new manifest (the remote equivalent of SIGHUP). Topology changes are
// refused 409 typed immutable_field; a server started without -config
// answers 404 not_fleet_managed.
func (s *server) fleet(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		m, err := fleet.Parse(body)
		if err != nil {
			status, code := fleetErrStatus(err)
			writeErr(w, status, code, err.Error())
			return
		}
		var applyErr error
		s.inject("http:fleet-apply", func() { applyErr = s.engine.ApplyFleet(m) })
		if applyErr != nil {
			status, code := fleetErrStatus(applyErr)
			writeErr(w, status, code, applyErr.Error())
			return
		}
		var st fleet.Status
		s.inject("http:fleet-status", func() { st, _ = s.engine.FleetStatus() })
		writeJSON(w, map[string]interface{}{"status": "applied", "fleet": st})
	case http.MethodGet:
		var st fleet.Status
		var desired *fleet.Manifest
		var ok bool
		s.inject("http:fleet-status", func() {
			if st, ok = s.engine.FleetStatus(); ok {
				desired = s.engine.FleetController().Desired()
			}
		})
		if !ok {
			writeErr(w, http.StatusNotFound, "not_fleet_managed",
				"server was not started from a fleet manifest (-config)")
			return
		}
		writeJSON(w, map[string]interface{}{"fleet": st, "desired": desired})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST")
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Package core implements Pie's control layer (§5.2): the controller that
// serves inferlet API calls, virtualizes Embed/KvPage resources, batches
// GPU-bound calls through command queues, and dispatches completion events
// back to inferlets.
package core

import (
	"fmt"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// pool tracks allocation state for one physical resource array. The memory
// itself lives in the inference layer (infer.ModelRuntime); the control
// layer owns the free list and reference counts — exactly the split §5.3
// prescribes. Ids are dense (a high-water mark plus a free list), so the
// refcounts are a table indexed by id, 0 meaning free.
type pool struct {
	capacity int
	refs     []int32 // indexed by id; len is the high-water mark of materialized ids
	free     []int32 // released ids available for reuse
}

func newPool(capacity int) *pool {
	return &pool{capacity: capacity}
}

// available reports how many ids can be handed out right now.
func (p *pool) available() int {
	return len(p.free) + (p.capacity - len(p.refs))
}

// inUse reports the number of live ids.
func (p *pool) inUse() int { return len(p.refs) - len(p.free) }

// alloc hands out n ids with refcount 1, or reports failure leaving the
// pool untouched.
func (p *pool) alloc(n int) ([]int32, bool) {
	if p.available() < n {
		return nil, false
	}
	ids := make([]int32, 0, n)
	for len(ids) < n && len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		ids = append(ids, id)
		p.refs[id] = 1
	}
	for len(ids) < n {
		ids = append(ids, int32(len(p.refs)))
		p.refs = append(p.refs, 1)
	}
	return ids, true
}

// retain bumps a live id's refcount (export/import sharing).
func (p *pool) retain(id int32) {
	if p.live(id) {
		p.refs[id]++
	}
}

// release drops one reference; the id returns to the free list at zero.
// It reports whether the id was actually freed.
func (p *pool) release(id int32) bool {
	if !p.live(id) {
		return false
	}
	p.refs[id]--
	if p.refs[id] > 0 {
		return false
	}
	p.free = append(p.free, id)
	return true
}

func (p *pool) live(id int32) bool {
	return id >= 0 && int(id) < len(p.refs) && p.refs[id] > 0
}

// resRef locates a physical resource: which model's pool, which index.
type resRef struct {
	model string
	phys  int32
}

// Instance is the control layer's view of one running inferlet: its
// virtual resource address space, queues, and accounting.
type Instance struct {
	ID         uint64
	Name       string
	CreatedSeq uint64
	Proc       *sim.Proc

	vEmbeds   map[api.Embed]resRef
	vPages    map[api.KvPage]resRef
	nextEmbed api.Embed
	nextPage  api.KvPage
	queues    map[api.Queue]*cmdQueue
	dead      bool
	onKill    func(reason error) // ILM hook: unwind the inferlet process

	// Manifest-declared resource limits (deployment API v2), set by the
	// ILM before the instance runs; zero fields are unlimited. The
	// controller enforces them with api.ErrLimitExceeded.
	MaxQueues  int
	MaxKvPages int
	// DefaultPriority seeds the batch-scheduler priority of every queue
	// the instance opens (LaunchSpec.Priority).
	DefaultPriority int
	// Class is the launch's resolved service class name (empty when
	// unclassed); the latency observer attributes TTFT/ITL samples to it.
	Class string
	// Degraded marks a launch admitted under graceful degradation: its
	// output was capped by the admission layer and Session.Open substitutes
	// the cheapest trait-compatible model variant.
	Degraded bool

	// Latency-observer bookkeeping: launch registration time, whether the
	// first forward pass has completed (TTFT sample taken), and the
	// completion time of the most recent forward pass (ITL reference).
	launchedAt  time.Duration
	sawFirstTok bool
	lastTokenAt time.Duration

	// HandoffPending marks a session whose prefill completed on a
	// prefill-role replica: the first-token observer sets it, and the
	// session's next forward boundary consults the cluster's handoff
	// coordinator to migrate the KV state to a decode replica.
	HandoffPending bool

	// Instrumentation (Fig. 10/11).
	ControlCalls int
	InferCalls   int
	OutputTokens int
}

// ReportOutputTokens is called by the session when the application accepts
// generated tokens; Fig. 11 normalizes API-call counts by this.
func (inst *Instance) ReportOutputTokens(n int) { inst.OutputTokens += n }

// Dead reports whether the instance has been released. The ILM checks it
// after the cold-launch JIT sleep: an instance registered at placement
// time can be reclaimed (FCFS policy) before its process ever starts.
func (inst *Instance) Dead() bool { return inst.dead }

// cmdQueue is one command queue (§4.1): a FIFO of API calls whose
// dependencies are unambiguous (in-order within the queue) and which
// carries a scheduling priority.
type cmdQueue struct {
	id       api.Queue
	inst     *Instance
	model    string
	rt       *infer.ModelRuntime
	priority int
	pending  []*infer.Call
	inflight int
	closed   bool

	// Ready-bucket index state, owned by the Scheduler: which (op,
	// runtime) bucket the queue currently sits in, its slot there, and how
	// many pending calls it contributes to the incremental K-only count.
	bucket    *readyBucket
	bucketIdx int
	counted   int
}

func (q *cmdQueue) head() *infer.Call {
	if len(q.pending) == 0 {
		return nil
	}
	return q.pending[0]
}

func (q *cmdQueue) pop() *infer.Call {
	c := q.pending[0]
	q.pending[0] = nil
	q.pending = q.pending[1:]
	return c
}

// exportEntry is a named, shareable set of KV pages (export_kvpage /
// import_kvpage). The registry holds its own reference on every page, so
// exported context survives its exporter — the mechanism behind
// application-managed prompt caching (§7.2 optimization #1).
type exportEntry struct {
	model string
	phys  []int32
}

// errTerminated wraps api.ErrTerminated with policy context.
func errTerminated(need int, model string) error {
	return fmt.Errorf("%w: FCFS policy reclaimed this inferlet (%d pages short on %s)",
		api.ErrTerminated, need, model)
}

// Timing knobs for control-layer call handling (Fig. 10: control-layer
// calls cost a few µs and stay under ~30µs even at 896 concurrent
// inferlets; the slight growth models the shared controller core).
const (
	controlCallBase    = 3 * time.Microsecond
	controlCallPerInst = 25 * time.Nanosecond
)

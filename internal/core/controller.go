package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

// Controller is the heart of the control layer: it owns resource pools,
// virtual address mappings, command queues, the export registry, and the
// batch scheduler, and it routes completed batches back to inferlets.
type Controller struct {
	clock     *sim.Clock
	backend   *infer.Backend
	models    map[string]*infer.ModelRuntime
	order     []string
	pagePool  map[string]*tieredPool
	embPool   map[string]*pool
	exports   map[string]*exportEntry
	offload   OffloadConfig
	artifacts *artifactCache

	instances map[uint64]*Instance
	instSeq   uint64
	queueSeq  uint64
	callSeq   uint64

	sched *Scheduler

	// Outstanding inference-layer work, maintained incrementally on
	// enqueue/complete/close. The cluster router's least-loaded placement
	// and the autoscaler's queue-depth signal read these; control-side ops
	// (dealloc, sync) never count.
	outstandingCalls   int
	outstandingTokens  int
	outstandingPrefill int // fresh tokens of admitted bulk-prefill forwards

	// latencyFn, when set, observes every completed forward pass: the
	// instance's service class, whether the sample is a TTFT (first forward
	// of the instance) or an ITL (gap since its previous forward), and the
	// measured duration. The cluster's SLO tracker installs it.
	latencyFn func(class string, ttft bool, d time.Duration)

	// firstTokFn, when set, observes each instance's first completed
	// forward pass. The cluster installs it on prefill-role replicas to
	// mark sessions ready for KV handoff to decode capacity.
	firstTokFn func(inst *Instance)

	// Stats.
	Terminations int
	Aborts       int           // instances cancelled via their launch handle
	Downgrades   int           // degraded sessions moved to a cheaper model variant
	xferTime     time.Duration // cumulative PCIe swap time charged to callers
}

// NewController wires a controller to its backend and models. The offload
// config sizes each model's host-memory KV tier; the zero value keeps the
// paper's device-only pools.
func NewController(clock *sim.Clock, backend *infer.Backend, models []*infer.ModelRuntime, cfg SchedConfig, offload OffloadConfig, artifacts ArtifactConfig) *Controller {
	ctl := &Controller{
		clock:     clock,
		backend:   backend,
		models:    make(map[string]*infer.ModelRuntime),
		pagePool:  make(map[string]*tieredPool),
		embPool:   make(map[string]*pool),
		exports:   make(map[string]*exportEntry),
		instances: make(map[uint64]*Instance),
		offload:   offload,
	}
	artCap := artifacts.CapacityBytes
	if artCap == 0 && len(models) > 0 {
		artCap = models[0].Spec.ArtifactCacheBytes
	}
	ctl.artifacts = newArtifactCache(artCap)
	for _, rt := range models {
		name := string(rt.Info.ID)
		ctl.models[name] = rt
		ctl.order = append(ctl.order, name)
		hostCap := int(offload.HostRatio * float64(rt.PageCapacity))
		if hostCap < 0 {
			hostCap = 0 // a negative ratio must not shrink total capacity below the device tier
		}
		ctl.pagePool[name] = newTieredPool(rt.PageCapacity, hostCap, evictorFor(offload.Eviction))
		ctl.embPool[name] = newPool(rt.EmbedCapacity)
	}
	ctl.sched = newScheduler(clock, ctl, cfg)
	backend.SetCompleteFunc(ctl.onBatchComplete)
	backend.Device.SetIdleFunc(ctl.sched.onDeviceIdle)
	return ctl
}

// Scheduler exposes the batch scheduler (for tests and stats).
func (ctl *Controller) Scheduler() *Scheduler { return ctl.sched }

// SetLatencyObserver installs the per-forward completion observer feeding
// the cluster's per-class TTFT/ITL attainment tracker. Pass nil to remove.
func (ctl *Controller) SetLatencyObserver(fn func(class string, ttft bool, d time.Duration)) {
	ctl.latencyFn = fn
}

// SetFirstTokenObserver installs the per-instance first-forward observer:
// fn runs once per instance, when its first forward pass completes. The
// cluster's prefill/decode handoff layer installs it on prefill-role
// replicas. Pass nil to remove.
func (ctl *Controller) SetFirstTokenObserver(fn func(inst *Instance)) {
	ctl.firstTokFn = fn
}

// chargeControl prices a control-layer-handled API call in the caller's
// process and bumps instrumentation.
func (ctl *Controller) chargeControl(inst *Instance) {
	inst.ControlCalls++
	ctl.clock.Sleep(controlCallBase + time.Duration(len(ctl.instances))*controlCallPerInst)
}

// --- Instance lifecycle -------------------------------------------------

// RegisterInstance creates the control-layer state for a new inferlet.
// onKill runs when the FCFS contention policy terminates the instance.
func (ctl *Controller) RegisterInstance(name string, proc *sim.Proc, onKill func(error)) *Instance {
	ctl.instSeq++
	inst := &Instance{
		ID:         ctl.instSeq,
		Name:       name,
		CreatedSeq: ctl.instSeq,
		Proc:       proc,
		vEmbeds:    make(map[api.Embed]resRef),
		vPages:     make(map[api.KvPage]resRef),
		queues:     make(map[api.Queue]*cmdQueue),
		onKill:     onKill,
		launchedAt: ctl.clock.Now(),
	}
	ctl.instances[inst.ID] = inst
	return inst
}

// ReleaseInstance frees every resource the instance holds: queues are
// closed (pending calls fail), virtual mappings are dropped, and physical
// references are released. Each table is walked in ascending handle
// order, so the order in which calls fail and physical ids return to the
// free lists is the same on every same-seed run. Idempotent.
func (ctl *Controller) ReleaseInstance(inst *Instance) {
	if inst.dead {
		return
	}
	inst.dead = true
	for _, qid := range sortedKeys(inst.queues) {
		q := inst.queues[qid]
		q.closed = true
		for _, c := range q.pending {
			ctl.retireCall(c)
			ctl.unpinCall(c)
			if c.Op == infer.OpDealloc && c.ControlFn != nil {
				// Queue-ordered deallocs already removed their handles
				// from the instance view; the deferred physical free must
				// still run or the slots leak (abort mid-decode lands
				// here routinely).
				c.ControlFn()
				continue
			}
			c.Err = api.ErrTerminated
			failCall(c)
		}
		q.pending = nil
		ctl.sched.forgetQueue(q)
	}
	for _, id := range sortedKeys(inst.vEmbeds) {
		ref := inst.vEmbeds[id]
		ctl.embPool[ref.model].release(ref.phys)
	}
	for _, id := range sortedKeys(inst.vPages) {
		ref := inst.vPages[id]
		ctl.pagePool[ref.model].release(ref.phys)
	}
	inst.vEmbeds = make(map[api.Embed]resRef)
	inst.vPages = make(map[api.KvPage]resRef)
	delete(ctl.instances, inst.ID)
}

// failCall resolves every completion future a call carries.
func failCall(c *infer.Call) {
	if c.Done != nil && !c.Done.Done() {
		sim.Fire(c.Done)
	}
	if c.SyncFut != nil && !c.SyncFut.Done() {
		sim.Fire(c.SyncFut)
	}
	if c.DistFut != nil && !c.DistFut.Done() {
		c.DistFut.Fail(c.Err)
	}
	if c.TokFut != nil && !c.TokFut.Done() {
		c.TokFut.Fail(c.Err)
	}
	if c.TextFut != nil && !c.TextFut.Done() {
		c.TextFut.Fail(c.Err)
	}
	if c.VocabFut != nil && !c.VocabFut.Done() {
		c.VocabFut.Fail(c.Err)
	}
	if c.FusedTok != nil && !c.FusedTok.Done() {
		c.FusedTok.Fail(c.Err)
	}
}

// ensurePages enforces the resource-contention policy (§5.2, §8): when a
// KvPage allocation cannot be satisfied, the most recently created live
// inferlets are terminated until enough pages are free. If the requester
// itself is the newest, it is the victim and receives ErrTerminated.
func (ctl *Controller) ensurePages(requester *Instance, modelName string, n int) error {
	p := ctl.pagePool[modelName]
	for p.available() < n {
		victim := ctl.newestInstance()
		if victim == nil {
			return api.ErrOutOfResources
		}
		ctl.Terminations++
		if victim == requester {
			ctl.terminate(victim, errTerminated(n, modelName))
			return errTerminated(n, modelName)
		}
		ctl.terminate(victim, errTerminated(n, modelName))
		if p.available() >= n {
			break
		}
	}
	return nil
}

func (ctl *Controller) newestInstance() *Instance {
	var newest *Instance
	for _, inst := range ctl.instances {
		if newest == nil || inst.CreatedSeq > newest.CreatedSeq {
			newest = inst
		}
	}
	return newest
}

func (ctl *Controller) terminate(inst *Instance, reason error) {
	onKill := inst.onKill
	ctl.ReleaseInstance(inst)
	if onKill != nil {
		onKill(reason)
	}
}

// AbortInstance cancels a live instance through its launch handle
// (Handle.Abort): queue-scoped reclamation runs exactly as for FCFS
// termination — pending calls fail, page pins drop, pages/embeds return
// to their pools, the export registry keeps its own references — and the
// inferlet process unwinds with the given reason. Idempotent: aborting a
// released instance is a no-op.
func (ctl *Controller) AbortInstance(inst *Instance, reason error) bool {
	if inst == nil || inst.dead {
		return false
	}
	ctl.Aborts++
	ctl.terminate(inst, reason)
	return true
}

// AbortInstanceByID aborts the live instance with the given ID; see
// AbortInstance. It reports whether an abort happened.
func (ctl *Controller) AbortInstanceByID(id uint64, reason error) bool {
	return ctl.AbortInstance(ctl.instances[id], reason)
}

// AbortAllInstances aborts every live instance with the given reason, in
// instance-ID order so same-seed runs unwind identically. The cluster
// health layer calls it when a replica is declared dead: every in-flight
// inferlet fails typed (api.ErrReplicaLost) instead of parking forever on
// a device that will never answer. Returns the number aborted.
func (ctl *Controller) AbortAllInstances(reason error) int {
	n := 0
	for _, id := range ctl.SortedInstanceIDs() {
		if ctl.AbortInstance(ctl.instances[id], reason) {
			n++
		}
	}
	return n
}

// DropExports declares every KV export on this controller lost — the
// registry's page references release and the names vanish — and reports
// how many exports and physical page references were dropped. Called when
// a replica dies: its cached context is unrecoverable, and affinity
// routing must stop finding it here.
func (ctl *Controller) DropExports() (exports, pages int) {
	for _, name := range sortedKeys(ctl.exports) {
		entry := ctl.exports[name]
		for _, p := range entry.phys {
			ctl.pagePool[entry.model].release(p)
		}
		pages += len(entry.phys)
		delete(ctl.exports, name)
		exports++
	}
	return exports, pages
}

// KVLoad reports aggregate KV page occupancy across every model pool,
// both tiers. The cluster's saturation guard reads it to decide when to
// shed best-effort launches.
func (ctl *Controller) KVLoad() (inUse, capacity int) {
	for _, name := range ctl.order {
		p := ctl.pagePool[name]
		inUse += p.inUse()
		capacity += p.capacity()
	}
	return inUse, capacity
}

// Instances returns the number of live instances.
func (ctl *Controller) Instances() int { return len(ctl.instances) }

// --- Model discovery ----------------------------------------------------

// ModelInfos lists servable model descriptors in registration order,
// without charging any instance: the ILM validates program manifests
// against this catalog view at register and launch time.
func (ctl *Controller) ModelInfos() []api.ModelInfo {
	out := make([]api.ModelInfo, 0, len(ctl.order))
	for _, name := range ctl.order {
		out = append(out, ctl.models[name].Info)
	}
	return out
}

// Models lists servable models in registration order (available_models).
func (ctl *Controller) Models(inst *Instance) []api.ModelInfo {
	ctl.chargeControl(inst)
	out := make([]api.ModelInfo, 0, len(ctl.order))
	for _, name := range ctl.order {
		out = append(out, ctl.models[name].Info)
	}
	return out
}

// Traits reports a model's trait set (available_traits).
func (ctl *Controller) Traits(inst *Instance, m api.ModelID) ([]api.Trait, error) {
	ctl.chargeControl(inst)
	rt, ok := ctl.models[string(m)]
	if !ok {
		return nil, api.ErrNoSuchModel
	}
	return append([]api.Trait(nil), rt.Info.Traits...), nil
}

// --- Queues ---------------------------------------------------------------

// CreateQueue makes a command queue bound to a model (create_queue).
func (ctl *Controller) CreateQueue(inst *Instance, m api.ModelID) (api.Queue, error) {
	ctl.chargeControl(inst)
	rt, ok := ctl.models[string(m)]
	if !ok {
		return 0, api.ErrNoSuchModel
	}
	if inst.MaxQueues > 0 && len(inst.queues) >= inst.MaxQueues {
		return 0, fmt.Errorf("%w: manifest allows %d open queues", api.ErrLimitExceeded, inst.MaxQueues)
	}
	ctl.queueSeq++
	q := &cmdQueue{id: api.Queue(ctl.queueSeq), inst: inst, model: string(m), rt: rt,
		priority: inst.DefaultPriority}
	inst.queues[q.id] = q
	return q.id, nil
}

// SetQueuePriority hints the scheduler (set_queue_priority).
func (ctl *Controller) SetQueuePriority(inst *Instance, qid api.Queue, pri int) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	q.priority = pri
	return nil
}

// Synchronize returns a signal that fires when every call enqueued on the
// queue before this point has completed (synchronize).
func (ctl *Controller) Synchronize(inst *Instance, qid api.Queue) (*sim.Signal, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if len(q.pending) == 0 && q.inflight == 0 {
		s := sim.NewSignal(ctl.clock)
		sim.Fire(s)
		return s, nil
	}
	c := &infer.Call{Op: infer.OpSync, SyncFut: sim.NewSignal(ctl.clock)}
	ctl.enqueue(q, c)
	return c.SyncFut, nil
}

func (ctl *Controller) queue(inst *Instance, qid api.Queue) (*cmdQueue, error) {
	q, ok := inst.queues[qid]
	if !ok || q.closed {
		return nil, api.ErrQueueClosed
	}
	return q, nil
}

// CloseQueue closes a command queue (close_queue). Callers that want a
// graceful close synchronize first; anything still pending fails with
// ErrQueueClosed. The queue leaves the scheduler and its id dies — the
// queue-scoped half of v2 resource reclamation (handles themselves are
// instance-scoped and are released by the dealloc calls the queue object
// issues before closing).
func (ctl *Controller) CloseQueue(inst *Instance, qid api.Queue) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	q.closed = true
	for _, c := range q.pending {
		ctl.retireCall(c)
		ctl.unpinCall(c)
		if c.Op == infer.OpDealloc && c.ControlFn != nil {
			// As in ReleaseInstance: the handles died when the dealloc
			// enqueued, so the deferred physical free must still run.
			c.ControlFn()
			continue
		}
		c.Err = api.ErrQueueClosed
		failCall(c)
	}
	q.pending = nil
	ctl.sched.forgetQueue(q)
	delete(inst.queues, qid)
	return nil
}

// --- Allocation -----------------------------------------------------------

// AllocEmbeds allocates n embedding slots (alloc_emb).
func (ctl *Controller) AllocEmbeds(inst *Instance, qid api.Queue, n int) ([]api.Embed, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, api.ErrBadArgument
	}
	phys, ok := ctl.embPool[q.model].alloc(n)
	if !ok {
		return nil, api.ErrOutOfResources
	}
	out := make([]api.Embed, n)
	for i, id := range phys {
		inst.nextEmbed++
		out[i] = inst.nextEmbed
		inst.vEmbeds[out[i]] = resRef{model: q.model, phys: id}
	}
	return out, nil
}

// AllocPages allocates n KV pages (alloc_kvpage), applying the FCFS
// contention policy on shortage.
func (ctl *Controller) AllocPages(inst *Instance, qid api.Queue, n int) ([]api.KvPage, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, api.ErrBadArgument
	}
	if inst.MaxKvPages > 0 && len(inst.vPages)+n > inst.MaxKvPages {
		return nil, fmt.Errorf("%w: manifest allows %d KV pages (%d live, %d requested)",
			api.ErrLimitExceeded, inst.MaxKvPages, len(inst.vPages), n)
	}
	var phys []int32
	swappedOut := 0
	for attempt := 0; ; attempt++ {
		if err := ctl.ensurePages(inst, q.model, n); err != nil {
			return nil, err
		}
		ids, swapped, ok := ctl.pagePool[q.model].alloc(n, q.priority)
		if ok {
			phys, swappedOut = ids, swapped
			break
		}
		// Total capacity sufficed but device room could not be cleared:
		// every device page is pinned by queued or in-flight work. That
		// is transient — back off until the wave completes and unpins.
		if attempt >= faultRetries {
			return nil, api.ErrOutOfResources
		}
		ctl.clock.Sleep(faultBackoff)
		if q.closed {
			return nil, api.ErrQueueClosed
		}
	}
	out := make([]api.KvPage, n)
	for i, id := range phys {
		inst.nextPage++
		out[i] = inst.nextPage
		inst.vPages[out[i]] = resRef{model: q.model, phys: id}
		// Fresh pages must arrive empty even if physically recycled.
		ctl.models[q.model].Page(id).Reset()
	}
	// Charge the PCIe cost of alloc-triggered offloads only after the
	// handles are registered: an FCFS kill landing inside this sleep then
	// reclaims the pages through ReleaseInstance instead of leaking them.
	ctl.chargeSwap(q.rt, swappedOut)
	return out, nil
}

// DeallocEmbeds releases embedding slots after prior queue ops complete
// (dealloc_emb): it is a queue-ordered control op. Validation is
// all-or-nothing — a bad handle anywhere in ids releases nothing, so a
// failed call leaves the caller's handle view unchanged.
func (ctl *Controller) DeallocEmbeds(inst *Instance, qid api.Queue, ids []api.Embed) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	refs, ok := unmapHandles(inst.vEmbeds, ids) // handles die now; physical free is deferred
	if !ok {
		return api.ErrBadHandle
	}
	ctl.enqueue(q, &infer.Call{Op: infer.OpDealloc, ControlFn: func() {
		for _, ref := range refs {
			ctl.embPool[ref.model].release(ref.phys)
		}
	}})
	return nil
}

// DeallocPages releases KV pages, queue-ordered (dealloc_kvpage), with
// the same all-or-nothing validation as DeallocEmbeds.
func (ctl *Controller) DeallocPages(inst *Instance, qid api.Queue, ids []api.KvPage) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	refs, ok := unmapHandles(inst.vPages, ids)
	if !ok {
		return api.ErrBadHandle
	}
	ctl.enqueue(q, &infer.Call{Op: infer.OpDealloc, ControlFn: func() {
		for _, ref := range refs {
			ctl.pagePool[ref.model].release(ref.phys)
		}
	}})
	return nil
}

// unmapHandles removes every handle in ids from an instance's virtual
// table and returns their physical references in order. All or nothing:
// an unknown or repeated handle (a repeat is gone by its second mention)
// restores what the call removed and reports false.
func unmapHandles[H comparable](table map[H]resRef, ids []H) ([]resRef, bool) {
	refs := make([]resRef, 0, len(ids))
	for _, id := range ids {
		ref, ok := table[id]
		if !ok {
			for j, r := range refs {
				table[ids[j]] = r
			}
			return nil, false
		}
		delete(table, id)
		refs = append(refs, ref)
	}
	return refs, true
}

// --- Export / import ------------------------------------------------------

// ExportPages publishes the pages under a global name (export_kvpage). The
// registry takes its own reference on each page, so the export outlives
// the exporter.
func (ctl *Controller) ExportPages(inst *Instance, name string, ids []api.KvPage) error {
	ctl.chargeControl(inst)
	if _, exists := ctl.exports[name]; exists {
		return fmt.Errorf("%w: export name %q taken", api.ErrBadArgument, name)
	}
	entry := &exportEntry{}
	for _, id := range ids {
		ref, ok := inst.vPages[id]
		if !ok {
			return api.ErrBadHandle
		}
		if entry.model == "" {
			entry.model = ref.model
		} else if entry.model != ref.model {
			return fmt.Errorf("%w: export mixes models", api.ErrBadArgument)
		}
		entry.phys = append(entry.phys, ref.phys)
	}
	for _, p := range entry.phys {
		ctl.pagePool[entry.model].retain(p)
	}
	ctl.exports[name] = entry
	return nil
}

// ImportPages maps an export into the caller's address space
// (import_kvpage); the pages are shared, not copied.
func (ctl *Controller) ImportPages(inst *Instance, name string) ([]api.KvPage, error) {
	ctl.chargeControl(inst)
	entry, ok := ctl.exports[name]
	if !ok {
		return nil, api.ErrNoSuchExport
	}
	if inst.MaxKvPages > 0 && len(inst.vPages)+len(entry.phys) > inst.MaxKvPages {
		// Imports map pages into the instance's address space too: the
		// manifest cap bounds live pages however they arrive.
		return nil, fmt.Errorf("%w: manifest allows %d KV pages (%d live, %d imported)",
			api.ErrLimitExceeded, inst.MaxKvPages, len(inst.vPages), len(entry.phys))
	}
	out := make([]api.KvPage, len(entry.phys))
	for i, p := range entry.phys {
		ctl.pagePool[entry.model].retain(p)
		inst.nextPage++
		out[i] = inst.nextPage
		inst.vPages[out[i]] = resRef{model: entry.model, phys: p}
	}
	return out, nil
}

// HasExport reports whether name is registered (used for cache probing).
func (ctl *Controller) HasExport(inst *Instance, name string) bool {
	ctl.chargeControl(inst)
	_, ok := ctl.exports[name]
	return ok
}

// ReleaseExport drops the registry's references (release_export).
func (ctl *Controller) ReleaseExport(inst *Instance, name string) error {
	ctl.chargeControl(inst)
	entry, ok := ctl.exports[name]
	if !ok {
		return api.ErrNoSuchExport
	}
	for _, p := range entry.phys {
		ctl.pagePool[entry.model].release(p)
	}
	delete(ctl.exports, name)
	return nil
}

// --- Inference-layer calls -------------------------------------------------

// resolvePages maps page handles to their physical pages on q's model,
// appending the physical ids to phys.
func (ctl *Controller) resolvePages(inst *Instance, q *cmdQueue, ids []api.KvPage, phys []int32) ([]*model.KvPage, []int32, error) {
	out := make([]*model.KvPage, len(ids))
	for i, id := range ids {
		ref, ok := inst.vPages[id]
		if !ok || ref.model != q.model {
			return nil, nil, api.ErrBadHandle
		}
		out[i] = q.rt.Page(ref.phys)
		phys = append(phys, ref.phys)
	}
	return out, phys, nil
}

// chargeSwap prices n page moves across the PCIe link in the caller's
// process (allocation-triggered offloads, forward-triggered faults).
func (ctl *Controller) chargeSwap(rt *infer.ModelRuntime, n int) {
	if n <= 0 {
		return
	}
	cost := rt.Spec.SwapCost(n, rt.Info.PageSize)
	ctl.xferTime += cost
	ctl.clock.Sleep(cost)
}

// Fault-in contention backoff: when a call's working set cannot fit the
// device tier because concurrent calls pin it full, the faulting session
// waits for the in-flight wave to complete and retries. The virtual-clock
// sleep keeps the retry deterministic; the bound turns a true working-set
// overcommit (every device page pinned forever) into ErrOutOfResources.
const (
	faultBackoff = 5 * time.Millisecond
	faultRetries = 40
)

// preparePages readies the physical pages an inference call references:
// stamps recency, pins them against offload for the call's lifetime, and
// prefetches host-resident pages back to the device tier, charging the
// PCIe transfer before the call enqueues — by dispatch time the pages are
// resident. Duplicate mentions (ReadKv and AppendKv commonly name the
// same pages) pin and charge once. Transient device-tier contention
// (other calls' pins) is absorbed by a bounded backoff, so sessions
// fault transparently. The pin set rides on the call and is dropped by
// unpinCall; until it is handed over, a deferred release covers an FCFS
// kill landing inside the transfer-charge sleep.
func (ctl *Controller) preparePages(q *cmdQueue, c *infer.Call, phys []int32) error {
	if len(phys) == 0 {
		return nil
	}
	p := ctl.pagePool[q.model]
	pins := make([]infer.PagePin, 0, len(phys))
	unpinAll := func() {
		for _, pp := range pins {
			p.unpin(pp.Page, pp.Gen)
		}
		pins = pins[:0]
	}
	handedOver := false
	defer func() {
		if !handedOver {
			unpinAll()
		}
	}()
	for attempt := 0; ; attempt++ {
		pins = p.pinTouch(phys, pins)
		in, out, ok := p.faultIn(phys)
		if ok {
			ctl.chargeSwap(q.rt, in+out) // may be interrupted by a kill; see defer
			c.PinnedPages = pins
			handedOver = true
			return nil
		}
		// Unpin while waiting so competing faults can make progress.
		unpinAll()
		if attempt >= faultRetries {
			return fmt.Errorf("%w: cannot fault offloaded pages back to device (device tier fully pinned)",
				api.ErrOutOfResources)
		}
		ctl.clock.Sleep(faultBackoff)
		if q.closed {
			return api.ErrQueueClosed
		}
	}
}

// unpinCall releases a call's page pins. Idempotent: exactly one of batch
// completion, queue close, or instance release runs it per call.
func (ctl *Controller) unpinCall(c *infer.Call) {
	if len(c.PinnedPages) == 0 || c.Model == nil {
		return
	}
	p := ctl.pagePool[string(c.Model.Info.ID)]
	for _, pp := range c.PinnedPages {
		p.unpin(pp.Page, pp.Gen)
	}
	c.PinnedPages = nil
}

// newCall stamps common fields and instruments the instance.
func (ctl *Controller) newCall(inst *Instance, op infer.Op) *infer.Call {
	ctl.callSeq++
	inst.InferCalls++
	return &infer.Call{
		Op:   op,
		Seq:  ctl.callSeq,
		Enq:  ctl.clock.Now(),
		Inst: inst.ID,
		Done: sim.NewSignal(ctl.clock),
	}
}

// EmbedText schedules embed_txt: token ids into embedding slots with
// explicit positions.
func (ctl *Controller) EmbedText(inst *Instance, qid api.Queue, tokens, positions []int, dst []api.Embed) (*sim.Signal, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	slots, err := ctl.resolveEmbeds(inst, q, dst)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpEmbedText)
	c.Model = q.rt
	c.TokenIDs = append([]int(nil), tokens...)
	c.Positions = append([]int(nil), positions...)
	c.Outputs = slots
	ctl.enqueue(q, c)
	return c.Done, nil
}

// EmbedImage schedules embed_img.
func (ctl *Controller) EmbedImage(inst *Instance, qid api.Queue, blob []byte, positions []int, dst []api.Embed) (*sim.Signal, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if !q.rt.Info.HasTraitClosure(api.TraitInputImage) {
		return nil, api.ErrNoSuchTrait
	}
	slots, err := ctl.resolveEmbeds(inst, q, dst)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpEmbedImage)
	c.Model = q.rt
	c.Blob = blob
	c.Positions = append([]int(nil), positions...)
	c.Outputs = slots
	ctl.enqueue(q, c)
	return c.Done, nil
}

// Forward schedules the core transformer pass.
func (ctl *Controller) Forward(inst *Instance, qid api.Queue, args api.ForwardArgs) (*sim.Signal, error) {
	c, q, err := ctl.buildForward(inst, qid, args)
	if err != nil {
		return nil, err
	}
	ctl.enqueue(q, c)
	return c.Done, nil
}

// ForwardSampled schedules forward_with_sampling (the fused monolithic-style
// pipeline, TraitFused): optional inline token embedding, forward, and
// on-GPU sampling, one kernel.
func (ctl *Controller) ForwardSampled(inst *Instance, qid api.Queue, args api.ForwardArgs, inlineTokens, inlinePos []int, spec infer.SampleSpec) (*sim.Future[[]int], error) {
	c, q, err := ctl.buildForward(inst, qid, args)
	if err != nil {
		return nil, err
	}
	if len(inlineTokens) > 0 {
		if len(args.InputEmb) > 0 {
			ctl.unpinCall(c) // the call never enqueues; release its page pins
			return nil, fmt.Errorf("%w: both InputEmb and inline tokens", api.ErrBadArgument)
		}
		c.FusedEmb = append([]int(nil), inlineTokens...)
		c.FusedPos = append([]int(nil), inlinePos...)
	}
	c.Sample = &spec
	c.FusedTok = sim.NewFuture[[]int](ctl.clock)
	ctl.enqueue(q, c)
	return c.FusedTok, nil
}

func (ctl *Controller) buildForward(inst *Instance, qid api.Queue, args api.ForwardArgs) (*infer.Call, *cmdQueue, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, nil, err
	}
	phys := make([]int32, 0, len(args.InputKv)+len(args.OutputKv))
	ctxPages, phys, err := ctl.resolvePages(inst, q, args.InputKv, phys)
	if err != nil {
		return nil, nil, err
	}
	outPages, phys, err := ctl.resolvePages(inst, q, args.OutputKv, phys)
	if err != nil {
		return nil, nil, err
	}
	inputs, err := ctl.resolveEmbeds(inst, q, args.InputEmb)
	if err != nil {
		return nil, nil, err
	}
	outputs, err := ctl.resolveEmbeds(inst, q, args.OutputEmb)
	if err != nil {
		return nil, nil, err
	}
	if args.Adapter != "" && !q.rt.Info.HasTraitClosure(api.TraitAdapter) {
		return nil, nil, api.ErrNoSuchTrait
	}
	c := ctl.newCall(inst, infer.OpForward)
	c.Model = q.rt
	c.CtxPages = ctxPages
	c.OutPages = outPages
	c.Inputs = inputs
	c.Outputs = outputs
	c.Mask = args.Mask
	c.Adapter = args.Adapter
	if err := ctl.preparePages(q, c, phys); err != nil {
		return nil, nil, err
	}
	return c, q, nil
}

// NextDist schedules get_next_dist.
func (ctl *Controller) NextDist(inst *Instance, qid api.Queue, emb api.Embed) (*sim.Future[api.Dist], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	slots, err := ctl.resolveEmbeds(inst, q, []api.Embed{emb})
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpNextDist)
	c.Model = q.rt
	c.DistOf = slots[0]
	c.DistFut = sim.NewFuture[infer.DistResult](ctl.clock)
	ctl.enqueue(q, c)

	out := sim.NewFuture[api.Dist](ctl.clock)
	ctl.clock.Go("dist-adapt", func() {
		r, err := c.DistFut.Get()
		if err != nil {
			out.Fail(err)
			return
		}
		out.Resolve(api.Dist{Tokens: r.Tokens, Probs: r.Probs})
	})
	return out, nil
}

// CopyKv schedules copy_kvpage: token-level copy between pages.
func (ctl *Controller) CopyKv(inst *Instance, qid api.Queue, src, dst api.KvPage, srcOff, dstOff, n int) (*sim.Signal, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	pages, phys, err := ctl.resolvePages(inst, q, []api.KvPage{src, dst}, nil)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpCopyKv)
	c.Model = q.rt
	c.SrcPage, c.DstPage = pages[0], pages[1]
	c.SrcOff, c.DstOff, c.NumTokens = srcOff, dstOff, n
	if err := ctl.preparePages(q, c, phys); err != nil {
		return nil, err
	}
	ctl.enqueue(q, c)
	return c.Done, nil
}

// MaskKv schedules mask_kvpage: token-level attention mask bits.
func (ctl *Controller) MaskKv(inst *Instance, qid api.Queue, page api.KvPage, bits []bool) (*sim.Signal, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	pages, phys, err := ctl.resolvePages(inst, q, []api.KvPage{page}, nil)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpMaskKv)
	c.Model = q.rt
	c.MaskPage = pages[0]
	c.MaskBits = append([]bool(nil), bits...)
	if err := ctl.preparePages(q, c, phys); err != nil {
		return nil, err
	}
	ctl.enqueue(q, c)
	return c.Done, nil
}

// Tokenize schedules tokenize.
func (ctl *Controller) Tokenize(inst *Instance, qid api.Queue, text string) (*sim.Future[[]int], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpTokenize)
	c.Model = q.rt
	c.Text = text
	c.TokFut = sim.NewFuture[[]int](ctl.clock)
	ctl.enqueue(q, c)
	return c.TokFut, nil
}

// Detokenize schedules detokenize.
func (ctl *Controller) Detokenize(inst *Instance, qid api.Queue, ids []int) (*sim.Future[string], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpDetokenize)
	c.Model = q.rt
	c.TokenIDs = append([]int(nil), ids...)
	c.TextFut = sim.NewFuture[string](ctl.clock)
	ctl.enqueue(q, c)
	return c.TextFut, nil
}

// GetVocabs schedules get_vocabs.
func (ctl *Controller) GetVocabs(inst *Instance, qid api.Queue) (*sim.Future[[][]byte], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	c := ctl.newCall(inst, infer.OpGetVocabs)
	c.Model = q.rt
	c.VocabFut = sim.NewFuture[[][]byte](ctl.clock)
	ctl.enqueue(q, c)
	return c.VocabFut, nil
}

func (ctl *Controller) resolveEmbeds(inst *Instance, q *cmdQueue, ids []api.Embed) ([]*model.EmbedSlot, error) {
	out := make([]*model.EmbedSlot, len(ids))
	for i, id := range ids {
		ref, ok := inst.vEmbeds[id]
		if !ok || ref.model != q.model {
			return nil, api.ErrBadHandle
		}
		out[i] = q.rt.Embed(ref.phys)
	}
	return out, nil
}

// callTokenWeight prices a call's share of outstanding work in tokens:
// forwards and embeds weigh their fresh tokens, other inference ops weigh
// one, control-side ops weigh nothing.
func callTokenWeight(c *infer.Call) int {
	if c.Op.ControlSide() {
		return 0
	}
	if n := c.NewTokens(); n > 0 {
		return n
	}
	return 1
}

// admitCall / retireCall maintain the outstanding-work counters. A call is
// admitted once at enqueue and retired exactly once: at batch completion
// for dispatched calls, or at queue close for calls that never dispatched.
func (ctl *Controller) admitCall(c *infer.Call) {
	if c.Op.ControlSide() {
		return
	}
	ctl.outstandingCalls++
	ctl.outstandingTokens += callTokenWeight(c)
	ctl.outstandingPrefill += prefillWeight(c)
}

func (ctl *Controller) retireCall(c *infer.Call) {
	if c.Op.ControlSide() {
		return
	}
	ctl.outstandingCalls--
	ctl.outstandingTokens -= callTokenWeight(c)
	ctl.outstandingPrefill -= prefillWeight(c)
}

// prefillWeight counts the fresh tokens of a bulk-prefill forward (more
// than one new token); single-token decode steps weigh zero. The scaler's
// saturation signal reads the aggregate: a replica deep in prefill work
// has long first-token queues ahead of any new launch.
func prefillWeight(c *infer.Call) int {
	if c.Op != infer.OpForward {
		return 0
	}
	if n := c.NewTokens(); n > 1 {
		return n
	}
	return 0
}

// OutstandingCalls reports inference-layer calls admitted but not yet
// completed (queued or in flight).
func (ctl *Controller) OutstandingCalls() int { return ctl.outstandingCalls }

// OutstandingTokens reports the token-weighted outstanding work — the
// cluster's least-outstanding-tokens placement signal.
func (ctl *Controller) OutstandingTokens() int { return ctl.outstandingTokens }

// OutstandingPrefillTokens reports the fresh tokens of admitted
// bulk-prefill forwards not yet completed — a scaler saturation signal.
func (ctl *Controller) OutstandingPrefillTokens() int { return ctl.outstandingPrefill }

// CheaperModel returns the cheapest installed model that is strictly
// cheaper (by weight bytes) than name and whose trait closure covers every
// trait name declares — so anything a program negotiated against the
// original model still negotiates against the substitute. Empty when no
// such model exists. Graceful degradation uses it to downgrade Degradable
// launches near saturation.
func (ctl *Controller) CheaperModel(name string) string {
	cur, ok := ctl.models[name]
	if !ok {
		return ""
	}
	best := ""
	var bestBytes int64
	for _, cand := range ctl.order {
		rt := ctl.models[cand]
		if rt.Spec.WeightBytes >= cur.Spec.WeightBytes {
			continue
		}
		covered := true
		for _, t := range cur.Info.Traits {
			if !rt.Info.HasTraitClosure(t) {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		if best == "" || rt.Spec.WeightBytes < bestBytes {
			best, bestBytes = cand, rt.Spec.WeightBytes
		}
	}
	return best
}

// HasExportNamed reports whether a KV export is registered under name,
// without charging any instance: the cluster router probes replicas with
// it for KV/prefix-affinity placement.
func (ctl *Controller) HasExportNamed(name string) bool {
	_, ok := ctl.exports[name]
	return ok
}

// enqueue adds a call to its queue and pokes the scheduler.
func (ctl *Controller) enqueue(q *cmdQueue, c *infer.Call) {
	ctl.admitCall(c)
	q.pending = append(q.pending, c)
	ctl.sched.onEnqueue(q)
}

// onBatchComplete is the event dispatcher (§5.2 step 5): results arrived
// from the inference layer; release queue ordering and keep dispatching.
func (ctl *Controller) onBatchComplete(b *infer.Batch) {
	for _, c := range b.Calls {
		ctl.retireCall(c)
		ctl.unpinCall(c)
		c.Owner.(*cmdQueue).inflight--
	}
	if (ctl.latencyFn != nil || ctl.firstTokFn != nil) && b.Op == infer.OpForward {
		// Feed the SLO tracker: an instance's first completed forward is
		// its TTFT (launch → first token); each later forward samples the
		// gap since the previous one (ITL). Same-batch forwards of one
		// instance read as zero-gap — they genuinely completed together.
		// The first-token observer fires on the same boundary, marking
		// prefill-replica sessions ready for KV handoff.
		now := ctl.clock.Now()
		for _, c := range b.Calls {
			inst := c.Owner.(*cmdQueue).inst
			if inst.dead {
				continue
			}
			if !inst.sawFirstTok {
				inst.sawFirstTok = true
				if ctl.latencyFn != nil {
					ctl.latencyFn(inst.Class, true, now-inst.launchedAt)
				}
				if ctl.firstTokFn != nil {
					ctl.firstTokFn(inst)
				}
			} else if ctl.latencyFn != nil {
				ctl.latencyFn(inst.Class, false, now-inst.lastTokenAt)
			}
			inst.lastTokenAt = now
		}
	}
	// Re-index each queue once, in order of first appearance, now that its
	// ordering released: this drains queue-ordered control ops and returns
	// the queue to its ready bucket if the next call is dispatchable. A
	// queue's calls sit contiguously in the batch (dispatchOne takes each
	// queue's head run in one go), so comparing with the previous call's
	// queue is a complete dedup (and refresh is idempotent, so the check
	// only saves work).
	var prev *cmdQueue
	for _, c := range b.Calls {
		q := c.Owner.(*cmdQueue)
		c.Owner = nil
		if q != prev {
			prev = q
			ctl.sched.refresh(q)
		}
	}
	ctl.sched.tryDispatch()
}

// drainControlOps executes queue-ordered control ops (dealloc, sync) that
// have reached the head with nothing in flight ahead of them.
func (ctl *Controller) drainControlOps(q *cmdQueue) {
	for q.inflight == 0 {
		h := q.head()
		if h == nil || !h.Op.ControlSide() {
			return
		}
		q.pop()
		switch h.Op {
		case infer.OpDealloc:
			h.ControlFn()
		case infer.OpSync:
			sim.Fire(h.SyncFut)
		}
	}
}

// PoolStats reports page occupancy for a model across both tiers (tests,
// Fig. 7 analysis).
func (ctl *Controller) PoolStats(modelName string) (inUse, capacity int) {
	p := ctl.pagePool[modelName]
	return p.inUse(), p.capacity()
}

// EmbedPoolStats reports embedding-slot occupancy for a model (abort and
// reclamation tests).
func (ctl *Controller) EmbedPoolStats(modelName string) (inUse, capacity int) {
	p := ctl.embPool[modelName]
	return p.inUse(), p.capacity
}

// OffloadStats aggregates tier occupancy and swap traffic across models,
// plus the cumulative PCIe transfer time charged to callers.
func (ctl *Controller) OffloadStats() OffloadStats {
	var out OffloadStats
	for _, name := range ctl.order {
		out.add(ctl.pagePool[name].stats())
	}
	out.XferTime = ctl.xferTime
	return out
}

// ExportResidency reports how many of an export's pages are device-
// resident. The cluster's kv-affinity placement scores holders with it:
// an export whose pages were offloaded to host memory is a colder hit
// than one still resident on the device.
func (ctl *Controller) ExportResidency(name string) (device, total int) {
	entry, ok := ctl.exports[name]
	if !ok {
		return 0, 0
	}
	p := ctl.pagePool[entry.model]
	for _, id := range entry.phys {
		if tier, ok := p.resident(id); ok && tier == tierDevice {
			device++
		}
	}
	return device, len(entry.phys)
}

// MigrateExportsTo moves every KV export this controller holds to dst:
// pages are allocated in dst's pools, their contents copied, the export
// re-registered there, and the source registry references released. The
// autoscaler calls it when a drain completes, so cached context survives
// replica deactivation. Exports that dst cannot host (name taken, pool
// full) stay behind. A physical page shared by several exports moves
// once and stays shared on dst. Returns distinct pages moved and the
// modeled transfer cost: two PCIe crossings for device-resident source
// pages (device -> host -> peer device), one for pages already in the
// host tier.
func (ctl *Controller) MigrateExportsTo(dst *Controller) (pages int, cost time.Duration) {
	if dst == nil || dst == ctl {
		return 0, 0
	}
	moved := make(map[string]map[int32]int32) // model -> src phys -> dst phys
	for _, name := range sortedKeys(ctl.exports) {
		entry := ctl.exports[name]
		if _, taken := dst.exports[name]; taken {
			continue
		}
		dstPool, ok := dst.pagePool[entry.model]
		if !ok {
			continue
		}
		if moved[entry.model] == nil {
			moved[entry.model] = make(map[int32]int32)
		}
		mm := moved[entry.model]
		fresh := 0
		for _, src := range entry.phys {
			if _, done := mm[src]; !done {
				fresh++
			}
		}
		ids, swapped, allocOK := dstPool.alloc(fresh, 0)
		if !allocOK {
			continue
		}
		srcRT, dstRT := ctl.models[entry.model], dst.models[entry.model]
		srcPool := ctl.pagePool[entry.model]
		dstPhys := make([]int32, len(entry.phys))
		next := 0
		for i, src := range entry.phys {
			if id, done := mm[src]; done {
				dstPool.retain(id) // shared across exports: share on dst too
				dstPhys[i] = id
			} else {
				id := ids[next]
				next++
				dstRT.Page(id).CopyFrom(srcRT.Page(src))
				mm[src] = id
				dstPhys[i] = id
				pages++
				crossings := 2
				if tier, ok := srcPool.resident(src); ok && tier == tierHost {
					crossings = 1 // already offloaded: only the host -> peer leg remains
				}
				cost += time.Duration(crossings) * srcRT.Spec.SwapCost(1, srcRT.Info.PageSize)
			}
			srcPool.release(src)
		}
		dst.exports[name] = &exportEntry{model: entry.model, phys: dstPhys}
		delete(ctl.exports, name)
		cost += dstRT.Spec.SwapCost(swapped, dstRT.Info.PageSize)
	}
	return pages, cost
}

// InstanceKVFootprint counts the distinct physical KV pages a session
// holds — what a handoff would copy across the interconnect. Import
// sharing maps one physical page under several virtual handles, so the
// count dedupes by physical reference.
func (ctl *Controller) InstanceKVFootprint(inst *Instance) int {
	seen := make(map[resRef]bool, len(inst.vPages))
	n := 0
	for _, ref := range inst.vPages {
		if !seen[ref] {
			seen[ref] = true
			n++
		}
	}
	return n
}

// InstanceQuiescent reports whether the instance has no queued or
// in-flight inference work on any of its command queues — the pin-safe
// window in which a session handoff may run (no call holds page pins, no
// completion is racing the move).
func (ctl *Controller) InstanceQuiescent(inst *Instance) bool {
	for _, q := range inst.queues {
		if len(q.pending) > 0 || q.inflight > 0 {
			return false
		}
	}
	return true
}

// HandoffSession migrates a quiescent instance's session state — KV
// pages, embedding slots, and command queues — from this controller to
// dst, returning the replacement instance registered there, the number of
// distinct physical pages copied, and the modeled interconnect cost
// (charged by the caller, which holds the cluster's transfer budget).
// The prefill/decode handoff layer calls it at a forward boundary after
// the instance's first token completed on a prefill replica.
//
// Mechanics mirror MigrateExportsTo: pages allocate in dst's pools and
// copy with two PCIe crossings when device-resident at the source
// (device -> host -> peer device), one when already offloaded to the host
// tier, plus dst-side offload cost for pages its pool spilled to make
// room. Virtual handle ids are preserved — the session's queue bindings
// keep working unmodified — and queues are re-created empty under their
// original ids (quiescence guarantees nothing was pending). KV exports
// the instance published stay registered on the source: the registry
// holds its own page references, so cached context remains where affinity
// routing expects it. On success the source instance is released; on
// failure nothing moves and the session keeps running here.
func (ctl *Controller) HandoffSession(inst *Instance, dst *Controller) (*Instance, int, time.Duration, error) {
	if dst == nil || dst == ctl {
		return nil, 0, 0, fmt.Errorf("%w: handoff needs a distinct destination", api.ErrBadArgument)
	}
	if inst == nil || inst.dead {
		return nil, 0, 0, api.ErrTerminated
	}
	if !ctl.InstanceQuiescent(inst) {
		return nil, 0, 0, fmt.Errorf("%w: instance has queued or in-flight work", api.ErrBadArgument)
	}

	// Sorted handle views: same-seed runs must copy in identical order.
	pageIDs := sortedKeys(inst.vPages)
	embedIDs := sortedKeys(inst.vEmbeds)
	queueIDs := sortedKeys(inst.queues)

	// Every model the session touches must exist on dst; count distinct
	// physical pages (import sharing maps one page under several handles)
	// and embeds per model.
	freshPages := make(map[string]int)
	pageSeen := make(map[resRef]bool, len(pageIDs))
	for _, id := range pageIDs {
		ref := inst.vPages[id]
		if dst.pagePool[ref.model] == nil {
			return nil, 0, 0, fmt.Errorf("%w: handoff destination lacks %q", api.ErrNoSuchModel, ref.model)
		}
		if !pageSeen[ref] {
			pageSeen[ref] = true
			freshPages[ref.model]++
		}
	}
	embedCount := make(map[string]int)
	for _, id := range embedIDs {
		ref := inst.vEmbeds[id]
		if dst.embPool[ref.model] == nil {
			return nil, 0, 0, fmt.Errorf("%w: handoff destination lacks %q", api.ErrNoSuchModel, ref.model)
		}
		embedCount[ref.model]++
	}
	for _, qid := range queueIDs {
		if dst.models[inst.queues[qid].model] == nil {
			return nil, 0, 0, fmt.Errorf("%w: handoff destination lacks %q", api.ErrNoSuchModel, inst.queues[qid].model)
		}
	}

	// Allocate everything on dst up front, in model registration order,
	// rolling back on failure so a refused handoff leaves both replicas
	// untouched.
	type pageGrant struct {
		ids     []int32
		swapped int
	}
	pageGrants := make(map[string]*pageGrant)
	embedGrants := make(map[string][]int32)
	rollback := func() {
		for _, m := range dst.order {
			if g := pageGrants[m]; g != nil {
				for _, id := range g.ids {
					dst.pagePool[m].release(id)
				}
			}
			for _, id := range embedGrants[m] {
				dst.embPool[m].release(id)
			}
		}
	}
	for _, m := range dst.order {
		if n := freshPages[m]; n > 0 {
			ids, swapped, ok := dst.pagePool[m].alloc(n, 0)
			if !ok {
				rollback()
				return nil, 0, 0, fmt.Errorf("%w: destination cannot host %d KV pages of %s", api.ErrOutOfResources, n, m)
			}
			pageGrants[m] = &pageGrant{ids: ids, swapped: swapped}
		}
		if n := embedCount[m]; n > 0 {
			ids, ok := dst.embPool[m].alloc(n)
			if !ok {
				rollback()
				return nil, 0, 0, fmt.Errorf("%w: destination cannot host %d embeds of %s", api.ErrOutOfResources, n, m)
			}
			embedGrants[m] = ids
		}
	}

	dst.instSeq++
	ni := &Instance{
		ID:         dst.instSeq,
		Name:       inst.Name,
		CreatedSeq: dst.instSeq,
		Proc:       inst.Proc,
		vEmbeds:    make(map[api.Embed]resRef, len(inst.vEmbeds)),
		vPages:     make(map[api.KvPage]resRef, len(inst.vPages)),
		nextEmbed:  inst.nextEmbed,
		nextPage:   inst.nextPage,
		queues:     make(map[api.Queue]*cmdQueue, len(inst.queues)),
		onKill:     inst.onKill,

		MaxQueues:       inst.MaxQueues,
		MaxKvPages:      inst.MaxKvPages,
		DefaultPriority: inst.DefaultPriority,
		Class:           inst.Class,
		Degraded:        inst.Degraded,

		launchedAt:  inst.launchedAt,
		sawFirstTok: inst.sawFirstTok,
		lastTokenAt: inst.lastTokenAt,

		ControlCalls: inst.ControlCalls,
		InferCalls:   inst.InferCalls,
		OutputTokens: inst.OutputTokens,
	}
	dst.instances[ni.ID] = ni

	var pages int
	var cost time.Duration
	movedTo := make(map[resRef]int32, len(pageSeen))
	nextPage := make(map[string]int)
	for _, vid := range pageIDs {
		ref := inst.vPages[vid]
		dstPhys, done := movedTo[ref]
		if done {
			dst.pagePool[ref.model].retain(dstPhys) // shared within the session: share on dst too
		} else {
			g := pageGrants[ref.model]
			dstPhys = g.ids[nextPage[ref.model]]
			nextPage[ref.model]++
			movedTo[ref] = dstPhys
			srcRT, dstRT := ctl.models[ref.model], dst.models[ref.model]
			dstRT.Page(dstPhys).CopyFrom(srcRT.Page(ref.phys))
			pages++
			crossings := 2
			if tier, ok := ctl.pagePool[ref.model].resident(ref.phys); ok && tier == tierHost {
				crossings = 1 // already offloaded: only the host -> peer leg remains
			}
			cost += time.Duration(crossings) * srcRT.Spec.SwapCost(1, srcRT.Info.PageSize)
		}
		ni.vPages[vid] = resRef{model: ref.model, phys: dstPhys}
	}
	for _, m := range dst.order {
		if g := pageGrants[m]; g != nil && g.swapped > 0 {
			rt := dst.models[m]
			cost += rt.Spec.SwapCost(g.swapped, rt.Info.PageSize)
		}
	}
	nextEmb := make(map[string]int)
	for _, vid := range embedIDs {
		ref := inst.vEmbeds[vid]
		dstPhys := embedGrants[ref.model][nextEmb[ref.model]]
		nextEmb[ref.model]++
		copyEmbed(ctl.models[ref.model].Embed(ref.phys), dst.models[ref.model].Embed(dstPhys))
		ni.vEmbeds[vid] = resRef{model: ref.model, phys: dstPhys}
	}
	for _, qid := range queueIDs {
		q := inst.queues[qid]
		ni.queues[qid] = &cmdQueue{id: qid, inst: ni, model: q.model, rt: dst.models[q.model], priority: q.priority}
		if uint64(qid) > dst.queueSeq {
			// Future CreateQueue calls on dst must not reuse a mirrored id.
			dst.queueSeq = uint64(qid)
		}
	}

	ctl.ReleaseInstance(inst)
	return ni, pages, cost, nil
}

// copyEmbed deep-copies one embedding slot's vector and metadata.
func copyEmbed(src, dst *model.EmbedSlot) {
	dst.Vec = append(dst.Vec[:0], src.Vec...)
	dst.Pos = src.Pos
	dst.Valid = src.Valid
}

// ModelRuntime returns the runtime for a model id.
func (ctl *Controller) ModelRuntime(name string) *infer.ModelRuntime { return ctl.models[name] }

// SortedInstanceIDs aids deterministic test assertions.
func (ctl *Controller) SortedInstanceIDs() []uint64 {
	return sortedKeys(ctl.instances)
}

// sortedKeys returns a map's keys in ascending order. The controller's
// walks over maps whose order reaches behaviour (which call fails first,
// which id is freed first) go through it, never through map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

package core

import (
	"fmt"
	"strings"
	"time"

	"pie/internal/infer"
)

// Tiered KV-cache pool. The device pool (§5.3) gains a second, host-memory
// tier sized as a ratio of the device capacity, following "Pie: Pooling
// CPU Memory for LLM Inference": cold pages spill over PCIe to a pinned
// host pool and fault back in when a forward references them, recovering
// effective KV capacity at a bounded transfer cost. Residency is a
// per-physical-page property; handles, refcounts, export/import sharing,
// and queue-scoped reclamation are tier-agnostic and unchanged.

// pageTier is a page's current residency.
type pageTier uint8

const (
	tierDevice pageTier = iota
	tierHost
)

// EvictionPolicy names an offload victim-selection strategy
// (pie.Config.KVEviction).
type EvictionPolicy int

const (
	// EvictLRU offloads the least-recently-used device page.
	EvictLRU EvictionPolicy = iota
	// EvictPriority offloads pages of the lowest-priority command queue
	// first (the Inferlet v2 queue priority), LRU within a priority class.
	EvictPriority
)

func (p EvictionPolicy) String() string {
	if p == EvictPriority {
		return "priority"
	}
	return "lru"
}

// ParseEviction resolves a policy name (CLI flags).
func ParseEviction(s string) (EvictionPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "lru":
		return EvictLRU, nil
	case "priority", "pri", "priority-lru":
		return EvictPriority, nil
	}
	return 0, fmt.Errorf("core: unknown eviction policy %q", s)
}

// OffloadConfig parameterizes the host-memory KV tier. The zero value
// disables offload: the pool is the paper's device-only single tier.
type OffloadConfig struct {
	// HostRatio sizes the host tier as a multiple of the device page
	// capacity (1.0 doubles effective capacity). 0 disables the tier.
	HostRatio float64
	// Eviction selects the offload victim policy.
	Eviction EvictionPolicy
}

// OffloadStats snapshots a pool's tier occupancy and swap traffic.
// Aggregated across models by Controller.OffloadStats and across replicas
// by pie.Engine.Stats.
type OffloadStats struct {
	DeviceInUse    int
	DeviceCapacity int
	HostInUse      int
	HostCapacity   int
	SwapInPages    int // pages faulted host -> device
	SwapOutPages   int // pages offloaded device -> host
	PeakInUse      int // high-water mark of live pages across both tiers
	XferTime       time.Duration
}

func (s *OffloadStats) add(o OffloadStats) {
	s.DeviceInUse += o.DeviceInUse
	s.DeviceCapacity += o.DeviceCapacity
	s.HostInUse += o.HostInUse
	s.HostCapacity += o.HostCapacity
	s.SwapInPages += o.SwapInPages
	s.SwapOutPages += o.SwapOutPages
	s.PeakInUse += o.PeakInUse
	s.XferTime += o.XferTime
}

// Evictor ranks device-resident pages for offload. Implementations must
// induce a total, deterministic order (ties are broken by page id at the
// pool), so same-seed runs pick identical victims.
type Evictor interface {
	Name() string
	// Prefer reports whether candidate a should be offloaded before b.
	Prefer(a, b *pageMeta) bool
}

type lruEvictor struct{}

func (lruEvictor) Name() string               { return "lru" }
func (lruEvictor) Prefer(a, b *pageMeta) bool { return a.lastUse < b.lastUse }

type priorityEvictor struct{}

func (priorityEvictor) Name() string { return "priority" }
func (priorityEvictor) Prefer(a, b *pageMeta) bool {
	if a.pri != b.pri {
		return a.pri < b.pri // lower queue priority offloads first
	}
	return a.lastUse < b.lastUse
}

func evictorFor(p EvictionPolicy) Evictor {
	if p == EvictPriority {
		return priorityEvictor{}
	}
	return lruEvictor{}
}

// pageMeta tracks one materialized physical page id.
type pageMeta struct {
	live    bool // allocated (not on the free list)
	tier    pageTier
	refs    int
	gen     uint64 // allocation generation: stale unpins from recycled ids are ignored
	lastUse uint64 // recency stamp (pool-wide monotone counter)
	pri     int    // allocating queue's scheduler priority
	pins    int    // referencing calls in flight or queued; pinned pages never offload
	mark    uint64 // dedup epoch: equal to the pool's epoch once seen in the current pass
}

// tieredPool allocates physical KV page ids across a device tier and an
// optional host tier. Fresh pages always materialize on the device (they
// are about to be written); when device slots run out, cold unpinned
// pages offload to the host tier. Refcounts (export/import sharing) and
// the free list span both tiers.
//
// Ids are dense by construction (a high-water mark plus a free list), so
// page metadata lives in a table indexed by id: every per-call lookup is
// an index, and a pass over a call's pages dedups repeated mentions by
// stamping each entry with a fresh epoch instead of building a set.
type tieredPool struct {
	devCap  int
	hostCap int
	meta    []pageMeta // indexed by id; len is the high-water mark of materialized ids
	free    []int32    // released ids available for reuse
	evict   Evictor

	devInUse  int
	hostInUse int
	useSeq    uint64
	genSeq    uint64
	epoch     uint64

	// Swap traffic counters (OffloadStats).
	swapIn    int
	swapOut   int
	peakInUse int
}

func newTieredPool(devCap, hostCap int, evict Evictor) *tieredPool {
	if evict == nil {
		evict = lruEvictor{}
	}
	return &tieredPool{devCap: devCap, hostCap: hostCap, evict: evict}
}

// capacity is the pool's total page capacity across both tiers.
func (p *tieredPool) capacity() int { return p.devCap + p.hostCap }

// inUse reports live pages across both tiers.
func (p *tieredPool) inUse() int { return p.devInUse + p.hostInUse }

// available reports how many pages can be handed out right now, assuming
// cold pages may offload. Pinned pages can make this optimistic: alloc
// re-checks that enough device room can actually be cleared.
func (p *tieredPool) available() int { return p.capacity() - p.inUse() }

// lookup returns a live page's metadata, or nil for free or unknown ids.
func (p *tieredPool) lookup(id int32) *pageMeta {
	if id < 0 || int(id) >= len(p.meta) || !p.meta[id].live {
		return nil
	}
	return &p.meta[id]
}

// touch stamps a page most-recently-used.
func (p *tieredPool) touch(id int32) {
	if m := p.lookup(id); m != nil {
		p.useSeq++
		m.lastUse = p.useSeq
	}
}

// pin marks a page referenced by a queued or in-flight call; pinned pages
// are never offload victims (their memory is addressed by a kernel). It
// returns the page's allocation generation, which the matching unpin must
// present: an id can be freed and recycled while a terminated instance's
// in-flight call still holds a pin record, and a stale unpin must never
// touch the new owner's count.
func (p *tieredPool) pin(id int32) (gen uint64, ok bool) {
	m := p.lookup(id)
	if m == nil {
		return 0, false
	}
	m.pins++
	return m.gen, true
}

// unpin releases one pin taken at generation gen; stale generations are
// ignored (see pin).
func (p *tieredPool) unpin(id int32, gen uint64) {
	if m := p.lookup(id); m != nil && m.gen == gen && m.pins > 0 {
		m.pins--
	}
}

// pinTouch pins and stamps most-recently-used each distinct live id in
// ids, in order of first mention, appending the pins to dst. Repeated
// mentions (ReadKv and AppendKv commonly name the same pages) pin and
// touch once; free ids are skipped.
func (p *tieredPool) pinTouch(ids []int32, dst []infer.PagePin) []infer.PagePin {
	p.epoch++
	for _, id := range ids {
		m := p.lookup(id)
		if m == nil || m.mark == p.epoch {
			continue
		}
		m.mark = p.epoch
		gen, _ := p.pin(id)
		p.touch(id)
		dst = append(dst, infer.PagePin{Page: id, Gen: gen})
	}
	return dst
}

// victims picks up to k offload candidates — device-resident, unpinned —
// in evictor order with page-id tie-break. The scan walks materialized
// ids in order, so the choice is deterministic.
func (p *tieredPool) victims(k int) []int32 {
	if k <= 0 {
		return nil
	}
	cands := make([]int32, 0, p.devInUse)
	for id := range p.meta {
		if m := &p.meta[id]; m.live && m.tier == tierDevice && m.pins == 0 {
			cands = append(cands, int32(id))
		}
	}
	// Selection sort of the k best: k is small (pages needed by one call).
	for i := 0; i < k && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			a, b := &p.meta[cands[j]], &p.meta[cands[best]]
			if p.evict.Prefer(a, b) || (!p.evict.Prefer(b, a) && cands[j] < cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// makeDeviceRoom offloads victims until n device slots are free. It
// reports the number of pages swapped out, or ok=false — leaving the
// pool untouched, since feasibility is checked before any swap — when
// the host tier cannot absorb enough cold pages or too few unpinned
// victims exist.
func (p *tieredPool) makeDeviceRoom(n int) (swapped int, ok bool) {
	devFree := p.devCap - p.devInUse
	if devFree >= n {
		return 0, true
	}
	need := n - devFree
	if p.hostCap-p.hostInUse < need {
		return 0, false
	}
	vs := p.victims(need)
	if len(vs) < need {
		return 0, false
	}
	p.offload(vs)
	return need, true
}

// offload moves the given device-resident pages to the host tier,
// updating tier counters and swap stats.
func (p *tieredPool) offload(ids []int32) {
	for _, id := range ids {
		p.meta[id].tier = tierHost
		p.devInUse--
		p.hostInUse++
		p.swapOut++
	}
}

// alloc hands out n fresh device-resident ids with refcount 1 and the
// given queue priority, offloading cold pages to the host tier as needed.
// It reports the pages swapped out (for transfer-cost charging) and
// failure — leaving the pool untouched — when total capacity or
// clearable device room is insufficient.
func (p *tieredPool) alloc(n, pri int) (ids []int32, swappedOut int, ok bool) {
	if p.available() < n {
		return nil, 0, false
	}
	swappedOut, ok = p.makeDeviceRoom(n)
	if !ok {
		return nil, 0, false
	}
	ids = make([]int32, 0, n)
	for len(ids) < n && len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		ids = append(ids, id)
	}
	for len(ids) < n {
		ids = append(ids, int32(len(p.meta)))
		p.meta = append(p.meta, pageMeta{})
	}
	for _, id := range ids {
		p.useSeq++
		p.genSeq++
		p.meta[id] = pageMeta{live: true, refs: 1, tier: tierDevice, gen: p.genSeq, lastUse: p.useSeq, pri: pri}
	}
	p.devInUse += n
	if p.inUse() > p.peakInUse {
		p.peakInUse = p.inUse()
	}
	return ids, swappedOut, true
}

// faultIn brings every host-resident page in ids back to the device tier
// (prefetch for a forward/copy/mask that references them), offloading
// other cold pages to make room. Duplicate ids count once. It reports
// pages swapped in and out; a fault that cannot clear device room fails
// with ok=false and performs no swaps. Callers pin ids first, so
// room-making never victimizes the faulting set.
func (p *tieredPool) faultIn(ids []int32) (in, out int, ok bool) {
	need := 0
	p.epoch++
	for _, id := range ids {
		if m := p.lookup(id); m != nil && m.mark != p.epoch {
			m.mark = p.epoch
			if m.tier == tierHost {
				need++
			}
		}
	}
	if need == 0 {
		return 0, 0, true
	}
	// Faulting k pages to the device frees k host slots, so host room is
	// never the constraint here — only clearable device room is.
	if evict := need - (p.devCap - p.devInUse); evict > 0 {
		vs := p.victims(evict)
		if len(vs) < evict {
			return 0, 0, false
		}
		p.offload(vs)
		out = evict
	}
	for _, id := range ids {
		if m := p.lookup(id); m != nil && m.tier == tierHost {
			m.tier = tierDevice
			p.hostInUse--
			p.devInUse++
			p.swapIn++
			p.useSeq++
			m.lastUse = p.useSeq
			in++
		}
	}
	return in, out, true
}

// retain bumps an id's refcount (export/import sharing).
func (p *tieredPool) retain(id int32) {
	if m := p.lookup(id); m != nil {
		m.refs++
	}
}

// release drops one reference; the id returns to the free list at zero.
// It reports whether the id was actually freed.
func (p *tieredPool) release(id int32) bool {
	m := p.lookup(id)
	if m == nil {
		return false
	}
	if m.refs > 1 {
		m.refs--
		return false
	}
	if m.tier == tierDevice {
		p.devInUse--
	} else {
		p.hostInUse--
	}
	*m = pageMeta{}
	p.free = append(p.free, id)
	return true
}

// resident reports the page's tier; ok=false for unknown/free ids.
func (p *tieredPool) resident(id int32) (pageTier, bool) {
	m := p.lookup(id)
	if m == nil {
		return 0, false
	}
	return m.tier, true
}

// stats snapshots the pool's offload counters.
func (p *tieredPool) stats() OffloadStats {
	return OffloadStats{
		DeviceInUse:    p.devInUse,
		DeviceCapacity: p.devCap,
		HostInUse:      p.hostInUse,
		HostCapacity:   p.hostCap,
		SwapInPages:    p.swapIn,
		SwapOutPages:   p.swapOut,
		PeakInUse:      p.peakInUse,
	}
}

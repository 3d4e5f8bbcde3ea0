package baseline

import "fmt"

// KV block accounting and the two prefix-reuse policies the paper's
// baselines implement: vLLM's block-hash automatic prefix caching and
// SGLang's RadixAttention token trie. Both are refcounted over the shared
// block pool and evict least-recently-used entries under pressure. Every
// cache operation costs O(blocks touched): keys are rolling hashes and
// recency is an intrusive list, so nothing re-hashes a prompt or scans
// the cache.

type blockPool struct {
	capacity int
	free     []int32
	// refs counts references by block id. Ids are handed out densely, so
	// len(refs) is the number of ids ever used.
	refs []int32
}

func newBlockPool(capacity int) *blockPool { return &blockPool{capacity: capacity} }

func (p *blockPool) available() int { return len(p.free) + (p.capacity - len(p.refs)) }
func (p *blockPool) inUse() int     { return len(p.refs) - len(p.free) }

func (p *blockPool) alloc(n int) ([]int32, bool) {
	if p.available() < n {
		return nil, false
	}
	out := make([]int32, 0, n)
	for len(out) < n && len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.refs[id] = 1
		out = append(out, id)
	}
	for len(out) < n {
		out = append(out, int32(len(p.refs)))
		p.refs = append(p.refs, 1)
	}
	return out, true
}

func (p *blockPool) retain(id int32) { p.refs[id]++ }

// release drops one reference to a block. Releasing a free block is a
// bookkeeping bug that would put its id on the free list twice, so it
// panics instead.
func (p *blockPool) release(id int32) {
	switch p.refs[id] {
	case 0:
		panic(fmt.Sprintf("baseline: release of free KV block %d", id))
	case 1:
		p.free = append(p.free, id)
	}
	p.refs[id]--
}

// prefixCache abstracts the reuse policy.
type prefixCache interface {
	// match returns how many leading prompt tokens are cached and the
	// blocks holding them (caller must retain them).
	match(prompt []int) (tokens int, blocks []int32)
	// insert registers the blocks holding prompt followed by output for
	// future reuse, retaining them in the pool.
	insert(prompt, output []int, blocks []int32, pool *blockPool)
	// evict drops LRU entries until `need` blocks could be allocated; it
	// reports whether anything was freed.
	evict(pool *blockPool, need int) bool
}

type nullCache struct{}

func (nullCache) match([]int) (int, []int32)               { return 0, nil }
func (nullCache) insert([]int, []int, []int32, *blockPool) {}
func (nullCache) evict(*blockPool, int) bool               { return false }

const fnvPrime = 1099511628211

// fnvFold folds tokens into a running FNV-1a-style hash.
func fnvFold(h uint64, tokens []int) uint64 {
	for _, t := range tokens {
		h = (h ^ uint64(t)) * fnvPrime
	}
	return h
}

// foldSpan folds tokens [lo, hi) of the concatenation a++b into h.
func foldSpan(h uint64, a, b []int, lo, hi int) uint64 {
	if lo < len(a) {
		h = fnvFold(h, a[lo:min(hi, len(a))])
	}
	if hi > len(a) {
		h = fnvFold(h, b[max(lo-len(a), 0):hi-len(a)])
	}
	return h
}

// lruList stores cache entries in one slice linked in recency order by
// int32 slot indices, so entries cost no heap object each and every list
// operation is O(1). Slot 0 is the sentinel: its next is the least
// recently used entry, its prev the most recently used, and a link of 0
// means the list end.
type lruList[T any] struct {
	slots []lruSlot[T]
	free  int32 // first recycled slot, chained through next; 0 when none
}

type lruSlot[T any] struct {
	prev, next int32
	v          T
}

func newLRUList[T any]() lruList[T] { return lruList[T]{slots: make([]lruSlot[T], 1)} }

// at returns the entry in slot i; the pointer is invalidated by add.
func (l *lruList[T]) at(i int32) *T { return &l.slots[i].v }

// oldest returns the least recently used slot, or 0 when the list is empty.
func (l *lruList[T]) oldest() int32 { return l.slots[0].next }

// add stores v as the most recently used entry and returns its slot.
func (l *lruList[T]) add(v T) int32 {
	i := l.free
	if i != 0 {
		l.free = l.slots[i].next
		l.slots[i].v = v
	} else {
		i = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot[T]{v: v})
	}
	l.link(i)
	return i
}

// remove unlinks slot i and recycles it.
func (l *lruList[T]) remove(i int32) {
	l.unlink(i)
	l.slots[i] = lruSlot[T]{next: l.free}
	l.free = i
}

// touch makes the slots of one prompt, given shallowest block first, the
// most recently used entries, with the deepest nearest the LRU end. Among
// blocks used at the same moment the deepest is then evicted first, as in
// vLLM's free-block queue, and in a trie every node stays more recently
// used than its descendants.
func (l *lruList[T]) touch(path []int32) {
	for j := len(path) - 1; j >= 0; j-- {
		l.unlink(path[j])
		l.link(path[j])
	}
}

// evict releases and removes least recently used entries until need
// blocks could be allocated, and reports whether it removed any. drop
// unindexes an entry from its cache and returns the entry's block.
func (l *lruList[T]) evict(pool *blockPool, need int, drop func(*T) int32) bool {
	freed := false
	for i := l.oldest(); i != 0 && pool.available() < need; i = l.oldest() {
		pool.release(drop(l.at(i)))
		l.remove(i)
		freed = true
	}
	return freed
}

func (l *lruList[T]) link(i int32) {
	last := l.slots[0].prev
	l.slots[i].prev, l.slots[i].next = last, 0
	l.slots[last].next = i
	l.slots[0].prev = i
}

func (l *lruList[T]) unlink(i int32) {
	prev, next := l.slots[i].prev, l.slots[i].next
	l.slots[prev].next = next
	l.slots[next].prev = prev
}

// hashCache is vLLM-style: block i of a prompt is keyed by the chain hash
// of tokens [0, (i+1)*pageSize), computed incrementally block by block.
type hashCache struct {
	pageSize int
	index    map[uint64]int32 // chain hash → slot in lru
	lru      lruList[hashEntry]
	path     []int32 // scratch: slots touched by one call, in block order
}

type hashEntry struct {
	key   uint64
	block int32
}

const chainOffset = 14695981039346656037

func newHashCache(pageSize int) *hashCache {
	return &hashCache{pageSize: pageSize, index: make(map[uint64]int32), lru: newLRUList[hashEntry]()}
}

func (c *hashCache) match(prompt []int) (int, []int32) {
	var blocks []int32
	c.path = c.path[:0]
	h := uint64(chainOffset)
	for end := c.pageSize; end <= len(prompt); end += c.pageSize {
		h = fnvFold(h, prompt[end-c.pageSize:end])
		i, ok := c.index[h]
		if !ok {
			break
		}
		c.path = append(c.path, i)
		blocks = append(blocks, c.lru.at(i).block)
	}
	c.lru.touch(c.path)
	return len(blocks) * c.pageSize, blocks
}

// insert leaves blocks that are already cached where they are in the LRU
// order; only the newly cached ones become most recently used.
func (c *hashCache) insert(prompt, output []int, blocks []int32, pool *blockPool) {
	c.path = c.path[:0]
	h := uint64(chainOffset)
	full := min((len(prompt)+len(output))/c.pageSize, len(blocks))
	for i := 0; i < full; i++ {
		h = foldSpan(h, prompt, output, i*c.pageSize, (i+1)*c.pageSize)
		if _, dup := c.index[h]; dup {
			continue
		}
		pool.retain(blocks[i])
		slot := c.lru.add(hashEntry{key: h, block: blocks[i]})
		c.index[h] = slot
		c.path = append(c.path, slot)
	}
	c.lru.touch(c.path)
}

func (c *hashCache) evict(pool *blockPool, need int) bool {
	return c.lru.evict(pool, need, func(e *hashEntry) int32 {
		delete(c.index, e.key)
		return e.block
	})
}

// radixCache is SGLang's RadixAttention: a token trie whose edges are
// block-sized token runs. Its nodes live in lru; slot 0, the list
// sentinel, doubles as the trie root, so a parent of 0 is the root.
type radixCache struct {
	pageSize int
	lru      lruList[radixNode]
	path     []int32 // scratch: the root path one call touched
}

type radixNode struct {
	children map[uint64]int32 // by blockKey; nil until the first child
	parent   int32
	key      uint64 // this node's key in its parent's children
	block    int32
}

const blockOffset = 1469598103934665603

func newRadixCache(pageSize int) *radixCache {
	return &radixCache{pageSize: pageSize, lru: newLRUList[radixNode]()}
}

func blockKey(block []int) uint64 { return fnvFold(blockOffset, block) }

func (c *radixCache) match(prompt []int) (int, []int32) {
	var blocks []int32
	c.path = c.path[:0]
	node := int32(0)
	for end := c.pageSize; end <= len(prompt); end += c.pageSize {
		child, ok := c.lru.at(node).children[blockKey(prompt[end-c.pageSize:end])]
		if !ok {
			break
		}
		c.path = append(c.path, child)
		blocks = append(blocks, c.lru.at(child).block)
		node = child
	}
	c.lru.touch(c.path)
	return len(blocks) * c.pageSize, blocks
}

func (c *radixCache) insert(prompt, output []int, blocks []int32, pool *blockPool) {
	c.path = c.path[:0]
	node := int32(0)
	full := min((len(prompt)+len(output))/c.pageSize, len(blocks))
	for i := 0; i < full; i++ {
		key := foldSpan(blockOffset, prompt, output, i*c.pageSize, (i+1)*c.pageSize)
		child, ok := c.lru.at(node).children[key]
		if !ok {
			pool.retain(blocks[i])
			child = c.lru.add(radixNode{parent: node, key: key, block: blocks[i]})
			parent := c.lru.at(node)
			if parent.children == nil {
				parent.children = make(map[uint64]int32)
			}
			parent.children[key] = child
		}
		c.path = append(c.path, child)
		node = child
	}
	c.lru.touch(c.path)
}

// evict removes LRU leaves (RadixAttention evicts bottom-up). The LRU
// entry is always a leaf, because touch keeps every node more recently
// used than its descendants.
func (c *radixCache) evict(pool *blockPool, need int) bool {
	return c.lru.evict(pool, need, func(n *radixNode) int32 {
		delete(c.lru.at(n.parent).children, n.key)
		return n.block
	})
}

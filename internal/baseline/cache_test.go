package baseline

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
)

// chainHash is the reference chain key: the hash of prompt[:upto],
// computed from token 0.
func chainHash(prompt []int, upto int) uint64 {
	var h uint64 = 14695981039346656037
	for _, t := range prompt[:upto] {
		h = (h ^ uint64(t)) * 1099511628211
	}
	return h
}

// oracleHash is the quadratic hash cache: it stamps entries with a tick
// and scans them all per eviction, taking the lowest (lastUsed, -depth).
type oracleHash struct {
	pageSize int
	entries  map[uint64]*oracleEntry
	tick     int
}

type oracleEntry struct {
	block           int32
	lastUsed, depth int
}

func newOracleHash(pageSize int) *oracleHash {
	return &oracleHash{pageSize: pageSize, entries: make(map[uint64]*oracleEntry)}
}

// before orders entries by eviction priority: least recently used first,
// and among blocks used at the same tick the deepest first.
func (a *oracleEntry) before(b *oracleEntry) bool {
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.depth > b.depth
}

func (c *oracleHash) match(prompt []int) (int, []int32) {
	c.tick++
	var blocks []int32
	for i := 0; i < len(prompt)/c.pageSize; i++ {
		e, ok := c.entries[chainHash(prompt, (i+1)*c.pageSize)]
		if !ok {
			break
		}
		e.lastUsed = c.tick
		blocks = append(blocks, e.block)
	}
	return len(blocks) * c.pageSize, blocks
}

func (c *oracleHash) insert(prompt, output []int, blocks []int32, pool *blockPool) {
	c.tick++
	seq := append(append([]int(nil), prompt...), output...)
	for i := 0; i < len(seq)/c.pageSize && i < len(blocks); i++ {
		key := chainHash(seq, (i+1)*c.pageSize)
		if _, dup := c.entries[key]; dup {
			continue
		}
		pool.retain(blocks[i])
		c.entries[key] = &oracleEntry{block: blocks[i], lastUsed: c.tick, depth: i}
	}
}

func (c *oracleHash) evict(pool *blockPool, need int) bool {
	freed := false
	for pool.available() < need && len(c.entries) > 0 {
		var victim uint64
		var best *oracleEntry
		for k, e := range c.entries {
			if best == nil || e.before(best) {
				victim, best = k, e
			}
		}
		pool.release(best.block)
		delete(c.entries, victim)
		freed = true
	}
	return freed
}

// order lists cached blocks in eviction order.
func (c *oracleHash) order() []int32 {
	es := slices.Collect(maps.Values(c.entries))
	sort.Slice(es, func(i, j int) bool { return es[i].before(es[j]) })
	out := make([]int32, len(es))
	for i, e := range es {
		out[i] = e.block
	}
	return out
}

// oracleRadix is the quadratic radix cache: every eviction walks the
// whole trie for the leaf with the lowest (lastUsed, -depth).
type oracleRadix struct {
	pageSize int
	root     *oracleNode
	tick     int
}

type oracleNode struct {
	oracleEntry
	children map[uint64]*oracleNode
}

func newOracleRadix(pageSize int) *oracleRadix {
	return &oracleRadix{pageSize: pageSize, root: &oracleNode{children: map[uint64]*oracleNode{}}}
}

func (c *oracleRadix) match(prompt []int) (int, []int32) {
	c.tick++
	node := c.root
	var blocks []int32
	for i := 0; (i+1)*c.pageSize <= len(prompt); i++ {
		child, ok := node.children[blockKey(prompt[i*c.pageSize:(i+1)*c.pageSize])]
		if !ok {
			break
		}
		child.lastUsed = c.tick
		blocks = append(blocks, child.block)
		node = child
	}
	return len(blocks) * c.pageSize, blocks
}

func (c *oracleRadix) insert(prompt, output []int, blocks []int32, pool *blockPool) {
	c.tick++
	seq := append(append([]int(nil), prompt...), output...)
	node := c.root
	for i := 0; (i+1)*c.pageSize <= len(seq) && i < len(blocks); i++ {
		key := blockKey(seq[i*c.pageSize : (i+1)*c.pageSize])
		child, ok := node.children[key]
		if !ok {
			pool.retain(blocks[i])
			child = &oracleNode{oracleEntry{block: blocks[i], depth: i}, map[uint64]*oracleNode{}}
			node.children[key] = child
		}
		child.lastUsed = c.tick
		node = child
	}
}

func (c *oracleRadix) evict(pool *blockPool, need int) bool {
	freed := false
	for pool.available() < need {
		var parent, best *oracleNode
		var victim uint64
		var walk func(n *oracleNode)
		walk = func(n *oracleNode) {
			for k, child := range n.children {
				if len(child.children) > 0 {
					walk(child)
				} else if best == nil || child.before(&best.oracleEntry) {
					parent, best, victim = n, child, k
				}
			}
		}
		walk(c.root)
		if best == nil {
			break
		}
		pool.release(best.block)
		delete(parent.children, victim)
		freed = true
	}
	return freed
}

func (c *oracleRadix) order() []int32 {
	var es []*oracleEntry
	var walk func(n *oracleNode)
	walk = func(n *oracleNode) {
		for _, child := range n.children {
			es = append(es, &child.oracleEntry)
			walk(child)
		}
	}
	walk(c.root)
	sort.Slice(es, func(i, j int) bool { return es[i].before(es[j]) })
	out := make([]int32, len(es))
	for i, e := range es {
		out[i] = e.block
	}
	return out
}

// lruOrder lists the blocks on an LRU list, least recently used first.
func lruOrder[T any](l *lruList[T], block func(*T) int32) []int32 {
	var out []int32
	for i := l.oldest(); i != 0; i = l.slots[i].next {
		out = append(out, block(l.at(i)))
	}
	return out
}

func (c *hashCache) order() []int32 {
	return lruOrder(&c.lru, func(e *hashEntry) int32 { return e.block })
}

func (c *radixCache) order() []int32 {
	return lruOrder(&c.lru, func(n *radixNode) int32 { return n.block })
}

// checkHeadIsLeaf fails unless the radix cache's eviction candidate has no
// children.
func checkHeadIsLeaf(t *testing.T, c *radixCache) {
	t.Helper()
	if i := c.lru.oldest(); i != 0 && len(c.lru.at(i).children) != 0 {
		t.Fatalf("LRU head (block %d) has %d children", c.lru.at(i).block, len(c.lru.at(i).children))
	}
}

// orderedCache is a prefix cache whose full eviction order is observable.
type orderedCache interface {
	prefixCache
	order() []int32
}

// world is one cache over its own pool, driven the way Engine drives it.
type world struct {
	c    orderedCache
	pool *blockPool
}

// churn drives caches through seeded agent-style traffic on small pools:
// prompts extend a few shared system prompts or earlier conversations, and
// each step admits a request (match, alloc, evict on a shortfall, as
// Engine.admit does), inserts a prefilled prompt, finishes a request
// (insert prompt+output, release) or evicts. Every world sees the same
// calls and must return the same match results; check runs after every
// step with a description of it.
func churn(t *testing.T, seed uint64, steps, pageSize int, worlds []world, check func(step string)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xCAC4E))
	tokens := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.IntN(4)
		}
		return out
	}
	systems := [][]int{tokens(2 * pageSize), tokens(3*pageSize + 1), tokens(pageSize - 1)}
	var history [][]int
	type request struct {
		prompt, output []int
		blocks         [][]int32 // per world
	}
	var live []*request
	capacity := worlds[0].pool.capacity
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(10); {
		case op < 5: // admit
			var prompt []int
			if len(history) > 0 && rng.IntN(2) == 0 {
				h := history[rng.IntN(len(history))]
				prompt = slices.Clone(h[:min(len(h), capacity*pageSize/2)])
			} else {
				prompt = slices.Clone(systems[rng.IntN(len(systems))])
			}
			prompt = append(prompt, tokens(rng.IntN(2*pageSize))...)
			output := tokens(1 + rng.IntN(pageSize))
			r := &request{prompt: prompt, output: output}
			var transcripts []string
			for _, w := range worlds {
				var log strings.Builder
				for {
					hit, hitBlocks := w.c.match(prompt)
					fmt.Fprintf(&log, "match %d %v; ", hit, hitBlocks)
					need := (len(prompt) - hit + len(output) + pageSize - 1) / pageSize
					if ids, ok := w.pool.alloc(need); ok {
						for _, b := range hitBlocks {
							w.pool.retain(b)
						}
						r.blocks = append(r.blocks, append(hitBlocks, ids...))
						break
					}
					if !w.c.evict(w.pool, need) {
						log.WriteString("refused")
						break
					}
				}
				transcripts = append(transcripts, log.String())
			}
			for _, tr := range transcripts[1:] {
				if tr != transcripts[0] {
					t.Fatalf("seed %d step %d: admission %q, but %q in world 0", seed, step, tr, transcripts[0])
				}
			}
			if len(r.blocks) == 0 {
				check("refuse " + transcripts[0])
				continue
			}
			check("admit " + transcripts[0])
			live = append(live, r)
			if rng.IntN(2) == 0 {
				for i, w := range worlds {
					w.c.insert(r.prompt, nil, r.blocks[i], w.pool)
				}
				check("insert prefilled prompt")
			}
		case op < 8 && len(live) > 0: // finish
			j := rng.IntN(len(live))
			r := live[j]
			live = append(live[:j], live[j+1:]...)
			for i, w := range worlds {
				w.c.insert(r.prompt, r.output, r.blocks[i], w.pool)
				for _, b := range r.blocks[i] {
					w.pool.release(b)
				}
			}
			history = append(history, append(r.prompt, r.output...))
			check(fmt.Sprintf("finish %v", r.blocks[0]))
		default:
			need := rng.IntN(capacity + 1)
			for _, w := range worlds {
				w.c.evict(w.pool, need)
			}
			check(fmt.Sprintf("evict to %d", need))
		}
	}
}

// TestPrefixCachesMatchQuadraticOracle runs each O(1) cache beside the
// quadratic implementation it replaced, with ties broken deepest first.
// After every step both sides must hold the same blocks in the same
// eviction order over identical pools, so every match result and every
// victim agrees.
func TestPrefixCachesMatchQuadraticOracle(t *testing.T) {
	const pageSize, capacity = 4, 24
	for _, kind := range []string{"hash", "radix"} {
		for seed := uint64(1); seed <= 40; seed++ {
			var fast, slow world
			switch kind {
			case "hash":
				fast = world{newHashCache(pageSize), newBlockPool(capacity)}
				slow = world{newOracleHash(pageSize), newBlockPool(capacity)}
			case "radix":
				fast = world{newRadixCache(pageSize), newBlockPool(capacity)}
				slow = world{newOracleRadix(pageSize), newBlockPool(capacity)}
			}
			churn(t, seed, 300, pageSize, []world{fast, slow}, func(step string) {
				if got, want := fast.c.order(), slow.c.order(); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d after %s: eviction order %v, oracle %v", kind, seed, step, got, want)
				}
				if !slices.Equal(fast.pool.free, slow.pool.free) || !slices.Equal(fast.pool.refs, slow.pool.refs) {
					t.Fatalf("%s seed %d after %s: pools diverged", kind, seed, step)
				}
				if rc, ok := fast.c.(*radixCache); ok {
					checkHeadIsLeaf(t, rc)
				}
			})
		}
	}
}

// TestHashCacheEvictionReplaysIdentically replays one seeded sequence and
// requires the same eviction log every time. The quadratic cache picked
// among blocks sharing an LRU tick in map iteration order, so its log
// varied from run to run.
func TestHashCacheEvictionReplaysIdentically(t *testing.T) {
	const pageSize, capacity = 4, 24
	replay := func() string {
		var log strings.Builder
		w := world{newHashCache(pageSize), newBlockPool(capacity)}
		churn(t, 3, 400, pageSize, []world{w}, func(step string) {
			fmt.Fprintf(&log, "%s: free %v\n", step, w.pool.free)
		})
		return log.String()
	}
	want := replay()
	if !strings.Contains(want, "evict") {
		t.Fatal("sequence never evicted")
	}
	for i := 1; i < 20; i++ {
		if got := replay(); got != want {
			t.Fatalf("replay %d diverged from replay 0", i)
		}
	}
}

// TestHashCacheRollingKeys checks the incremental keys of a prompt and
// output cached together against chainHash of their concatenation at
// every block boundary, including blocks that straddle the two.
func TestHashCacheRollingKeys(t *testing.T) {
	const pageSize = 4
	for _, split := range []int{0, 3, 4, 9, 17} {
		seq := prompt(17)
		c, pool := newHashCache(pageSize), newBlockPool(8)
		blocks, _ := pool.alloc(5)
		c.insert(seq[:split], seq[split:], blocks, pool)
		if len(c.index) != len(seq)/pageSize {
			t.Fatalf("split %d: %d keys, want %d", split, len(c.index), len(seq)/pageSize)
		}
		for i := 0; i < len(seq)/pageSize; i++ {
			slot, ok := c.index[chainHash(seq, (i+1)*pageSize)]
			if !ok || c.lru.at(slot).block != blocks[i] {
				t.Fatalf("split %d: block %d missing under its chain hash", split, i)
			}
		}
		if hit, _ := c.match(seq); hit != 16 {
			t.Fatalf("split %d: match hit %d tokens, want 16", split, hit)
		}
	}
}

func TestBlockPoolReleaseOfFreeBlockPanics(t *testing.T) {
	p := newBlockPool(4)
	ids, _ := p.alloc(1)
	p.release(ids[0])
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.release(ids[0])
}

// benchCacheChurn drives a cache with agent sessions whose context grows
// turn by turn over a few shared system prompts, on a pool small enough
// that it stays full and every admission evicts.
func benchCacheChurn(b *testing.B, c prefixCache) {
	const pageSize, sessions, turns = 16, 32, 12
	pool := newBlockPool(2048)
	rng := rand.New(rand.NewPCG(1, 2))
	tokens := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 4 + rng.IntN(2000)
		}
		return out
	}
	systems := [][]int{tokens(512), tokens(768), tokens(1024)}
	ctx := make([][]int, sessions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % sessions
		if (i/sessions)%turns == 0 {
			ctx[s] = slices.Clone(systems[rng.IntN(len(systems))])
		}
		prompt := append(ctx[s], tokens(64)...)
		output := tokens(48)
		var blocks []int32
		for {
			hit, hitBlocks := c.match(prompt)
			need := (len(prompt) - hit + len(output) + pageSize - 1) / pageSize
			if ids, ok := pool.alloc(need); ok {
				for _, id := range hitBlocks {
					pool.retain(id)
				}
				blocks = append(hitBlocks, ids...)
				break
			}
			if !c.evict(pool, need) {
				b.Fatal("pool too small for one request")
			}
		}
		c.insert(prompt, output, blocks, pool)
		for _, id := range blocks {
			pool.release(id)
		}
		ctx[s] = append(prompt, output...)
	}
}

func BenchmarkHashCacheChurn(b *testing.B)  { benchCacheChurn(b, newHashCache(16)) }
func BenchmarkRadixCacheChurn(b *testing.B) { benchCacheChurn(b, newRadixCache(16)) }

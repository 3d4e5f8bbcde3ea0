package support

import (
	"errors"
	"fmt"

	"pie/api"
	"pie/inferlet"
)

// Context automates KV-page management for a single generation stream: it
// allocates pages as the sequence grows, runs prefill and decode forwards,
// and exposes token-level masking, forking, export/import, speculative
// extension with rollback, and masked-page release — the high-level face
// of the paper's R1 capabilities (§6.3).
//
// A Context owns one command queue and the capabilities negotiated from
// it (allocate, input_text, forward, output_text, tokenize); building one
// against a model lacking any of those traits fails with
// api.ErrNoSuchTrait.
//
// Two counters describe the stream. slots counts physical KV entries
// consumed (including masked/rolled-back ones); Len (logical length)
// counts live tokens and determines the next sequence position. They
// differ only after Truncate (speculative decoding rollback).
type Context struct {
	S     inferlet.Session
	Q     *inferlet.Queue
	Model api.ModelInfo

	alloc  *inferlet.Alloc
	text   *inferlet.Text
	fwd    *inferlet.Forward
	sample *inferlet.Sample
	tok    *inferlet.Tokenizer

	ownsQueue bool

	entries []pageEntry
	pinned  []api.KvPage // read-only attention context (modular caching)
	slots   int          // physical KV slots consumed
	pos     int          // next sequence position (logical length)
	Tokens  []int        // logical token history (prompt + generated)

	genEmb  []api.Embed // reusable decode slot
	lastOut api.Embed   // output embedding of the last forward
	hasOut  bool
}

type pageEntry struct {
	h     api.KvPage
	owned bool // false for fork-shared or imported pages
	live  bool // false once released via ReleaseMaskedPages
}

// ErrNoOutput is returned when sampling is requested before any forward
// produced an output embedding.
var ErrNoOutput = errors.New("support: context has no output embedding yet")

// NewContext opens a context on its own command queue against model m.
func NewContext(s inferlet.Session, m api.ModelInfo) (*Context, error) {
	q, err := s.Open(m.ID)
	if err != nil {
		return nil, err
	}
	c, err := NewContextOnQueue(s, q)
	if err != nil {
		return nil, err
	}
	c.ownsQueue = true
	return c, nil
}

// NewContextOnQueue opens a context on an existing queue (several contexts
// can share one queue when their ops should serialize). The context
// negotiates its capabilities from the queue; Drop leaves a shared queue
// open.
func NewContextOnQueue(s inferlet.Session, q *inferlet.Queue) (*Context, error) {
	c := &Context{S: s, Q: q, Model: q.Model()}
	var err error
	if c.alloc, err = q.Alloc(); err != nil {
		return nil, err
	}
	if c.text, err = q.Text(); err != nil {
		return nil, err
	}
	if c.fwd, err = q.Forward(); err != nil {
		return nil, err
	}
	if c.sample, err = q.Sample(); err != nil {
		return nil, err
	}
	if c.tok, err = q.Tokenizer(); err != nil {
		return nil, err
	}
	if c.genEmb, err = c.alloc.Embeds(1); err != nil {
		return nil, err
	}
	return c, nil
}

// Len returns the logical token length of the context.
func (c *Context) Len() int { return c.pos }

// Slots returns physical KV slots consumed (≥ Len after rollbacks).
func (c *Context) Slots() int { return c.slots }

// Alloc exposes the context's allocate capability (advanced use: export,
// import, explicit page management on the context's queue).
func (c *Context) Alloc() *inferlet.Alloc { return c.alloc }

// Pages returns the live page handles (advanced use: export, masking).
func (c *Context) Pages() []api.KvPage {
	return c.appendLive(make([]api.KvPage, 0, c.numLive()))
}

// numLive counts the live stream pages.
func (c *Context) numLive() int {
	n := 0
	for _, e := range c.entries {
		if e.live {
			n++
		}
	}
	return n
}

// appendLive appends the live stream page handles to dst.
func (c *Context) appendLive(dst []api.KvPage) []api.KvPage {
	for _, e := range c.entries {
		if e.live {
			dst = append(dst, e.h)
		}
	}
	return dst
}

func (c *Context) capacity() int { return len(c.entries) * c.Model.PageSize }

// ensure grows the page list to hold n more physical slots.
func (c *Context) ensure(n int) error {
	need := c.slots + n - c.capacity()
	if need <= 0 {
		return nil
	}
	ps := c.Model.PageSize
	add := (need + ps - 1) / ps
	pages, err := c.alloc.Pages(add)
	if err != nil {
		return err
	}
	for _, p := range pages {
		c.entries = append(c.entries, pageEntry{h: p, owned: true, live: true})
	}
	return nil
}

// ctxPages lists attention-input pages: pinned read-only context first,
// then the live stream pages.
func (c *Context) ctxPages() []api.KvPage {
	out := make([]api.KvPage, 0, len(c.pinned)+c.numLive())
	return c.appendLive(append(out, c.pinned...))
}

// ComposeContext pins foreign pages (e.g. imported prompt modules cached
// at fixed schema positions) as read-only attention context and starts
// the context's own token stream at position basePos. The pinned pages
// are never written, masked, or deallocated by this context.
func ComposeContext(c *Context, pinned []api.KvPage, basePos int) (*Context, error) {
	if c.slots != 0 {
		return nil, errors.New("support: ComposeContext requires a fresh context")
	}
	c.pinned = append([]api.KvPage(nil), pinned...)
	c.pos = basePos
	return c, nil
}

// outPages lists the page(s) that will receive the next n slots.
func (c *Context) outPages(n int) []api.KvPage {
	ps := c.Model.PageSize
	first := c.slots / ps
	last := (c.slots + n - 1) / ps
	var out []api.KvPage
	for i := first; i <= last && i < len(c.entries); i++ {
		out = append(out, c.entries[i].h)
	}
	return out
}

// Encode tokenizes text through the model's vocabulary (blocking).
func (c *Context) Encode(text string) ([]int, error) {
	f, err := c.tok.Encode(text)
	if err != nil {
		return nil, err
	}
	return f.Get()
}

// Vocabs retrieves the byte expansion of every vocabulary entry
// (blocking; grammar-constrained decoding).
func (c *Context) Vocabs() ([][]byte, error) {
	f, err := c.tok.Vocabs()
	if err != nil {
		return nil, err
	}
	return f.Get()
}

// Fill tokenizes text and prefills it into the context.
func (c *Context) Fill(text string) error {
	toks, err := c.Encode(text)
	if err != nil {
		return err
	}
	return c.FillTokens(toks)
}

// FillTokens prefills toks, extending the KV cache and producing an output
// embedding for the last token.
func (c *Context) FillTokens(toks []int) error {
	if len(toks) == 0 {
		return nil
	}
	_, err := c.extend(toks, true, 1, false)
	return err
}

// extend is the shared forward driver: embeds toks at sequential
// positions, attends the live context, optionally persists KV, requests
// `outs` output embeddings (the last one also refreshes the decode slot
// when keepKV), and fetches their next-token distributions when wantDists.
func (c *Context) extend(toks []int, keepKV bool, outs int, wantDists bool) ([]api.Dist, error) {
	n := len(toks)
	if outs > n {
		return nil, fmt.Errorf("support: %d outputs requested for %d tokens", outs, n)
	}
	if keepKV {
		if err := c.ensure(n); err != nil {
			return nil, err
		}
	}
	emb, err := c.alloc.Embeds(n)
	if err != nil {
		return nil, err
	}
	defer c.alloc.FreeEmbeds(emb)
	pos := make([]int, n)
	for i := range pos {
		pos[i] = c.pos + i
	}
	if _, err := c.text.Embed(toks, pos, emb); err != nil {
		return nil, err
	}
	var outEmb []api.Embed
	if outs > 0 {
		switch {
		case outs == 1 && keepKV:
			outEmb = c.genEmb
		case keepKV:
			// Temps for all but the last position; the frontier output
			// lands in the persistent decode slot so NextDist keeps
			// working after a multi-output extension.
			tmp, err := c.alloc.Embeds(outs - 1)
			if err != nil {
				return nil, err
			}
			defer c.alloc.FreeEmbeds(tmp)
			outEmb = append(append([]api.Embed(nil), tmp...), c.genEmb[0])
		default:
			// Probes must not clobber the frontier output.
			tmp, err := c.alloc.Embeds(outs)
			if err != nil {
				return nil, err
			}
			defer c.alloc.FreeEmbeds(tmp)
			outEmb = tmp
		}
	}
	opts := []inferlet.ForwardOption{
		inferlet.ReadKv(c.ctxPages()...),
		inferlet.Input(emb...),
		inferlet.Output(outEmb...),
	}
	if keepKV {
		opts = append(opts, inferlet.AppendKv(c.outPages(n)...))
	}
	if _, err := c.fwd.Run(opts...); err != nil {
		return nil, err
	}
	var dists []api.Dist
	if wantDists && outs > 0 {
		futs := make([]api.Future[api.Dist], outs)
		for i, eh := range outEmb {
			f, err := c.sample.NextDist(eh)
			if err != nil {
				return nil, err
			}
			futs[i] = f
		}
		dists, err = api.All(futs...).Get()
		if err != nil {
			return nil, err
		}
	}
	if keepKV {
		c.slots += n
		c.pos += n
		c.Tokens = append(c.Tokens, toks...)
		if outs >= 1 {
			c.lastOut = c.genEmb[0]
			c.hasOut = true
		}
	}
	return dists, nil
}

// NextDist returns the next-token distribution after the last Fill or
// decode step.
func (c *Context) NextDist() (api.Dist, error) {
	if !c.hasOut {
		return api.Dist{}, ErrNoOutput
	}
	f, err := c.sample.NextDist(c.lastOut)
	if err != nil {
		return api.Dist{}, err
	}
	return f.Get()
}

// Append accepts token tok into the context (one decode step).
func (c *Context) Append(tok int) error {
	return c.FillTokens([]int{tok})
}

// ForwardTokens extends the context by toks in a single forward and
// returns the next-token distribution after every one of the last `outs`
// tokens — the verification primitive of speculative and Jacobi decoding:
// one kernel scores `outs` positions at once.
func (c *Context) ForwardTokens(toks []int, outs int) ([]api.Dist, error) {
	return c.extend(toks, true, outs, true)
}

// ProbeTokens runs toks through the model against the live context
// WITHOUT persisting KV or advancing the stream, returning dists for the
// last `outs` tokens (Jacobi iteration).
func (c *Context) ProbeTokens(toks []int, outs int) ([]api.Dist, error) {
	return c.extend(toks, false, outs, true)
}

// Truncate rolls the logical stream back to length n: the physical KV of
// the rejected tail is masked out (slots are not reclaimed — that is what
// ReleaseMaskedPages is for) and positions rewind so the next tokens
// overlay the rejected ones. The rollback half of speculative decoding.
func (c *Context) Truncate(n int) error {
	if n < 0 || n > c.pos {
		return fmt.Errorf("support: Truncate(%d) outside [0,%d]", n, c.pos)
	}
	drop := c.pos - n
	if drop == 0 {
		return nil
	}
	if err := c.MaskSlots(c.slots-drop, c.slots, true); err != nil {
		return err
	}
	c.pos = n
	c.Tokens = c.Tokens[:n]
	c.hasOut = false // outputs referred to the rejected tail
	return nil
}

// MaskSlots sets attention mask bits over physical slot range [from, to)
// (true hides them).
func (c *Context) MaskSlots(from, to int, masked bool) error {
	ps := c.Model.PageSize
	for p := 0; p < len(c.entries); p++ {
		if !c.entries[p].live {
			continue
		}
		lo, hi := p*ps, (p+1)*ps
		if hi <= from || lo >= to {
			continue
		}
		bits := make([]bool, ps)
		for i := 0; i < ps; i++ {
			slot := lo + i
			if slot >= from && slot < to {
				bits[i] = masked
			}
		}
		if _, err := c.fwd.MaskPage(c.entries[p].h, bits); err != nil {
			return err
		}
	}
	return nil
}

// MaskRange masks token positions [from, to). It equals MaskSlots while
// the context has never been truncated (positions == slots), which holds
// for every masking application (sinks, windows, hierarchical attention,
// spec-drop).
func (c *Context) MaskRange(from, to int, masked bool) error {
	return c.MaskSlots(from, to, masked)
}

// ReleaseMaskedPages deallocates owned pages whose slots are entirely
// masked (e.g. dropped tool specs, evicted windows), returning the number
// of pages freed. Freed pages leave the attention input immediately; slot
// numbering is preserved.
func (c *Context) ReleaseMaskedPages(fullyMaskedRanges [][2]int) (int, error) {
	ps := c.Model.PageSize
	freed := 0
	var toFree []api.KvPage
	for p := 0; p < len(c.entries); p++ {
		if !c.entries[p].live || !c.entries[p].owned {
			continue
		}
		lo, hi := p*ps, (p+1)*ps
		if hi > c.slots {
			continue // tail page still receiving tokens
		}
		covered := false
		for _, r := range fullyMaskedRanges {
			if r[0] <= lo && hi <= r[1] {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		c.entries[p].live = false
		toFree = append(toFree, c.entries[p].h)
		freed++
	}
	if len(toFree) > 0 {
		if err := c.alloc.FreePages(toFree); err != nil {
			return freed, err
		}
	}
	return freed, nil
}

// GenOpts parameterizes Generate.
type GenOpts struct {
	MaxTokens int
	Sampler   Sampler
	// StopTokens ends generation when one is produced (it is not added).
	StopTokens []int
	// Stop, when non-nil, ends generation after any step where it returns
	// true over the tokens generated so far.
	Stop func(generated []int) bool
	// OnToken, when non-nil, observes each accepted token (tool-call
	// detection, §7.2 optimization #2).
	OnToken func(tok int)
}

// GenResult reports a Generate run.
type GenResult struct {
	Tokens []int
	Text   string
}

// Generate decodes autoregressively until a stop condition.
func (c *Context) Generate(opts GenOpts) (GenResult, error) {
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 64
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = Greedy{}
	}
	var out []int
	for len(out) < opts.MaxTokens {
		dist, err := c.NextDist()
		if err != nil {
			return GenResult{}, err
		}
		tok := sampler.Next(dist)
		stop := false
		for _, st := range opts.StopTokens {
			if tok == st {
				stop = true
			}
		}
		if stop {
			break
		}
		out = append(out, tok)
		c.S.ReportOutputTokens(1)
		if opts.OnToken != nil {
			opts.OnToken(tok)
		}
		if err := c.Append(tok); err != nil {
			return GenResult{}, err
		}
		if opts.Stop != nil && opts.Stop(out) {
			break
		}
	}
	text, err := c.DecodeText(out)
	if err != nil {
		return GenResult{}, err
	}
	return GenResult{Tokens: out, Text: text}, nil
}

// DecodeText detokenizes ids through the model's vocabulary.
func (c *Context) DecodeText(ids []int) (string, error) {
	f, err := c.tok.Decode(ids)
	if err != nil {
		return "", err
	}
	return f.Get()
}

// Fork creates n children that share this context's pages zero-copy,
// except the page holding the last slot, which is copied per child so
// divergent continuations never write into shared state — the page-level
// sharing that powers tree search and beam search (R1). Children also
// inherit the parent's current output embedding (handles live in the same
// inferlet's address space), so their first NextDist needs no extra
// forward. The parent must outlive its children and must not Append while
// forks are active.
func (c *Context) Fork(n int) ([]*Context, error) {
	// The children's tail-page copies are issued on their own queues, so
	// the parent's pending prefill/decode writes must land first.
	if err := c.Sync(); err != nil {
		return nil, err
	}
	ps := c.Model.PageSize
	split := 0 // number of fully-shared pages
	tailTokens := 0
	if c.slots > 0 {
		split = (c.slots - 1) / ps
		tailTokens = c.slots - split*ps
	}
	children := make([]*Context, 0, n)
	for i := 0; i < n; i++ {
		child, err := NewContext(c.S, c.Model)
		if err != nil {
			return nil, err
		}
		for j := 0; j < split; j++ {
			child.entries = append(child.entries, pageEntry{h: c.entries[j].h, owned: false, live: c.entries[j].live})
		}
		if tailTokens > 0 {
			np, err := child.alloc.Pages(1)
			if err != nil {
				return nil, err
			}
			if _, err := child.alloc.CopyPage(c.entries[split].h, np[0], 0, 0, tailTokens); err != nil {
				return nil, err
			}
			child.entries = append(child.entries, pageEntry{h: np[0], owned: true, live: true})
		}
		child.slots = c.slots
		child.pos = c.pos
		child.Tokens = append([]int(nil), c.Tokens...)
		child.lastOut = c.lastOut
		child.hasOut = c.hasOut
		children = append(children, child)
	}
	return children, nil
}

// Drop releases every owned live page and the decode slot; the context
// becomes unusable but its queue stays open (fire-and-forget: the
// deallocations are queue-ordered and need no round trip). Use Close to
// also close the queue and reclaim everything it still tracks.
func (c *Context) Drop() error {
	var own []api.KvPage
	for _, e := range c.entries {
		if e.owned && e.live {
			own = append(own, e.h)
		}
	}
	if len(own) > 0 {
		if err := c.alloc.FreePages(own); err != nil {
			return err
		}
	}
	c.entries = nil
	if c.genEmb != nil {
		if err := c.alloc.FreeEmbeds(c.genEmb); err != nil {
			return err
		}
		c.genEmb = nil
	}
	return nil
}

// Close drains and closes the context's queue, reclaiming every resource
// allocated or imported through it (queue-scoped reclamation). Only valid
// for contexts that own their queue (NewContext); contexts sharing a
// queue must Drop instead.
func (c *Context) Close() error {
	if !c.ownsQueue {
		return errors.New("support: Close on a context sharing its queue; use Drop")
	}
	c.entries = nil
	c.genEmb = nil
	return c.Q.Close()
}

// Sync drains the context's command queue.
func (c *Context) Sync() error { return c.Q.Sync() }

// Export publishes the context's live pages under name. Exports should be
// page-aligned (Len a multiple of PageSize) so importers can extend them.
func (c *Context) Export(name string) error {
	if err := c.Sync(); err != nil {
		return err
	}
	return c.alloc.Export(name, c.Pages())
}

// ImportContext maps an exported context: pages are shared, so the result
// must be treated as a read-only prefix (extend it; never mask it).
func ImportContext(s inferlet.Session, m api.ModelInfo, name string, tokens []int) (*Context, error) {
	c, err := NewContext(s, m)
	if err != nil {
		return nil, err
	}
	pages, err := c.alloc.Import(name)
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		c.entries = append(c.entries, pageEntry{h: p, owned: false, live: true})
	}
	c.slots = len(tokens)
	c.pos = len(tokens)
	c.Tokens = append([]int(nil), tokens...)
	return c, nil
}

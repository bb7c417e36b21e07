// Package comm implements the message fabric between HybridGraph workers:
// message and packet types with the wire sizes the paper's cost analysis
// uses, network byte accounting per worker, and the three interaction
// patterns the engines need — push-style delivery, block-centric pull
// requests (b-pull), and per-svertex gathers (the pull baseline). The
// default fabric is in-process (workers are goroutines, per the DESIGN.md
// substitution); a TCP fabric with the same interface demonstrates
// multi-process distribution. Both embed one router: the handler table,
// the job context and the byte ledger. Every call is synchronous and the
// master reassigns ownership only between supersteps, so no request is in
// flight across a reassignment and the fabrics carry no routing protocol:
// a request names its destination worker and reaches that worker's
// handler. Messages cross every hop through buffers their owner reuses
// (outbox, stage, a responder's respond buffers, the TCP connections'
// receive buffers); DESIGN.md, "Message path", has the ownership rules.
package comm

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// Wire sizes in bytes. A message is a destination vertex id plus one
// value; when several messages share a destination they are concatenated
// so the id travels once (Section 4.2). These constants are the paper's
// Byte_m accounting.
const (
	MsgIDSize   = 4  // destination vertex id
	MsgValSize  = 8  // one message value
	MsgWireSize = 12 // un-concatenated message
	// PullReqSize is the wire size of one block-centric pull request (a
	// Vblock identifier); b-pull sends at most V·T of these per superstep.
	PullReqSize = 8
	// GatherIDSize is the wire size of one gather request entry in the
	// pull baseline: a destination vertex id sent to one mirror-holding
	// worker (vertex-cut traffic is proportional to mirrors).
	GatherIDSize = 4
)

// Msg is one message in flight: a value addressed to a destination vertex.
type Msg struct {
	Dst graph.VertexID
	Val float64
}

// Packet is a batch of messages bound for one worker, addressed by the
// worker's id: an adopted unit keeps its id and its endpoint, so the
// address never changes under a packet. The messages travel as the
// records Outbox.Add wrote.
type Packet struct {
	From, To int
	Step     int
	Msgs     Records
	// WireBytes is the encoded size given the concatenation the sender
	// applied; 0 means "compute as unconcatenated".
	WireBytes int64
}

// Bytes reports the packet's wire size.
func (p *Packet) Bytes() int64 {
	if p.WireBytes > 0 {
		return p.WireBytes
	}
	return int64(len(p.Msgs))
}

// ConcatSize reports the wire size of msgs when concatenated: each
// distinct destination id travels once, each value always travels. msgs
// must be grouped by destination (sorted is fine).
func ConcatSize(msgs []Msg) int64 {
	var b int64
	for i, m := range msgs {
		if i == 0 || m.Dst != msgs[i-1].Dst {
			b += MsgIDSize
		}
		b += MsgValSize
	}
	return b
}

// smallBatch: below it a comparison sort beats the radix passes' set-up.
const smallBatch = 48

// StableSortByDst sorts msgs by destination, keeping messages to one
// destination in their order, and returns the sorted slice: msgs itself
// or *tmp, the caller's second buffer. Large batches take an LSD radix
// sort over the id bytes that differ within the batch — two passes under
// 65 536 ids, at most four — linear however sparse the ids are.
func StableSortByDst(msgs []Msg, tmp *[]Msg) []Msg {
	n := len(msgs)
	if n < smallBatch {
		slices.SortStableFunc(msgs, func(a, b Msg) int { return cmp.Compare(a.Dst, b.Dst) })
		return msgs
	}
	var diff graph.VertexID
	sorted := true
	for i := 1; i < n; i++ {
		diff |= msgs[i].Dst ^ msgs[0].Dst
		sorted = sorted && msgs[i-1].Dst <= msgs[i].Dst
	}
	if sorted {
		return msgs
	}
	*tmp = slices.Grow((*tmp)[:0], n)[:n]
	src, dst := msgs, *tmp
	for shift := 0; shift < 32; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var next [256]int
		for i := range src {
			next[(src[i].Dst>>shift)&0xff]++
		}
		pos := 0
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		for i := range src {
			b := (src[i].Dst >> shift) & 0xff
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	return src
}

// CombineSorted folds runs of equal-destination messages into one using
// the reducer c; msgs must be sorted by destination. The result aliases
// msgs' storage.
func CombineSorted(msgs []Msg, c func(a, b float64) float64) []Msg {
	if len(msgs) == 0 {
		return msgs
	}
	out := msgs[:1]
	for _, m := range msgs[1:] {
		last := &out[len(out)-1]
		if m.Dst == last.Dst {
			last.Val = c(last.Val, m.Val)
		} else {
			out = append(out, m)
		}
	}
	return out
}

// GatherResult is the pull baseline's response for one requested
// destination vertex: the message values generated at the mirror from the
// responding local source vertices (already reduced to one value when the
// algorithm's messages combine, like PowerGraph's local gather
// aggregation).
type GatherResult struct {
	Dst  graph.VertexID
	Vals []float64
}

// GatherResultsSize reports the wire size of a gather response: each
// non-empty result carries its destination id once plus its values.
func GatherResultsSize(res []GatherResult) int64 {
	var b int64
	for _, r := range res {
		if len(r.Vals) == 0 {
			continue
		}
		b += MsgIDSize + int64(len(r.Vals))*MsgValSize
	}
	return b
}

// Handler is the worker-side surface the fabric calls into.
type Handler interface {
	// DeliverMessages accepts a push packet addressed to this worker for
	// consumption in superstep p.Step+1. p and p.Msgs are the caller's and
	// are overwritten once the call returns — on TCP, p.Msgs is the
	// connection's receive buffer — so copy what must outlive it.
	DeliverMessages(p *Packet) error
	// RespondPull runs Pull-Respond (Algorithm 2) for the given global
	// Vblock at superstep step, returning the generated (already
	// concatenated/combined) messages and their wire size. The messages
	// may lie in the handler's own buffer for the requesting worker, valid
	// until that worker's next pull from this one: the fabric encodes them
	// or hands them to the requester, and keeps no reference to them.
	RespondPull(reqBlock, step int) ([]Msg, int64, error)
	// GatherValues runs the pull baseline's mirror-side gather: for each
	// requested destination vertex, generate message values from this
	// worker's responding source vertices along its locally-held in-edges.
	GatherValues(ids []graph.VertexID, step int) ([]GatherResult, error)
	// DeliverSignals activates the given local vertices for superstep
	// step+1 (the pull baseline's scatter phase).
	DeliverSignals(ids []graph.VertexID, step int) error
}

// Fabric routes traffic between workers and accounts bytes per worker.
type Fabric interface {
	Register(worker int, h Handler)
	// Send delivers a push packet; counted as From-out / To-in bytes. It is
	// synchronous: when it returns the receiver has copied (or the wire has
	// carried) the messages, nothing holds p.Msgs, and the sender reuses
	// the storage. Implementations and wrappers must not retain p.Msgs.
	Send(p *Packet) error
	// PullRequest performs a synchronous block-centric pull. The returned
	// messages are valid until from's next PullRequest to to, which from
	// issues only after this one returned; the caller copies what it keeps
	// past that. Implementations and wrappers must not retain them.
	PullRequest(from, to, block, step int) ([]Msg, int64, error)
	// Gather performs a synchronous vertex-cut gather.
	Gather(from, to int, ids []graph.VertexID, step int) ([]GatherResult, error)
	// Signal delivers scatter activations (4 bytes each on the wire).
	Signal(from, to int, ids []graph.VertexID, step int) error
	// Traffic reports cumulative (in, out) bytes for worker w.
	Traffic(w int) (in, out int64)
	// TotalBytes reports cumulative bytes moved across the fabric.
	TotalBytes() int64
}

// ContextSetter is implemented by fabrics that honour job cancellation:
// once a context is installed, fabric operations fail fast with the
// context's error after it is cancelled, so a cancelled job's workers
// unwind mid-superstep instead of finishing the exchange. Both built-in
// fabrics implement it.
type ContextSetter interface {
	SetContext(ctx context.Context)
}

// router is what both fabrics share: the handler table, the job context
// consulted before every operation, and the byte ledger. A fabric embeds
// one and adds only how a request reaches the handler.
type router struct {
	mu       sync.RWMutex // guards handlers
	handlers map[int]Handler
	ctx      atomic.Pointer[context.Context]
	in       []atomic.Int64
	out      []atomic.Int64
	total    atomic.Int64
}

func newRouter(n int) router {
	return router{handlers: make(map[int]Handler, n), in: make([]atomic.Int64, n), out: make([]atomic.Int64, n)}
}

// SetContext implements ContextSetter: once ctx is cancelled, new
// operations fail fast with its error (and TCP round trips in flight stop
// retrying).
func (r *router) SetContext(ctx context.Context) {
	if ctx != nil {
		r.ctx.Store(&ctx)
	}
}

// ctxErr reports the installed context's cancellation error, nil when no
// context was installed or it is still live.
func (r *router) ctxErr() error {
	if p := r.ctx.Load(); p != nil {
		return context.Cause(*p)
	}
	return nil
}

func (r *router) ctxDone() <-chan struct{} {
	if p := r.ctx.Load(); p != nil {
		return (*p).Done()
	}
	return nil
}

// Register implements Fabric.
func (r *router) Register(worker int, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[worker] = h
}

func (r *router) handler(w int) (Handler, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.handlers[w]
	if !ok {
		return nil, fmt.Errorf("comm: no handler registered for worker %d", w)
	}
	return h, nil
}

func (r *router) account(from, to int, bytes int64) {
	// Loopback traffic never crosses the network; the paper's GANGLIA
	// traffic measurements (Fig. 18) see inter-node bytes only.
	if from == to || from < 0 || to < 0 || from >= len(r.out) || to >= len(r.in) {
		return
	}
	r.out[from].Add(bytes)
	r.in[to].Add(bytes)
	r.total.Add(bytes)
}

// Traffic implements Fabric.
func (r *router) Traffic(w int) (in, out int64) {
	return r.in[w].Load(), r.out[w].Load()
}

// TotalBytes implements Fabric.
func (r *router) TotalBytes() int64 { return r.total.Load() }

// Local is the in-process fabric: handlers are invoked directly, which
// keeps superstep semantics identical to a networked run while the paper's
// byte accounting is applied to every interaction.
type Local struct {
	router

	mPackets  *obs.Counter // "comm.packets"
	mPullReqs *obs.Counter // "comm.pull_requests"
	mGathers  *obs.Counter // "comm.gathers"
	mSignals  *obs.Counter // "comm.signals"
}

// NewLocal returns a Local fabric for n workers.
func NewLocal(n int) *Local { return &Local{router: newRouter(n)} }

// SetMetrics wires the fabric's counters into reg (obs.MetricsSetter).
// Call before the first superstep; a nil registry leaves metrics off.
func (l *Local) SetMetrics(reg *obs.Registry) {
	l.mPackets = reg.Counter("comm.packets")
	l.mPullReqs = reg.Counter("comm.pull_requests")
	l.mGathers = reg.Counter("comm.gathers")
	l.mSignals = reg.Counter("comm.signals")
	reg.RegisterFunc("comm.net_bytes", l.total.Load)
}

// route opens every Local operation: fail fast on a cancelled job, then
// find the destination's handler.
func (l *Local) route(to int) (Handler, error) {
	if err := l.ctxErr(); err != nil {
		return nil, err
	}
	return l.handler(to)
}

// Send implements Fabric.
func (l *Local) Send(p *Packet) error {
	h, err := l.route(p.To)
	if err != nil {
		return err
	}
	l.account(p.From, p.To, p.Bytes())
	l.mPackets.Inc()
	return h.DeliverMessages(p)
}

// PullRequest implements Fabric.
func (l *Local) PullRequest(from, to, block, step int) ([]Msg, int64, error) {
	h, err := l.route(to)
	if err != nil {
		return nil, 0, err
	}
	l.account(from, to, PullReqSize)
	l.mPullReqs.Inc()
	msgs, bytes, err := h.RespondPull(block, step)
	if err != nil {
		return nil, 0, err
	}
	l.account(to, from, bytes)
	return msgs, bytes, nil
}

// Gather implements Fabric.
func (l *Local) Gather(from, to int, ids []graph.VertexID, step int) ([]GatherResult, error) {
	h, err := l.route(to)
	if err != nil {
		return nil, err
	}
	l.account(from, to, int64(len(ids))*GatherIDSize)
	l.mGathers.Inc()
	replies, err := h.GatherValues(ids, step)
	if err != nil {
		return nil, err
	}
	l.account(to, from, GatherResultsSize(replies))
	return replies, nil
}

// Signal implements Fabric.
func (l *Local) Signal(from, to int, ids []graph.VertexID, step int) error {
	h, err := l.route(to)
	if err != nil {
		return err
	}
	l.account(from, to, int64(len(ids))*GatherIDSize)
	l.mSignals.Inc()
	return h.DeliverSignals(ids, step)
}

// Package comm implements the message fabric between HybridGraph workers:
// message and packet types with the wire sizes the paper's cost analysis
// uses, network byte accounting per worker, and the three interaction
// patterns the engines need — push-style delivery, block-centric pull
// requests (b-pull), and per-svertex gathers (the pull baseline). The
// default fabric is in-process (workers are goroutines, per the DESIGN.md
// substitution); a TCP fabric with the same interface demonstrates
// multi-process distribution. Messages cross every hop through buffers
// their owner reuses (outbox, stage, the TCP connections' payload
// buffers); DESIGN.md, "Message path", has the ownership rules.
package comm

import (
	"cmp"
	"context"
	"errors"
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

// Packet is a batch of messages bound for one worker.
type Packet struct {
	From, To int
	Step     int
	Msgs     []Msg
	// WireBytes is the encoded size given the concatenation the sender
	// applied; 0 means "compute as unconcatenated".
	WireBytes int64
	// Epoch is the block-ownership epoch the sender believed current when
	// it addressed the packet (0 = stamp at send). A receiver behind a
	// reassignment rejects packets from an older epoch with
	// StaleEpochError so the sender re-stamps and re-routes them against
	// the new ownership table instead of the fabric silently accepting
	// traffic addressed to a dead worker.
	Epoch int64
}

// Bytes reports the packet's wire size.
func (p *Packet) Bytes() int64 {
	if p.WireBytes > 0 {
		return p.WireBytes
	}
	return int64(len(p.Msgs)) * MsgWireSize
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

// SortByDst orders msgs by destination id so they concatenate maximally.
// It serves the sender-side combiner (Outbox.flush) and lists of distinct
// destinations. It is unstable — pdqsort's order among equal destinations,
// pinned by a test: what folds in an order the data defines uses StableSortByDst.
func SortByDst(msgs []Msg) {
	slices.SortFunc(msgs, func(a, b Msg) int { return cmp.Compare(a.Dst, b.Dst) })
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
	// are overwritten once the call returns: copy what must outlive it.
	DeliverMessages(p *Packet) error
	// RespondPull runs Pull-Respond (Algorithm 2) for the given global
	// Vblock at superstep step, returning the generated (already
	// concatenated/combined) messages and their wire size. The fabric reads
	// the messages before it returns and keeps no reference to them.
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
	// messages belong to the caller.
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

// ErrStaleEpoch is the sentinel wrapped by every StaleEpochError;
// errors.Is(err, ErrStaleEpoch) identifies an epoch rejection whichever
// fabric produced it.
var ErrStaleEpoch = errors.New("comm: stale ownership epoch")

// StaleEpochError is the typed rejection a receiver returns for traffic
// stamped with a block-ownership epoch older than its own: the sender is
// operating on a routing table from before a partition reassignment and
// must re-stamp and re-route.
type StaleEpochError struct {
	Sent, Current int64
}

// Error implements error.
func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("comm: stale ownership epoch %d (current %d)", e.Sent, e.Current)
}

// Unwrap ties the error to the ErrStaleEpoch sentinel.
func (e *StaleEpochError) Unwrap() error { return ErrStaleEpoch }

// Rehomer is implemented by fabrics that support partition reassignment:
// an epoch-versioned ownership view plus the ability to re-point a dead
// worker's address at the survivor hosting its blocks. AdvanceEpoch
// invalidates every in-flight packet stamped with the old epoch; Rehome
// redirects traffic addressed to origin at host. Both built-in fabrics
// implement it.
type Rehomer interface {
	// Epoch reports the current ownership epoch (starts at 1).
	Epoch() int64
	// AdvanceEpoch bumps the ownership epoch and returns the new value.
	AdvanceEpoch() int64
	// Rehome redirects traffic addressed to worker origin at worker host.
	// The origin keeps its logical identity — packets still name it in
	// From/To — only the physical endpoint moves.
	Rehome(origin, host int)
}

// ContextSetter is implemented by fabrics that honour job cancellation:
// once a context is installed, fabric operations fail fast with the
// context's error after it is cancelled, so a cancelled job's workers
// unwind mid-superstep instead of finishing the exchange. Both built-in
// fabrics implement it.
type ContextSetter interface {
	SetContext(ctx context.Context)
}

// ctxHolder is the shared cancellation plumbing of both fabrics: an
// atomically swappable context consulted before every operation.
type ctxHolder struct {
	v atomic.Pointer[context.Context]
}

func (c *ctxHolder) SetContext(ctx context.Context) {
	if ctx != nil {
		c.v.Store(&ctx)
	}
}

// err reports the installed context's cancellation error, nil when no
// context was installed or it is still live.
func (c *ctxHolder) err() error {
	if p := c.v.Load(); p != nil {
		return context.Cause(*p)
	}
	return nil
}

func (c *ctxHolder) done() <-chan struct{} {
	if p := c.v.Load(); p != nil {
		return (*p).Done()
	}
	return nil
}

// Local is the in-process fabric: handlers are invoked directly, which
// keeps superstep semantics identical to a networked run while the paper's
// byte accounting is applied to every interaction.
type Local struct {
	mu       sync.RWMutex
	handlers map[int]Handler
	homes    map[int]int // origin -> adopting host after a Rehome
	epoch    atomic.Int64
	ctx      ctxHolder
	in       []atomic.Int64
	out      []atomic.Int64
	total    atomic.Int64

	mPackets  *obs.Counter // "comm.packets"
	mPullReqs *obs.Counter // "comm.pull_requests"
	mGathers  *obs.Counter // "comm.gathers"
	mSignals  *obs.Counter // "comm.signals"
	mStale    *obs.Counter // "comm.stale_epoch"
}

// NewLocal returns a Local fabric for n workers.
func NewLocal(n int) *Local {
	l := &Local{handlers: make(map[int]Handler, n), in: make([]atomic.Int64, n), out: make([]atomic.Int64, n)}
	l.epoch.Store(1)
	return l
}

// SetMetrics wires the fabric's counters into reg (obs.MetricsSetter).
// Call before the first superstep; a nil registry leaves metrics off.
func (l *Local) SetMetrics(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mPackets = reg.Counter("comm.packets")
	l.mPullReqs = reg.Counter("comm.pull_requests")
	l.mGathers = reg.Counter("comm.gathers")
	l.mSignals = reg.Counter("comm.signals")
	l.mStale = reg.Counter("comm.stale_epoch")
	reg.RegisterFunc("comm.net_bytes", l.total.Load)
}

// SetContext implements ContextSetter: after ctx is cancelled every
// fabric operation fails fast with its error.
func (l *Local) SetContext(ctx context.Context) { l.ctx.SetContext(ctx) }

// Register implements Fabric.
func (l *Local) Register(worker int, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[worker] = h
}

func (l *Local) handler(w int) (Handler, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h, ok := l.handlers[w]
	if !ok {
		return nil, fmt.Errorf("comm: no handler registered for worker %d", w)
	}
	return h, nil
}

func (l *Local) account(from, to int, bytes int64) {
	if from == to {
		// Loopback traffic never crosses the network; the paper's GANGLIA
		// traffic measurements (Fig. 18) see inter-node bytes only.
		return
	}
	l.out[from].Add(bytes)
	l.in[to].Add(bytes)
	l.total.Add(bytes)
}

// Epoch implements Rehomer.
func (l *Local) Epoch() int64 { return l.epoch.Load() }

// AdvanceEpoch implements Rehomer.
func (l *Local) AdvanceEpoch() int64 { return l.epoch.Add(1) }

// Rehome implements Rehomer. In-process the adopted worker unit keeps
// serving its origin slot (the host drives it on its own goroutine), so
// the handler table is untouched; the mapping is recorded so callers can
// introspect where an origin now lives.
func (l *Local) Rehome(origin, host int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.homes == nil {
		l.homes = make(map[int]int)
	}
	l.homes[origin] = host
}

// HostOf reports where worker w's blocks are served: w itself, or the
// survivor a Rehome pointed it at.
func (l *Local) HostOf(w int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if h, ok := l.homes[w]; ok {
		return h
	}
	return w
}

// Send implements Fabric. Packets stamped with a pre-reassignment epoch
// are rejected by the delivery path and re-routed here once against the
// current ownership table; a packet that is stale again after the re-stamp
// (a reassignment raced the retry) surfaces the rejection to the caller.
func (l *Local) Send(p *Packet) error {
	if err := l.ctx.err(); err != nil {
		return err
	}
	if p.Epoch == 0 {
		p.Epoch = l.epoch.Load()
	}
	err := l.deliver(p)
	var stale *StaleEpochError
	if errors.As(err, &stale) {
		l.mStale.Inc()
		p.Epoch = l.epoch.Load()
		return l.deliver(p)
	}
	return err
}

// deliver is the receive side of Send: the epoch gate plus the handler
// dispatch and accounting.
func (l *Local) deliver(p *Packet) error {
	if cur := l.epoch.Load(); p.Epoch < cur {
		return &StaleEpochError{Sent: p.Epoch, Current: cur}
	}
	h, err := l.handler(p.To)
	if err != nil {
		return err
	}
	l.account(p.From, p.To, p.Bytes())
	l.mPackets.Inc()
	return h.DeliverMessages(p)
}

// PullRequest implements Fabric.
func (l *Local) PullRequest(from, to, block, step int) ([]Msg, int64, error) {
	if err := l.ctx.err(); err != nil {
		return nil, 0, err
	}
	h, err := l.handler(to)
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
	if err := l.ctx.err(); err != nil {
		return nil, err
	}
	h, err := l.handler(to)
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
	if err := l.ctx.err(); err != nil {
		return err
	}
	h, err := l.handler(to)
	if err != nil {
		return err
	}
	l.account(from, to, int64(len(ids))*GatherIDSize)
	l.mSignals.Inc()
	return h.DeliverSignals(ids, step)
}

// Traffic implements Fabric.
func (l *Local) Traffic(w int) (in, out int64) {
	return l.in[w].Load(), l.out[w].Load()
}

// TotalBytes implements Fabric.
func (l *Local) TotalBytes() int64 { return l.total.Load() }

// Package msgstore implements the receiver-side message stores of the
// push engines. An Inbox buffers up to B_i messages in memory; overflow is
// spilled to disk with random-write cost — the poor temporal locality of
// messages across destination vertices is the I/O problem the whole paper
// attacks — and read back sequentially at the start of the next superstep
// (the 2·IO(M_disk) term of Eq. 7, split across srw and ssr exactly as
// Eq. 11 splits it). The spill is one codec.SpillFile under every codec:
// the cost is charged per spilled record, and the bytes reach the file a
// staging buffer at a time (DESIGN.md, "Charge model vs physical
// execution"). Draining yields Groups: the superstep's messages
// grouped by destination in one flat array the inbox owns and reuses, each
// vertex's values in delivery order — senders ascending, one sender's as
// they arrived (DESIGN.md, "Message path"). An OnlineInbox adds MOCgraph's
// message online computing: messages for a configured hot set of vertices
// are folded into in-memory accumulators immediately and never touch disk.
package msgstore

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

const recSize = 12 // dst uint32 + val float64

// recSize is this store's on-disk record layout while comm.MsgWireSize is
// the fabric's wire accounting; Q^t, Spilled and MdiskW are only coherent
// if the two agree. These constant conversions fail to compile the moment
// the constants diverge in either direction.
const (
	_ = uint(recSize - comm.MsgWireSize)
	_ = uint(comm.MsgWireSize - recSize)
)

// run is a stretch of the arrival stream one sender delivered: n messages from position off.
type run struct{ from, off, n int }

// bySender, under a stable sort, puts runs in delivery order: senders
// ascending, one sender's stretches as they arrived.
func bySender(x, y run) int { return cmp.Compare(x.from, y.from) }

// Inbox is one worker's receive buffer for one superstep's incoming
// messages. Safe for concurrent Add from multiple senders.
type Inbox struct {
	mu       sync.Mutex
	capacity int // B_i in messages; <= 0 means unlimited (sufficient memory)
	mem      []comm.Msg
	runs     []run            // who sent which stretch of the arrival stream mem ‖ spill, adjacent ones of a sender coalesced
	spill    *codec.SpillFile // the overflow; its buffers last as long as the inbox
	readBack []byte           // the spill read back at drain, reused
	grouper  Grouper
	ordered  []comm.Msg // the sparse drain's batch in delivery order, reused
	enc      []byte     // a spilling batch as records, reused
	spillN   int64
	received int64
	maxMem   int64

	mSpilledMsgs  *obs.Counter // nil when metrics are disabled
	mSpilledBytes *obs.Counter
}

// SetMetrics wires the inbox's spill tallies into reg ("msgstore.*"
// counters, shared across inboxes). A nil registry disables them.
func (b *Inbox) SetMetrics(reg *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mSpilledMsgs = reg.Counter("msgstore.spilled_msgs")
	b.mSpilledBytes = reg.Counter("msgstore.spilled_bytes")
	// Writes of the spill's staging buffer, next to the per-record
	// logical ops the Counter charges.
	b.spill.CountFlushes(reg.Counter("msgstore.spill_flushes"))
}

// NewInbox returns an inbox spilling to path once capacity messages are
// buffered: capacity 0 means unlimited (sufficient memory), a negative
// capacity means every message spills (MOCgraph's "messages sent to
// disk-resident vertices reside on disk"). The spill file is created
// lazily; cdc selects its on-disk encoding (nil means codec.None).
func NewInbox(path string, ct *diskio.Counter, capacity int, cdc codec.Codec) *Inbox {
	return &Inbox{capacity: capacity, spill: codec.NewSpillFile(path, ct, cdc)}
}

// Add accepts one message from sender 0. Beyond capacity the message is
// spilled with random-write accounting. A spill write fault is reported by
// the Add whose record needed the staging buffer flushed (see spillMsgs).
func (b *Inbox) Add(m comm.Msg) error { return b.AddFrom(0, []comm.Msg{m}) }

// AddAll accepts a batch from sender 0.
func (b *Inbox) AddAll(msgs []comm.Msg) error { return b.AddFrom(0, msgs) }

// AddFrom accepts a batch — a packet worker from delivered — under one
// lock acquisition, copying what it keeps: msgs stays the caller's.
func (b *Inbox) AddFrom(from int, msgs []comm.Msg) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addFrom(from, msgs)
}

// addFrom is AddFrom under b.mu. The head of the batch that fits in memory
// goes in with one append; the rest spills as one run, charged per record.
func (b *Inbox) addFrom(from int, msgs []comm.Msg) error {
	n := len(msgs)
	if b.capacity != 0 {
		n = min(n, max(b.capacity-len(b.mem), 0))
	}
	before := b.received
	if n > 0 {
		if len(b.mem)+n > cap(b.mem) {
			b.mem = slices.Grow(b.mem, max(n, cap(b.mem))) // doubling, not append's 1.25×
		}
		b.mem = append(b.mem, msgs[:n]...)
		b.received += int64(n)
		b.maxMem = max(b.maxMem, int64(len(b.mem))*recSize)
	}
	var err error
	if n < len(msgs) {
		err = b.spillMsgs(msgs[n:])
	}
	if got := int(b.received - before); got > 0 {
		if last := len(b.runs) - 1; last >= 0 && b.runs[last].from == from {
			b.runs[last].n += got
		} else {
			b.runs = append(b.runs, run{from, int(before), got})
		}
	}
	return err
}

// spillMsgs spills msgs in arrival order. When a flush fails part-way only
// the records accepted so far are charged, counted and kept for the retry.
func (b *Inbox) spillMsgs(msgs []comm.Msg) error {
	b.enc = slices.Grow(b.enc[:0], len(msgs)*recSize)[:len(msgs)*recSize]
	for i, m := range msgs {
		comm.PutRecord(b.enc[i*recSize:], m)
	}
	accepted, err := b.spill.AppendRun(b.enc, recSize)
	b.received += int64(accepted)
	b.spillN += int64(accepted)
	b.mSpilledMsgs.Add(int64(accepted))
	b.mSpilledBytes.Add(int64(accepted) * recSize)
	return err
}

// Received reports the number of messages accepted so far.
func (b *Inbox) Received() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.received
}

// Spilled reports the number of messages that went to disk (|M_disk|).
func (b *Inbox) Spilled() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spillN
}

// MaxMemBytes reports the peak in-memory footprint of the buffer.
func (b *Inbox) MaxMemBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxMem
}

// Drain returns all buffered messages grouped by destination vertex,
// reading any spill back sequentially, and resets the inbox for reuse.
// Each vertex's values are in delivery order: senders ascending by worker
// id, one sender's as they arrived. Floating-point update functions are
// order-sensitive and how senders interleave depends on scheduling, but a
// sender's own order does not: every run — and every recovery replay,
// which injects sender by sender in log order — produces bit-identical
// values. The result is valid until the next Drain.
func (b *Inbox) Drain() (Groups, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drain(nil)
}

// denseSpan: a batch whose ids span at most this many times its length is dense.
const denseSpan = 2

// drain is Drain with extra listed after every sender's messages. Callers
// hold b.mu.
func (b *Inbox) drain(extra []comm.Msg) (Groups, error) {
	all, err := b.appendSpilled(b.mem)
	if err != nil {
		return nil, err
	}
	if err := b.spill.Close(); err != nil {
		return nil, err
	}
	b.runs = append(b.runs, run{math.MaxInt, len(all), len(extra)})
	all = append(all, extra...)
	slices.SortStableFunc(b.runs, bySender)
	lo, hi := graph.VertexID(math.MaxUint32), graph.VertexID(0)
	for i := range all {
		lo, hi = min(lo, all[i].Dst), max(hi, all[i].Dst)
	}
	var out Groups
	if span := int64(hi) - int64(lo) + 1; len(all) > 0 && span <= denseSpan*int64(len(all)) {
		out = b.grouper.scatter(all, b.runs, lo, int(span))
	} else {
		// Few messages over a wide id range (a relaxAsync round, a traversal
		// frontier): group a copy in delivery order stably. Group reorders
		// what it is given, so the copy is a buffer apart from b.mem.
		b.ordered = slices.Grow(b.ordered[:0], len(all))
		for _, r := range b.runs {
			b.ordered = append(b.ordered, all[r.off:r.off+r.n]...)
		}
		out = b.grouper.Group(b.ordered, nil)
	}
	b.mem = all[:0]
	b.runs = b.runs[:0]
	b.spillN = 0
	b.received = 0
	b.maxMem = 0 // peak is tracked per drain interval (one superstep)
	return out, nil
}

// appendSpilled reads the spill back with one charged sequential read and
// appends its records to dst in arrival order.
func (b *Inbox) appendSpilled(dst []comm.Msg) ([]comm.Msg, error) {
	if b.spillN == 0 {
		return dst, nil
	}
	n := int(b.spillN * recSize)
	b.readBack = slices.Grow(b.readBack[:0], n)[:n]
	if err := b.spill.ReadAll(b.readBack); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, int(b.spillN))
	for o := 0; o < n; o += recSize {
		dst = append(dst, comm.GetRecord(b.readBack[o:]))
	}
	return dst, nil
}

// Pending returns a copy of every buffered message — memory and spill —
// without resetting the inbox, in delivery order, so that re-added from
// one sender (a checkpoint restore) they drain to the same lists. The
// spill re-read is charged as a sequential read like any checkpoint byte.
func (b *Inbox) Pending() ([]comm.Msg, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	arrived := slices.Clone(b.mem)
	if b.spillN > 0 {
		var err error
		if arrived, err = b.appendSpilled(arrived); err != nil {
			return nil, err
		}
	}
	runs := slices.Clone(b.runs) // b.runs stays in arrival order: the inbox may receive again
	slices.SortStableFunc(runs, bySender)
	out := make([]comm.Msg, 0, len(arrived))
	for _, r := range runs {
		out = append(out, arrived[r.off:r.off+r.n]...)
	}
	return out, nil
}

// OnlineInbox implements MOCgraph's message online computing: messages to
// vertices in the hot set are combined into an in-memory accumulator the
// moment they arrive (valid only for commutative, associative messages);
// messages to cold vertices fall through to a regular spilling inbox.
type OnlineInbox struct {
	mu      sync.Mutex
	hot     map[graph.VertexID]bool
	combine func(a, b float64) float64
	// acc[s] folds sender s's messages as they arrive; Drain folds the
	// senders' values in ascending sender order: delivery order, one
	// reduction level up, since only a sender's own order is defined.
	acc     []map[graph.VertexID]float64
	got     map[graph.VertexID]bool // destinations some accumulator holds
	cold    *Inbox
	online  int64
	hotMsgs []comm.Msg // the accumulators as messages at drain, reused
	sortTmp []comm.Msg // partials' second sort buffer, reused

	mOnlineMsgs     *obs.Counter // nil when metrics are disabled
	mOnlineCombines *obs.Counter
}

// SetMetrics wires the online-computing tallies (and the cold inbox's
// spill tallies) into reg. A nil registry disables them.
func (o *OnlineInbox) SetMetrics(reg *obs.Registry) {
	o.mu.Lock()
	o.mOnlineMsgs = reg.Counter("msgstore.online_msgs")
	o.mOnlineCombines = reg.Counter("msgstore.online_combines")
	o.mu.Unlock()
	o.cold.SetMetrics(reg)
}

// NewOnlineInbox wraps cold with online computing for the hot vertices.
// combine must be a commutative, associative reducer.
func NewOnlineInbox(cold *Inbox, hot map[graph.VertexID]bool, combine func(a, b float64) float64) *OnlineInbox {
	return &OnlineInbox{hot: hot, combine: combine, got: make(map[graph.VertexID]bool), cold: cold}
}

// Add accepts one message from sender 0, consuming it online when possible.
func (o *OnlineInbox) Add(m comm.Msg) error { return o.AddFrom(0, []comm.Msg{m}) }

// AddFrom accepts a batch from worker from, each lock taken once.
func (o *OnlineInbox) AddFrom(from int, msgs []comm.Msg) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cold.mu.Lock()
	defer o.cold.mu.Unlock()
	for i, m := range msgs {
		if o.fold(from, m) {
			continue
		}
		if err := o.cold.addFrom(from, msgs[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// fold consumes m online, into from's accumulator, when its destination is
// hot. Callers hold o.mu.
func (o *OnlineInbox) fold(from int, m comm.Msg) bool {
	if !o.hot[m.Dst] {
		return false
	}
	for len(o.acc) <= from {
		o.acc = append(o.acc, make(map[graph.VertexID]float64))
	}
	if v, ok := o.acc[from][m.Dst]; ok {
		m.Val = o.combine(v, m.Val)
	}
	o.acc[from][m.Dst] = m.Val
	if o.got[m.Dst] {
		o.mOnlineCombines.Inc() // this sender's fold now, or Drain's across senders
	}
	o.got[m.Dst] = true
	o.online++
	o.mOnlineMsgs.Inc()
	return true
}

// partials appends the accumulators to out as messages, senders ascending
// and each sender's ascending by destination.
func (o *OnlineInbox) partials(out []comm.Msg) []comm.Msg {
	for _, acc := range o.acc {
		start := len(out)
		for dst, v := range acc {
			out = append(out, comm.Msg{Dst: dst, Val: v})
		}
		// Destinations are distinct within one accumulator, so the stable
		// sort's order is the only order.
		copy(out[start:], comm.StableSortByDst(out[start:], &o.sortTmp))
	}
	return out
}

// Received reports the number of messages accepted (online + cold). Note
// this counts messages, not accumulator slots: several messages combined
// into one hot destination still each count once.
func (o *OnlineInbox) Received() int64 {
	o.mu.Lock()
	online := o.online
	o.mu.Unlock()
	return online + o.cold.Received()
}

// OnlineCount reports how many messages were consumed online.
func (o *OnlineInbox) OnlineCount() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.online
}

// Spilled reports how many messages reached disk despite online computing.
func (o *OnlineInbox) Spilled() int64 { return o.cold.Spilled() }

// MaxMemBytes reports the peak memory of accumulator — one slot per
// distinct hot destination — plus cold buffer.
func (o *OnlineInbox) MaxMemBytes() int64 {
	o.mu.Lock()
	n := int64(len(o.got)) * recSize
	o.mu.Unlock()
	return n + o.cold.MaxMemBytes()
}

// Pending returns a copy of every buffered message without resetting: the
// cold inbox's messages followed by the online accumulators' values in
// (sender, destination) order, so checkpoint bytes are deterministic and a
// restore folds them as Drain would have.
func (o *OnlineInbox) Pending() ([]comm.Msg, error) {
	out, err := o.cold.Pending()
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.partials(out), nil
}

// Drain merges the online accumulators with the cold inbox's contents and
// resets both.
func (o *OnlineInbox) Drain() (Groups, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hotMsgs = o.partials(o.hotMsgs[:0])
	o.cold.mu.Lock()
	out, err := o.cold.drain(o.hotMsgs)
	o.cold.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i := range out {
		// Fold a hot vertex's values — any cold stragglers, then each
		// sender's accumulator — so the consumer sees one combined message.
		if g := &out[i]; len(g.Vals) > 1 && o.hot[g.Dst] {
			v := g.Vals[0]
			for _, c := range g.Vals[1:] {
				v = o.combine(v, c)
			}
			g.Vals = g.Vals[:1]
			g.Vals[0] = v
		}
	}
	for _, acc := range o.acc {
		clear(acc)
	}
	clear(o.got)
	o.online = 0
	return out, nil
}

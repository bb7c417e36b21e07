// Package msgstore implements the receiver-side message stores of the
// push engines. An Inbox buffers up to B_i messages in memory; overflow is
// spilled to disk with random-write cost — the poor temporal locality of
// messages across destination vertices is the I/O problem the whole paper
// attacks — and read back sequentially at the start of the next superstep
// (the 2·IO(M_disk) term of Eq. 7, split across srw and ssr exactly as
// Eq. 11 splits it). The spill is one codec.SpillFile under every codec:
// the cost is charged per spilled record, and the bytes reach the file a
// staging buffer at a time (DESIGN.md, "Charge model vs physical
// execution"). Messages arrive as the 12-byte records a push packet
// carries (comm.Records) and stay records — in memory, and copied straight
// into that buffer when spilled, and in the copy Pending makes for a
// checkpoint — until the drain decodes them.
// Draining yields Groups: the superstep's messages grouped by destination
// in one flat array of the drain's Scratch, each vertex's values in
// delivery order — senders ascending, one sender's as they arrived — or,
// under a combiner (SetCombine), folded left to right in that order into
// one value per vertex. A dense batch is grouped from the records where
// they lie, in memory or read back; a sparse one is decoded once, in
// delivery order, to be sorted (DESIGN.md, "Message path"). An
// OnlineInbox adds MOCgraph's message online computing: messages for a
// configured hot set of vertices are folded into in-memory accumulators
// immediately and never touch disk.
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

// recSize is one stored message: the fabric's record, so Q^t, Spilled
// and MdiskW count the bytes the wire accounting does.
const recSize = comm.MsgWireSize

// run is a stretch of the arrival stream one sender delivered: n messages from position off.
type run struct{ from, off, n int }

// bySender, under a stable sort, puts runs in delivery order: senders
// ascending, one sender's stretches as they arrived.
func bySender(x, y run) int { return cmp.Compare(x.from, y.from) }

// Scratch is what a drain works in: the spill read back (and, under a
// real codec, its compressed frames), the Grouper that builds the Groups
// and the sparse path's batch in delivery order. Inboxes that never drain
// at the same time — a worker's two parity inboxes — can share one
// (NewSharedInbox); Pending reads the spill back into it too. The Groups
// a drain returns live in its Scratch until the next drain through it.
// The zero value is ready to use.
type Scratch struct {
	readBack comm.Records
	frames   []byte
	grouper  Grouper
	ordered  []comm.Msg
}

// Inbox is one worker's receive buffer for one superstep's incoming
// messages. Safe for concurrent Add from multiple senders.
type Inbox struct {
	mu       sync.Mutex
	capacity int // B_i in messages; <= 0 means unlimited (sufficient memory)
	mem      comm.Records
	runs     []run            // who sent which stretch of the arrival stream mem ‖ spill, adjacent ones of a sender coalesced
	spill    *codec.SpillFile // the overflow; its buffers last as long as the inbox
	scratch  *Scratch         // the inbox's own unless shared; set at construction
	spillN   int64
	received int64
	maxMem   int64
	combine  func(a, b float64) float64 // folds a drain's lists when non-nil

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

// SetCombine makes every later drain fold each destination's values, in
// delivery order, into one: combine(…combine(v1, v2)…, vn). combine must
// be the program's commutative, associative reducer; it runs under the
// inbox's lock, so it must not call the inbox. nil lists every value
// again.
func (b *Inbox) SetCombine(combine func(a, b float64) float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.combine = combine
}

// NewInbox returns an inbox spilling to path once capacity messages are
// buffered: capacity 0 means unlimited (sufficient memory), a negative
// capacity means every message spills (MOCgraph's "messages sent to
// disk-resident vertices reside on disk"). The spill file is created
// lazily; cdc selects its on-disk encoding (nil means codec.None). The
// inbox drains in a Scratch of its own.
func NewInbox(path string, ct *diskio.Counter, capacity int, cdc codec.Codec) *Inbox {
	return NewSharedInbox(path, ct, capacity, cdc, new(Scratch))
}

// NewSharedInbox is NewInbox draining in sc, which no inbox that drains
// at the same time may use.
func NewSharedInbox(path string, ct *diskio.Counter, capacity int, cdc codec.Codec, sc *Scratch) *Inbox {
	return &Inbox{capacity: capacity, spill: codec.NewSpillFile(path, ct, cdc), scratch: sc}
}

// Add accepts one message from sender 0. Beyond capacity the message is
// spilled with random-write accounting. A spill write fault is reported by
// the Add whose record needed the staging buffer flushed (see spillRun).
func (b *Inbox) Add(m comm.Msg) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.add(0, m)
}

// AddFrom accepts a packet worker from delivered under one lock
// acquisition, copying what it keeps: msgs stays the caller's.
func (b *Inbox) AddFrom(from int, msgs comm.Records) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addFrom(from, msgs)
}

// room reports how many of n messages fit in memory.
func (b *Inbox) room(n int) int {
	if b.capacity == 0 {
		return n
	}
	return min(n, max(b.capacity-b.mem.Len(), 0))
}

// keep appends n records' worth of room to mem — doubling, not append's
// 1.25× — and returns it for the caller to fill.
func (b *Inbox) keep(n int) []byte {
	l := len(b.mem)
	if l+n*recSize > cap(b.mem) {
		b.mem = slices.Grow(b.mem, max(n*recSize, cap(b.mem)))
	}
	b.mem = b.mem[:l+n*recSize]
	b.received += int64(n)
	b.maxMem = max(b.maxMem, int64(len(b.mem)))
	return b.mem[l:]
}

// add is Add from sender from under b.mu: the record is encoded straight
// into memory or into the spill's staging area.
func (b *Inbox) add(from int, m comm.Msg) error {
	before := b.received
	var err error
	if b.room(1) == 1 {
		comm.PutRecord(b.keep(1), m)
	} else {
		err = b.spillRun(1, func(dst []byte, _ int) { comm.PutRecord(dst, m) })
	}
	b.noteRun(from, before)
	return err
}

// addFrom is AddFrom under b.mu. The head of the batch that fits in memory
// goes in with one copy; the rest spills as one run, charged per record.
func (b *Inbox) addFrom(from int, msgs comm.Records) error {
	before := b.received
	n := b.room(msgs.Len())
	if n > 0 {
		copy(b.keep(n), msgs[:n*recSize])
	}
	var err error
	if rest := msgs[n*recSize:]; len(rest) > 0 {
		err = b.spillRun(rest.Len(), func(dst []byte, first int) { copy(dst, rest[first*recSize:]) })
	}
	b.noteRun(from, before)
	return err
}

// noteRun records that from delivered what arrived since the stream held
// before messages, coalescing with from's previous stretch when adjacent.
func (b *Inbox) noteRun(from int, before int64) {
	got := int(b.received - before)
	if got == 0 {
		return
	}
	if last := len(b.runs) - 1; last >= 0 && b.runs[last].from == from {
		b.runs[last].n += got
	} else {
		b.runs = append(b.runs, run{from, int(before), got})
	}
}

// spillRun appends n records, which put writes straight into the spill's
// staging area, in arrival order. When a flush fails part-way only the
// records accepted so far are charged, counted and kept for the retry.
func (b *Inbox) spillRun(n int, put func(dst []byte, first int)) error {
	accepted, err := b.spill.AppendEncoded(n, recSize, put)
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

// Unfolded reports how many values the next Drain would list without a
// combiner: one per message accepted so far.
func (b *Inbox) Unfolded() int64 { return b.Received() }

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
// values. Under a combiner each vertex's list is folded, in that order,
// into one value. The result lives in the inbox's Scratch, valid until
// the next drain through it.
func (b *Inbox) Drain() (Groups, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drain(nil)
}

// denseSpan: a batch whose ids span at most this many times its length is dense.
const denseSpan = 2

// drain is Drain with extra listed after every sender's messages. It
// reads the arrival stream mem ‖ spill ‖ extra where it lies. Callers
// hold b.mu.
func (b *Inbox) drain(extra comm.Records) (Groups, error) {
	spilled, err := b.readSpill()
	if err != nil {
		return nil, err
	}
	if err := b.spill.Close(); err != nil {
		return nil, err
	}
	a := arrivals{b.mem, spilled, extra}
	b.runs = append(b.runs, run{math.MaxInt, int(b.received), extra.Len()})
	slices.SortStableFunc(b.runs, bySender)
	sc := b.scratch
	lo, hi := a.bounds()
	var out Groups
	if n, span := a.len(), int64(hi)-int64(lo)+1; n > 0 && span <= denseSpan*int64(n) {
		if b.combine != nil {
			out = sc.grouper.fold(&a, b.runs, lo, int(span), b.combine)
		} else {
			out = sc.grouper.scatter(&a, b.runs, lo, int(span))
		}
	} else {
		// Few messages over a wide id range (a traversal frontier): group
		// one copy in delivery order stably.
		sc.ordered = slices.Grow(sc.ordered[:0], a.len())
		for _, r := range b.runs {
			for _, recs := range a.cut(r) {
				sc.ordered = comm.DecodeRecords(sc.ordered, recs)
			}
		}
		out = sc.grouper.Group(sc.ordered, b.combine)
	}
	b.mem = b.mem[:0]
	b.runs = b.runs[:0]
	b.spillN = 0
	b.received = 0
	b.maxMem = 0 // peak is tracked per drain interval (one superstep)
	return out, nil
}

// readSpill reads the spill back into the scratch with one charged
// sequential read: the records in arrival order, nil when none spilled.
func (b *Inbox) readSpill() (comm.Records, error) {
	if b.spillN == 0 {
		return nil, nil
	}
	sc := b.scratch
	n := int(b.spillN * recSize)
	sc.readBack = slices.Grow(sc.readBack[:0], n)[:n]
	if err := b.spill.ReadAllInto(sc.readBack, &sc.frames); err != nil {
		return nil, err
	}
	return sc.readBack, nil
}

// Pending returns a copy of every buffered message — memory and spill —
// without resetting the inbox, in delivery order, so that re-added from
// one sender (a checkpoint restore) they drain to the same lists. The
// spill re-read is charged as a sequential read like any checkpoint byte.
func (b *Inbox) Pending() (comm.Records, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spilled, err := b.readSpill()
	if err != nil {
		return nil, err
	}
	a := arrivals{b.mem, spilled, nil}
	runs := slices.Clone(b.runs) // b.runs stays in arrival order: the inbox may receive again
	slices.SortStableFunc(runs, bySender)
	out := make(comm.Records, 0, a.len()*recSize)
	for _, r := range runs {
		for _, recs := range a.cut(r) {
			out = append(out, recs...)
		}
	}
	return out, nil
}

// arrivals is the arrival stream a drain reads in place: the records kept
// in memory, then the spilled records as read back, then extra. A run's
// offset and length count positions in the whole stream. Loops range over
// the array's value: ranging through a pointer keeps the compiler from
// dropping the value decode that only counting loops leave unused.
type arrivals [3]comm.Records

func (a *arrivals) len() int { return (len(a[0]) + len(a[1]) + len(a[2])) / recSize }

// bounds returns the least and greatest destination in the stream.
func (a *arrivals) bounds() (lo, hi graph.VertexID) {
	lo = math.MaxUint32
	for _, recs := range *a {
		for ; len(recs) >= recSize; recs = recs[recSize:] {
			d := comm.GetRecord(recs).Dst
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	return lo, hi
}

// cut returns the parts of r that lie in each segment of the stream.
func (a *arrivals) cut(r run) (parts arrivals) {
	start, end := r.off*recSize, (r.off+r.n)*recSize
	for i, seg := range *a {
		parts[i] = seg[min(start, len(seg)):min(end, len(seg))]
		start, end = max(start-len(seg), 0), max(end-len(seg), 0)
	}
	return parts
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
	hotRecs comm.Records     // the accumulators as records at drain, reused
	dsts    []graph.VertexID // partials' per-sender destination ids, reused

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
// combine must be a commutative, associative reducer; cold folds under it
// too, which is how Drain folds the senders' accumulators into one value.
func NewOnlineInbox(cold *Inbox, hot map[graph.VertexID]bool, combine func(a, b float64) float64) *OnlineInbox {
	cold.SetCombine(combine)
	return &OnlineInbox{hot: hot, combine: combine, got: make(map[graph.VertexID]bool), cold: cold}
}

// AddFrom accepts a packet from worker from, each lock taken once: hot
// records fold, each stretch of cold ones goes on to the cold inbox as it
// is.
func (o *OnlineInbox) AddFrom(from int, msgs comm.Records) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cold.mu.Lock()
	defer o.cold.mu.Unlock()
	cold := 0 // the first record of the current stretch of cold ones
	for i := range msgs.Len() {
		m := msgs.At(i)
		if !o.hot[m.Dst] {
			continue
		}
		if err := o.cold.addFrom(from, msgs[cold*recSize:i*recSize]); err != nil {
			return err
		}
		o.fold(from, m)
		cold = i + 1
	}
	return o.cold.addFrom(from, msgs[cold*recSize:])
}

// fold consumes m, whose destination is hot, into from's accumulator.
// Callers hold o.mu.
func (o *OnlineInbox) fold(from int, m comm.Msg) {
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
}

// partials appends the accumulators to out as records, senders ascending
// and each sender's ascending by destination.
func (o *OnlineInbox) partials(out comm.Records) comm.Records {
	for _, acc := range o.acc {
		o.dsts = o.dsts[:0]
		for dst := range acc {
			o.dsts = append(o.dsts, dst)
		}
		slices.Sort(o.dsts)
		for _, dst := range o.dsts {
			out = comm.AppendRecords(out, []comm.Msg{{Dst: dst, Val: acc[dst]}})
		}
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

// Unfolded reports how many values the next Drain would list were only
// the online accumulators folded: one per cold message and one per hot
// destination, since a hot destination's messages never reach the cold
// inbox through AddFrom.
func (o *OnlineInbox) Unfolded() int64 {
	o.mu.Lock()
	hot := int64(len(o.got))
	o.mu.Unlock()
	return hot + o.cold.Unfolded()
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
func (o *OnlineInbox) Pending() (comm.Records, error) {
	out, err := o.cold.Pending()
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.partials(out), nil
}

// Drain merges the online accumulators with the cold inbox's contents and
// resets both. The accumulators join the drain's stream after every
// sender's cold messages, and the cold inbox folds under the combiner, so
// a hot vertex's value is any cold stragglers, then each sender's
// accumulator, folded in that order.
func (o *OnlineInbox) Drain() (Groups, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hotRecs = o.partials(o.hotRecs[:0])
	o.cold.mu.Lock()
	out, err := o.cold.drain(o.hotRecs)
	o.cold.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, acc := range o.acc {
		clear(acc)
	}
	clear(o.got)
	o.online = 0
	return out, nil
}

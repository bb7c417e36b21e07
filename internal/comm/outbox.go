package comm

import (
	"slices"

	"hybridgraph/internal/graph"
)

// Outbox is the sender-side message buffer used by the push engines:
// messages accumulate per destination worker and a packet is flushed as
// soon as its encoded size reaches the sending threshold (the paper's
// "distributed systems usually set a sending threshold to control the
// communication behaviour", Appendix E; Giraph-style, 4 MB by default).
// Push does not concatenate or combine — the paper argues the poor
// destination locality at the sender makes it not cost-effective — so
// packets are flushed unconcatenated.
//
// An outbox is a fixed sending buffer: a worker builds one for the job and
// Resets it every superstep. Each destination's buffer holds the packet's
// records as Add encodes them, and keeps its backing array after a flush,
// and every flush hands the fabric the outbox's one Packet header. Both
// are sound because Fabric.Send is synchronous and no fabric or handler
// retains p or p.Msgs (DESIGN.md, "Message path"). Given the most records
// a superstep sends each destination (SetBounds), a buffer is allocated
// once, at its working size.
type Outbox struct {
	fabric    Fabric
	from      int
	step      int
	threshold int64
	limit     int // a buffer's largest size: the threshold rounded up to whole records
	pending   []Records
	bound     []int // per destination: the size a buffer first grows to, at most limit
	msgs      []Msg // the combiner's decode buffer, reused
	sorted    []Msg // the combiner's second sort buffer, reused
	flushes   int64
	sent      int64
	combine   func(a, b float64) float64
	saved     int64 // wire bytes saved by sender-side combining
	touched   int64 // messages processed by the combiner

	pkt Packet // the header every flush hands the fabric
}

// SetCombine enables sender-side combining at flush time (the paper's
// modified MOCgraph, pushM+com, Appendix E). Only messages that happen to
// share a destination within one buffered packet combine — exactly the
// limitation the paper demonstrates: once a threshold-triggered flush has
// carried a message away, later messages to the same vertex cannot join
// it. Each destination's messages fold left to right in Add order.
func (o *Outbox) SetCombine(c func(a, b float64) float64) { o.combine = c }

// SavedBytes reports the wire bytes sender-side combining removed.
func (o *Outbox) SavedBytes() int64 { return o.saved }

// CombinedTouches reports how many messages the combiner processed (its
// CPU cost, which a small threshold fails to amortise).
func (o *Outbox) CombinedTouches() int64 { return o.touched }

// NewOutbox returns an outbox for worker from sending via fabric at the
// given superstep. thresholdBytes <= 0 selects the 4 MB default.
func NewOutbox(fabric Fabric, workers, from, step int, thresholdBytes int64) *Outbox {
	if thresholdBytes <= 0 {
		thresholdBytes = 4 << 20
	}
	return &Outbox{
		fabric:    fabric,
		from:      from,
		step:      step,
		threshold: thresholdBytes,
		limit:     int((thresholdBytes + MsgWireSize - 1) / MsgWireSize * MsgWireSize),
		pending:   make([]Records, workers),
		bound:     make([]int, workers),
	}
}

// SetBounds tells the outbox the most records one superstep adds for each
// destination: records[to] for worker to. A buffer then grows straight to
// that many records, or to the size it flushes at if that is smaller, and
// doubles past it only if a superstep adds more. Bounds size buffers
// only: packets, flushes and bytes are those of an outbox without them.
func (o *Outbox) SetBounds(records []int64) {
	for to, n := range records {
		o.bound[to] = int(min(n*MsgWireSize, int64(o.limit)))
	}
}

// Reset readies the outbox for another superstep on fabric: tallies and
// the combiner are cleared, anything a failed superstep left buffered is
// dropped, and the per-destination buffers keep their storage.
func (o *Outbox) Reset(fabric Fabric, step int) {
	o.fabric, o.step = fabric, step
	o.flushes, o.sent, o.saved, o.touched = 0, 0, 0, 0
	o.combine = nil
	for to := range o.pending {
		o.pending[to] = o.pending[to][:0]
	}
}

// minBuffer is where a message buffer that grows by doubling starts.
const minBuffer = 64

// Add encodes one message into worker to's buffer, flushing it once it
// holds the threshold's bytes. A full buffer grows to its bound when it
// is below it, else doubles, in whole records; either way up to the
// threshold rounded up to a whole record: the size it is flushed at, so
// after the first flush it never grows again.
func (o *Outbox) Add(to int, m Msg) error {
	buf := o.pending[to]
	n := len(buf)
	if n == cap(buf) {
		size := o.bound[to]
		if n >= size {
			size = max(2*n, minBuffer*MsgWireSize)
		}
		grown := make(Records, n, min(size, o.limit))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:n+MsgWireSize]
	PutRecord(buf[n:], m)
	o.pending[to] = buf
	if int64(len(buf)) >= o.threshold {
		return o.flush(to)
	}
	return nil
}

// Flush sends every non-empty buffer.
func (o *Outbox) Flush() error {
	for to := range o.pending {
		if len(o.pending[to]) > 0 {
			if err := o.flush(to); err != nil {
				return err
			}
		}
	}
	return nil
}

func (o *Outbox) flush(to int) error {
	recs := o.pending[to]
	o.pending[to] = recs[:0] // the storage is ours again once Send returns
	o.flushes++
	o.sent += int64(recs.Len())
	p := &o.pkt
	*p = Packet{From: o.from, To: to, Step: o.step, Msgs: recs}
	if o.combine != nil && recs.Len() > 1 {
		o.touched += int64(recs.Len())
		o.msgs = DecodeRecords(o.msgs[:0], recs)
		combined := CombineSorted(StableSortByDst(o.msgs, &o.sorted), o.combine)
		p.Msgs = AppendRecords(recs[:0], combined) // never longer than recs: in place
		p.WireBytes = ConcatSize(combined)
		o.saved += int64(len(recs)) - p.WireBytes
	}
	return o.fabric.Send(p)
}

// Sent reports the number of messages sent (including buffered-then-
// flushed), and Flushes the number of packets.
func (o *Outbox) Sent() int64 { return o.sent }

// Flushes reports the number of packets sent.
func (o *Outbox) Flushes() int64 { return o.flushes }

// ShardThreshold partitions the sending threshold across the shards of a
// parallel update scan: each shard's share of the 4 MB budget, floored at
// one message. Stages grow on demand and replay into the one outbox, so
// no engine uses the share; only the benchmark's stage probe passes it
// to NewStage.
func ShardThreshold(thresholdBytes int64, shards int) int64 {
	if thresholdBytes <= 0 {
		thresholdBytes = 4 << 20
	}
	if shards < 1 {
		shards = 1
	}
	t := thresholdBytes / int64(shards)
	if t < MsgWireSize {
		t = MsgWireSize
	}
	return t
}

// stageEntry is one deferred Outbox.Add: the message plus the destination
// worker shard-order replay needs, packed into a Msg's 16 bytes.
type stageEntry struct {
	to  int32
	dst graph.VertexID
	val float64
}

// Stage is a per-shard sender buffer for parallel update scans. Shards
// cannot share an Outbox directly — threshold-triggered flushes depend on
// the exact Add order, and interleaving shards would change packet
// boundaries (and, under sender combining, which messages meet in a
// packet). Instead the first shard, whose sends head the sequence, adds as
// it goes, every later shard stages its sends locally, and the caller
// replays the stages in shard order after the scan joins. Shards cover
// disjoint ascending vertex ranges, so the Outbox sees the sequential
// run's Add sequence exactly: identical packet boundaries, combine
// batches, wire bytes and message-log appends for any Parallelism.
//
// A stage is owned by one worker shard for the job: MergeInto empties it
// and keeps the backing array for the next superstep.
type Stage struct {
	entries []stageEntry
}

// NewStage returns an empty stage. A stage never flushes — flushing out of
// order is what staging exists to prevent — and grows by doubling, so
// budgetBytes (see ShardThreshold) sizes nothing and is ignored.
func NewStage(budgetBytes int64) *Stage {
	return &Stage{}
}

// Add stages one message for worker to.
func (s *Stage) Add(to int, m Msg) {
	if len(s.entries) == cap(s.entries) {
		s.entries = slices.Grow(s.entries, max(cap(s.entries), minBuffer))
	}
	s.entries = append(s.entries, stageEntry{to: int32(to), dst: m.Dst, val: m.Val})
}

// Len reports the number of staged messages.
func (s *Stage) Len() int { return len(s.entries) }

// Reset drops whatever a failed superstep left staged.
func (s *Stage) Reset() { s.entries = s.entries[:0] }

// MergeInto replays the staged sends into o in staging order and empties
// the stage. Threshold flushes fire during the replay exactly as they
// would have during a sequential scan.
func (s *Stage) MergeInto(o *Outbox) error {
	for _, e := range s.entries {
		if err := o.Add(int(e.to), Msg{Dst: e.dst, Val: e.val}); err != nil {
			return err
		}
	}
	s.Reset()
	return nil
}

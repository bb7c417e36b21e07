package core

import (
	"fmt"
	"slices"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/vertexfile"
)

// pullBlocks is b-pull's consume side from superstep 2 on (Algorithms 1
// and 2): for each local Vblock, send its block id to every worker, merge
// the returned (concatenated/combined) messages into the receiving buffer
// BR, and hand them to update for the block.
func (w *worker) pullBlocks(t int, update func(lo, hi graph.VertexID, msgs msgstore.Groups) error) error {
	lo, hi := w.job.layout.WorkerBlocks(w.id)
	// A fetch fills a receiving buffer taken from the worker's idle list;
	// the buffer goes back once its block has been updated.
	type fetched struct {
		buf *recvBuf
		mem int64
		err error
	}
	// next is the pending pre-pull of the block after the one updating,
	// nil when none is in flight. Every exit path — including a failed
	// pull or a failed update — must receive from it: an abandoned fetch
	// would keep charging pull I/O to this superstep's counters after the
	// step returned, corrupting the Q^t inputs of whatever ran next.
	var next chan fetched
	defer func() {
		if next != nil {
			<-next
		}
	}()
	for b := lo; b < hi; b++ {
		var f fetched
		if next != nil {
			f, next = <-next, nil
		} else {
			f.buf, f.mem, f.err = w.pullBlock(t, b)
		}
		if f.err != nil {
			return f.err
		}
		// Pre-pull block b+1 while b updates (the paper's pre-pulling;
		// DisablePrepull pulls every block inline). Receiving-buffer
		// memory is BR_i·(1+inflight): the block being updated plus a
		// fetch actually in flight — the paper's BR_i = 2·n_i/V_i
		// doubling — so the last block, and every block under
		// DisablePrepull, pays a single buffer.
		charged := f.mem
		if !w.job.cfg.DisablePrepull && b+1 < hi {
			ch := make(chan fetched, 1)
			go func(b int) {
				buf, mem, err := w.pullBlock(t, b)
				ch <- fetched{buf, mem, err}
			}(b + 1)
			next = ch
			charged += f.mem
		}
		w.addStat(func(s *metrics.WorkerStep) {
			s.MemBytes = max(s.MemBytes, charged)
		})
		blk := w.job.layout.Blocks[b]
		if err := update(blk.Lo, blk.Hi, f.buf.groups); err != nil {
			return err
		}
		w.pullFree.put(f.buf)
	}
	return nil
}

// pullBlock performs Pull-Request (Algorithm 1) for global block b:
// request messages from every worker and merge them into BR — a receiving
// buffer off the worker's idle list — combining when the program allows
// it: the responses are appended in responder order and grouped stably, so
// a vertex's values are listed, or folded, in the order the responders
// were asked. Returns the buffer holding the grouped messages and BR's
// modelled memory footprint.
func (w *worker) pullBlock(t, b int) (*recvBuf, int64, error) {
	combine := w.job.prog.Combiner()
	if w.job.cfg.DisableCombine {
		combine = nil
	}
	buf := w.pullFree.take()
	buf.msgs = slices.Grow(buf.msgs[:0], w.job.brBound(b, combine != nil))
	for y := range w.job.workers {
		msgs, _, err := w.fab().PullRequest(w.id, y, b, t)
		if err != nil {
			w.pullFree.put(buf)
			return nil, 0, err
		}
		buf.msgs = append(buf.msgs, msgs...)
	}
	buf.groups = buf.grouper.Group(buf.msgs, combine)
	held := buf.groups.Msgs()*comm.MsgValSize + int64(len(buf.groups))*comm.MsgIDSize
	w.addStat(func(s *metrics.WorkerStep) {
		s.Requests += int64(len(w.job.workers))
	})
	return buf, held, nil
}

// RespondPull implements comm.Handler: Pull-Respond (Algorithm 2). For
// each local Vblock whose res indicator and destination bitmap allow it,
// scan the Eblock toward the requested block — together one forward pass
// over the Eblock file; for each fragment whose source vertex responded at
// t-1, random-read its broadcast value — charged as such, served from the
// superstep's copy of the column — and generate one message per clustered
// edge. The other fragments' edges are not decoded. The sending buffer BS
// is concatenated (and combined when legal) before crossing the wire. The
// scan visits sources in ascending id order, and that is the order a
// destination's values are listed, or folded, in (DESIGN.md, "Fold order
// in Pull-Respond").
//
// The response is built in the requesting worker's respondBuf and stays
// valid until that worker's next pull from this one: a worker has one
// pull from each responder in flight at a time (pullBlocks fetches one
// block at once), and every consumer — pullBlock, the TCP server, the
// message log, confined replay's self-pull — copies or encodes the
// response before then.
func (w *worker) RespondPull(reqBlock, step int) ([]comm.Msg, int64, error) {
	if reqBlock < 0 || reqBlock >= w.job.layout.NumBlocks() {
		return nil, 0, fmt.Errorf("core: pull request for block %d of %d", reqBlock, w.job.layout.NumBlocks())
	}
	rp := readParity(step)
	blk := w.job.layout.Blocks[reqBlock]
	combine := w.job.prog.Combiner()
	if w.job.cfg.DisableCombine {
		combine = nil
	}
	free := &w.respFree[w.job.layout.OwnerOfBlock(reqBlock)]
	rb := free.take()
	defer free.put(rb)
	n := blk.Len()
	rb.msgs = rb.msgs[:0]
	if combine != nil {
		rb.msgs = slices.Grow(rb.msgs, n) // the folded values: at most one per vertex
		rb.acc = slices.Grow(rb.acc[:0], n)[:n]
		rb.seen = slices.Grow(rb.seen[:0], n)[:n]
		clear(rb.seen)
	}
	sender := newMsgSender(w.job.prog)
	var produced, vrr int64
	// The svertex reads are charged once for the request, on every return.
	var reads vertexfile.ScanRun
	defer w.vstore.ChargeRun(&reads)
	var col *vertexfile.Column
	st, err := w.ve.ScanBlock(reqBlock, &rb.scan,
		func(j int) bool { return w.blockRes[rp][j].Load() },
		func(src graph.VertexID) bool { return w.respond[rp].Get(w.localIdx(src)) },
		func(src graph.VertexID, edges []graph.Half) error {
			if col == nil {
				var err error
				if col, err = w.bcastColumn(rp); err != nil {
					return err
				}
			}
			bcast, err := col.Read(src, &reads)
			if err != nil {
				return err
			}
			vrr += vertexfile.BcastSize
			for _, e := range edges {
				val, keep := sender.value(bcast, e.Dst, e.Weight)
				if !keep {
					continue
				}
				produced++
				d := int(e.Dst - blk.Lo) // wraps far past n below blk.Lo
				switch {
				case d >= n:
					return fmt.Errorf("core: eblock toward block %d holds an edge to vertex %d", reqBlock, e.Dst)
				case combine == nil:
					rb.msgs = append(rb.msgs, comm.Msg{Dst: e.Dst, Val: val})
				case rb.seen[d]:
					rb.acc[d] = combine(rb.acc[d], val)
				default:
					rb.seen[d], rb.acc[d] = true, val
				}
			}
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	ebar, ft := st.EdgeBytes, st.FragBytes
	if w.job.cfg.InMemory {
		ebar, ft = 0, 0
	}
	if w.job.cfg.VerticesInMemory {
		vrr = 0
	}

	// The response leaves the call in the buffer's own storage: the folded
	// values listed into msgs, or the sorted messages.
	var out []comm.Msg
	if combine != nil {
		for d, ok := range rb.seen {
			if ok {
				rb.msgs = append(rb.msgs, comm.Msg{Dst: blk.Lo + graph.VertexID(d), Val: rb.acc[d]})
			}
		}
		out = rb.msgs
	} else {
		out = comm.StableSortByDst(rb.msgs, &rb.tmp)
	}
	rawBytes := produced * comm.MsgWireSize
	wire := comm.ConcatSize(out)
	bsMem := int64(len(out)) * comm.MsgWireSize

	w.addStat(func(s *metrics.WorkerStep) {
		s.Produced += produced
		s.McoBytes += rawBytes - wire
		s.Parts.Vrr += vrr
		s.Parts.Ebar += ebar
		s.Parts.Ft += ft
		s.CPU.Messages += produced
		s.CPU.Edges += ebar / 8 // every scanned edge costs, responding or not
		s.MemBytes = max(s.MemBytes, bsMem)
	})
	if w.mlog != nil && w.job.layout.OwnerOfBlock(reqBlock) != w.id {
		// Confined recovery: log the response exactly as it crosses the wire,
		// so the requester's replay re-pull reads these bytes instead of this
		// worker's (by then advanced) vertex values. Self-serving responses
		// are regenerated during replay and never logged. Duplicate RPC
		// deliveries may log twice; the reader takes the first copy.
		if err := w.mlog.AppendPullResp(step, reqBlock, out); err != nil {
			return nil, 0, err
		}
	}
	return out, wire, nil
}

// brBound is the most messages one pull of global block b returns from
// all workers together, the size BR grows to once: under a combiner each
// responder sends at most one per vertex of the block, otherwise the
// responders together send at most one per in-edge of the block.
func (j *job) brBound(b int, combine bool) int {
	blk := j.layout.Blocks[b]
	if combine {
		return len(j.workers) * blk.Len()
	}
	var n int
	for _, d := range j.census().inDeg[blk.Lo:blk.Hi] {
		n += int(d)
	}
	return n
}

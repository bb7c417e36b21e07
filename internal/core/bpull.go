package core

import (
	"fmt"
	"slices"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/vertexfile"
)

// stepBPull runs one block-centric pull superstep (Algorithms 1 and 2):
// for each local Vblock, send its block id to every worker, merge the
// returned (concatenated/combined) messages into the receiving buffer BR,
// and run update() over the block. Superstep 1 only initialises vertices —
// "b-pull starts exchanging messages from the 2nd superstep" (Section 6.5)
// — which is the one extra superstep of Appendix B.
func (w *worker) stepBPull(t int) error {
	return w.stepBPullProduce(t, false)
}

// stepBPullThenPush is hybrid's b-pull→push switch superstep (Fig. 6):
// pullRes() and update() run as usual, and pushRes() is invoked
// immediately on the new values, pushing messages for superstep t+1.
func (w *worker) stepBPullThenPush(t int) error {
	return w.stepBPullProduce(t, true)
}

func (w *worker) stepBPullProduce(t int, pushProduce bool) error {
	var outbox *comm.Outbox
	if pushProduce {
		outbox = w.sendBuffers(t)
	}
	// Shard 0 sends as it goes, the others stage, and the stages replay into
	// the outbox in shard order after each block's scan joins (see stepPush).
	hookFor := func(shard int) updateHook {
		sb := &w.shards[shard]
		return func(v graph.VertexID, rec *vertexfile.Record, responded bool) error {
			// Estimate push's IO(E^t) from the in-memory adjacency index when
			// hybrid carries one (edges of every updated vertex).
			if w.adj != nil && !pushProduce && !w.job.cfg.InMemory {
				if eb, err := w.adj.EdgeBytes(v); err == nil {
					w.addStat(func(s *workerStat) { s.estEt += eb })
				}
			}
			if !pushProduce || rec.OutDeg == 0 {
				return nil
			}
			// The switch superstep really reads the adjacency list and pushes.
			sent, err := w.pushRes(sb, t, v, rec, responded)
			if sent > 0 {
				w.addStat(func(s *workerStat) {
					s.produced += sent
					s.cpu.Messages += sent
				})
			}
			return err
		}
	}
	runBlock := func(blo, bhi graph.VertexID, msgs msgstore.Groups) error {
		if err := w.updateBlock(t, blo, bhi, msgs, hookFor); err != nil {
			return err
		}
		if outbox == nil {
			return nil
		}
		return w.mergeStages(outbox)
	}

	if t == 1 {
		// Initialisation superstep: nothing to pull yet.
		if err := runBlock(w.part.Lo, w.part.Hi, nil); err != nil {
			return err
		}
	} else {
		lo, hi := w.job.layout.WorkerBlocks(w.id)
		depth := w.job.cfg.PrefetchDepth
		// A fetch fills a receiving buffer taken from the worker's idle list;
		// the buffer goes back once its block has been updated.
		type fetched struct {
			buf *recvBuf
			mem int64
			err error
		}
		launch := func(b int) chan fetched {
			ch := make(chan fetched, 1)
			go func() {
				buf, mem, err := w.pullBlock(t, b)
				ch <- fetched{buf, mem, err}
			}()
			return ch
		}
		// inflight holds the pipeline's pending fetches, oldest first (the
		// next block to update is always inflight[0]). Every exit path —
		// including a failed pull or a failed update — must receive from
		// each remaining channel: an abandoned fetch would keep charging
		// pull I/O to this superstep's counters after stepBPull returned,
		// corrupting the Q^t inputs of whatever ran next.
		var inflight []chan fetched
		defer func() {
			for _, ch := range inflight {
				<-ch
			}
		}()
		nextLaunch := lo + 1
		for b := lo; b < hi; b++ {
			var buf *recvBuf
			var brMem int64
			if len(inflight) > 0 {
				ch := inflight[0]
				inflight = inflight[1:]
				f := <-ch
				if f.err != nil {
					return f.err
				}
				buf, brMem = f.buf, f.mem
			} else {
				var err error
				buf, brMem, err = w.pullBlock(t, b)
				if err != nil {
					return err
				}
			}
			// Top the pipeline up to PrefetchDepth blocks ahead. Depth 1 is
			// the paper's pre-pulling; depth 0 (DisablePrepull) never
			// launches and always pulls inline. An inline pull consumes a
			// block no launch covered, so nextLaunch may have to skip past
			// it — it must always point strictly ahead of b.
			if nextLaunch <= b {
				nextLaunch = b + 1
			}
			for ; nextLaunch < hi && nextLaunch <= b+depth; nextLaunch++ {
				inflight = append(inflight, launch(nextLaunch))
			}
			// Receiving-buffer memory: BR_i·(1+inflight) — the block being
			// updated plus one buffer per fetch actually in flight (the
			// paper's BR_i = 2·n_i/V_i doubling at depth 1). Charged only
			// when a prefetch really launched: the last block, and every
			// block under DisablePrepull, pays the single buffer.
			charged := brMem * int64(1+len(inflight))
			w.addStat(func(s *workerStat) {
				if charged > s.memBytes {
					s.memBytes = charged
				}
			})
			blk := w.job.layout.Blocks[b]
			if err := runBlock(blk.Lo, blk.Hi, buf.groups); err != nil {
				return err
			}
			w.pullFree.put(buf)
		}
		if len(inflight) > 0 {
			return fmt.Errorf("core: b-pull prefetched past the last block")
		}
	}
	if outbox != nil {
		return outbox.Flush()
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
	buf.msgs = buf.msgs[:0]
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
	w.addStat(func(s *workerStat) {
		s.requests += int64(len(w.job.workers))
	})
	return buf, held, nil
}

// RespondPull implements comm.Handler: Pull-Respond (Algorithm 2). For
// each local Vblock whose res indicator and destination bitmap allow it,
// scan the Eblock toward the requested block — together one forward pass
// over the Eblock file; for each fragment whose source vertex responded at
// t-1, random-read its broadcast value and generate one message per
// clustered edge. The sending buffer BS is concatenated (and combined when
// legal) before crossing the wire. The scan visits sources in ascending
// id order, and that is the order a destination's values are listed, or
// folded, in (DESIGN.md, "Fold order in Pull-Respond").
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
		rb.acc = slices.Grow(rb.acc[:0], n)[:n]
		rb.seen = slices.Grow(rb.seen[:0], n)[:n]
		clear(rb.seen)
	}
	var produced, distinct, vrr int64
	// The svertex reads are charged once for the request, on every return.
	var reads vertexfile.ScanRun
	defer w.vstore.ChargeRun(&reads)
	st, err := w.ve.ScanBlock(reqBlock, &rb.scan,
		func(j int) bool { return w.blockRes[rp][j].Load() },
		func(src graph.VertexID, edges []graph.Half) error {
			if !w.respond[rp].Get(w.localIdx(src)) {
				return nil
			}
			w.scanMu.Lock()
			bcast, err := w.vstore.ReadBcastRun(src, rp, w.scanPages, &reads)
			w.scanMu.Unlock()
			if err != nil {
				return err
			}
			vrr += vertexfile.BcastSize
			for _, e := range edges {
				val, keep := w.msgValueFor(bcast, e.Dst, e.Weight)
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
					distinct++
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

	// The response is the one allocation that leaves the call.
	var out []comm.Msg
	if combine != nil {
		out = make([]comm.Msg, 0, distinct)
		for d, ok := range rb.seen {
			if ok {
				out = append(out, comm.Msg{Dst: blk.Lo + graph.VertexID(d), Val: rb.acc[d]})
			}
		}
	} else {
		out = slices.Clone(comm.StableSortByDst(rb.msgs, &rb.tmp))
	}
	rawBytes := produced * comm.MsgWireSize
	wire := comm.ConcatSize(out)
	bsMem := int64(len(out)) * comm.MsgWireSize

	w.addStat(func(s *workerStat) {
		s.produced += produced
		s.estM += produced
		s.mcoBytes += rawBytes - wire
		s.parts.Vrr += vrr
		s.parts.Ebar += ebar
		s.parts.Ft += ft
		s.cpu.Messages += produced
		s.cpu.Edges += ebar / 8 // every scanned edge costs, responding or not
		if bsMem > s.memBytes {
			s.memBytes = bsMem
		}
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

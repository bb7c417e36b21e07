package core

import (
	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/vertexfile"
)

// stepPush runs one push superstep (Giraph's compute(), decoupled per
// Section 5.2 into load + update + pushRes): drain the messages pushed
// during the previous superstep, scan the vertex partition invoking
// update(), and — when produce is set — immediately push new messages
// toward their destination workers. produce is false only on hybrid's
// push→b-pull switch superstep (Fig. 6), where load()+update() run alone.
func (w *worker) stepPush(t int, produce bool) error {
	msgs, err := w.drainInbox(t)
	if err != nil {
		return err
	}
	var outbox *comm.Outbox
	if produce {
		outbox = w.sendBuffers(t)
		if w.job.cfg.SenderCombine {
			if c := w.job.prog.Combiner(); c != nil {
				outbox.SetCombine(c)
			}
		}
	}
	// The first shard of the update scan sends through the outbox as it
	// goes; the others stage their sends and the stages replay into it in
	// shard order after the scan joins — the sequential Add sequence, so
	// packet boundaries, combine batches and wire bytes are Parallelism-invariant.
	hookFor := func(shard int) updateHook {
		sb := &w.shards[shard]
		return func(v graph.VertexID, rec *vertexfile.Record, responded bool) error {
			if rec.OutDeg == 0 {
				return nil
			}
			sent, err := w.pushRes(sb, t, v, rec, responded && outbox != nil)
			if sent > 0 {
				w.addStat(func(s *workerStat) {
					s.produced += sent
					s.estM += sent
					s.cpu.Messages += sent
				})
			}
			return err
		}
	}
	if err := w.updateBlock(t, w.part.Lo, w.part.Hi, msgs, hookFor); err != nil {
		return err
	}
	if outbox != nil {
		if err := w.mergeStages(outbox); err != nil {
			return err
		}
		if err := outbox.Flush(); err != nil {
			return err
		}
		if saved := outbox.SavedBytes(); saved > 0 {
			w.addStat(func(s *workerStat) {
				s.mcoBytes += saved
				s.cpu.Messages += outbox.CombinedTouches() // combining is not free
			})
		}
	}
	if w.job.cfg.Async && produce && w.job.engine == Push {
		if err := w.relaxAsync(t); err != nil {
			return err
		}
	}
	if w.ve != nil {
		w.estimateBpullCosts(t)
	}
	return nil
}

// pushRes is pushRes() for one updated vertex with out-edges: read its
// adjacency run through the shard's window — Giraph loads a vertex with
// its edges, so push reads the run of every *updated* vertex (V_act), not
// just the responders: the IO(E^t) asymmetry against b-pull — and, when
// send is set, send one message per edge, staged unless the shard is the
// first. It reports how many.
func (w *worker) pushRes(sb *shardBuf, t int, v graph.VertexID, rec *vertexfile.Record, send bool) (sent int64, err error) {
	eb, err := w.adj.EdgeBytes(v)
	if err != nil {
		return 0, err
	}
	if w.job.cfg.InMemory {
		eb = 0
	}
	if sb.edges, err = w.adj.EdgesBuf(v, sb.edges[:0], &sb.adj); err != nil {
		return 0, err
	}
	edges := sb.edges
	w.addStat(func(s *workerStat) {
		s.parts.Et += eb
		s.cpu.Edges += int64(len(edges))
	})
	if !send {
		return 0, nil
	}
	staged := sb != &w.shards[0]
	for _, e := range edges {
		val, keep := w.msgValueFor(rec.Bcast[writeParity(t)], e.Dst, e.Weight)
		if !keep {
			continue
		}
		if m := (comm.Msg{Dst: e.Dst, Val: val}); staged {
			sb.stage.Add(w.owner(e.Dst), m)
		} else if err := w.outbox.Add(w.owner(e.Dst), m); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// relaxAsync is the asynchronous-iteration extension: instead of parking
// messages that arrive during superstep t until the barrier, the worker
// keeps draining its inbox and applying updates eagerly, pushing the
// consequences on immediately. Workers ping-pong until global quiescence,
// which for monotone programs collapses convergence into few supersteps.
func (w *worker) relaxAsync(t int) error {
	prog := w.job.prog
	ctx := w.job.ctx(t)
	in := w.inboxes[writeParity(t+1)]
	w.growShards(1)
	sb := &w.shards[0]
	for {
		if in.Received() == 0 {
			return nil
		}
		msgs, err := in.Drain()
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			return nil
		}
		outbox := w.sendBuffers(t)
		var updated, responding, sent int64
		// Ascending destination order: the Add sequence, and with it every
		// packet's contents, is the same run to run.
		for _, g := range msgs {
			v, mv := g.Dst, g.Vals
			rec, err := w.vstore.ReadRecord(v)
			if err != nil {
				return err
			}
			var respond bool
			rec.Val, respond = prog.Update(ctx, v, int(rec.OutDeg), rec.Val, mv)
			updated++
			if !respond {
				continue
			}
			responding++
			bcast := w.bcastFor(ctx, v, rec.Val, int(rec.OutDeg), mv)
			rec.Bcast[writeParity(t)] = bcast
			if err := w.vstore.WriteRecord(rec); err != nil {
				return err
			}
			sb.edges, err = w.adj.EdgesBuf(v, sb.edges[:0], &sb.adj)
			if err != nil {
				return err
			}
			for _, e := range sb.edges {
				val, keep := w.msgValueFor(bcast, e.Dst, e.Weight)
				if !keep {
					continue
				}
				if err := outbox.Add(w.owner(e.Dst), comm.Msg{Dst: e.Dst, Val: val}); err != nil {
					return err
				}
				sent++
			}
		}
		if err := outbox.Flush(); err != nil {
			return err
		}
		w.addStat(func(s *workerStat) {
			s.updated += updated
			s.responding += responding
			s.produced += sent
			s.cpu.Updates += updated
			s.cpu.Messages += sent
		})
	}
}

// mergeStages replays the update scan's per-shard stages into outbox, behind
// the first shard's sends, in shard order (stages a scan did not use are empty).
func (w *worker) mergeStages(outbox *comm.Outbox) error {
	for i := range w.shards {
		if err := w.shards[i].stage.MergeInto(outbox); err != nil {
			return err
		}
	}
	return nil
}

// drainInbox loads the messages pushed during superstep t-1, charging the
// spill read-back and the sort-merge handling of spilled messages.
func (w *worker) drainInbox(t int) (msgstore.Groups, error) {
	ib := w.inboxes[t&1]
	if ib == nil {
		return nil, nil
	}
	spilled := ib.Spilled()
	msgs, err := ib.Drain()
	if err != nil {
		return nil, err
	}
	inMem := msgs.Msgs() - spilled
	w.addStat(func(s *workerStat) {
		s.parts.MdiskR += spilled * comm.MsgWireSize
		s.cpu.Spilled += spilled // Giraph's sort-merge handling of disk messages
		s.msgsInMem += inMem
		if m := inMem * comm.MsgWireSize; m > s.memBytes {
			s.memBytes = m
		}
	})
	return msgs, nil
}

// estimateBpullCosts records what b-pull would have paid this superstep,
// from VE-BLOCK metadata alone (Section 5.3: "Cio(b-pull) is estimated
// using the metadata of Eblocks"): the Eblocks g_ji reachable from blocks
// with responders at t-1, their fragment auxiliary bytes, and an upper
// bound on the svertex random reads.
func (w *worker) estimateBpullCosts(t int) {
	if w.job.cfg.InMemory {
		return // the other mode would pay no disk I/O either
	}
	rp := readParity(t)
	var ebar, ft, vrr int64
	for j := 0; j < w.ve.LocalBlocks(); j++ {
		if !w.blockRes[rp][j].Load() {
			continue
		}
		m := w.ve.Meta(j)
		for i := 0; i < w.job.layout.NumBlocks(); i++ {
			if !m.Bitmap.Get(i) {
				continue
			}
			size, frags, _ := w.ve.EblockSize(j, i)
			ft += int64(frags) * 8
			ebar += size - int64(frags)*8
			vrr += int64(frags) * vertexfile.BcastSize
		}
	}
	w.addStat(func(s *workerStat) {
		s.estEbar += ebar
		s.estFt += ft
		s.estVrr += vrr
	})
}

// DeliverMessages implements comm.Handler: accept a packet pushed during
// superstep p.Step for consumption at p.Step+1.
func (w *worker) DeliverMessages(p *comm.Packet) error {
	if err := w.inboxes[writeParity(p.Step+1)].AddFrom(p.From, p.Msgs); err != nil {
		return err
	}
	w.addStat(func(s *workerStat) {
		s.cpu.Messages += int64(len(p.Msgs))
	})
	return nil
}

// DeliverSignals implements comm.Handler (pull baseline scatter).
func (w *worker) DeliverSignals(ids []graph.VertexID, step int) error {
	wp := writeParity(step)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, v := range ids {
		w.active[wp].Set(w.localIdx(v))
	}
	return nil
}

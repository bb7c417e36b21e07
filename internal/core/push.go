package core

import (
	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/vertexfile"
)

// step runs superstep t on the worker (Section 5.2's compute() split
// into load + update + pushRes and pullRes + update): it consumes the
// messages sent during t-1 the way consume says and produces its own the
// way produce says. A push consumer drains what was pushed to it and runs
// update() over the partition; a b-pull consumer pulls its messages block
// by block (pullBlocks) and updates each block as it arrives. A push
// producer runs pushRes() on every updated vertex, sending through the
// outbox and combining under SenderCombine; a b-pull producer leaves its
// messages to be pulled at t+1. When consume and produce differ this is
// one of hybrid's switch supersteps (Fig. 6).
func (w *worker) step(t int, consume, produce Engine) error {
	pull, push := consume == BPull, produce != BPull
	var outbox *comm.Outbox
	if push {
		outbox = w.sendBuffers(t)
		if w.job.cfg.SenderCombine {
			if c := w.job.prog.Combiner(); c != nil {
				outbox.SetCombine(c)
			}
		}
	}
	// The first shard of each update scan sends through the outbox as it
	// goes; the others stage their sends and the stages replay into it in
	// shard order after the scan joins — the sequential Add sequence, so
	// packet boundaries, combine batches and wire bytes are Parallelism-invariant.
	hookFor := func(shard int) updateHook {
		sb := &w.shards[shard]
		return func(v graph.VertexID, rec *vertexfile.Record, responded bool) error {
			if pull && !push {
				// Estimate push's IO(E^t) from the in-memory adjacency index when
				// hybrid carries one (edges of every updated vertex).
				if w.adj != nil && !w.job.cfg.InMemory {
					if eb, err := w.adj.EdgeBytes(v); err == nil {
						w.addStat(func(s *metrics.WorkerStep) { s.EstEt += eb })
					}
				}
				return nil
			}
			if rec.OutDeg == 0 {
				return nil
			}
			// A push consumer loads every updated vertex with its edges,
			// whether it sends or not.
			return w.pushRes(sb, t, v, rec, responded && push)
		}
	}
	update := func(lo, hi graph.VertexID, msgs msgstore.Groups) error {
		err := w.updateBlock(t, lo, hi, msgs, hookFor)
		w.addPushTallies()
		if err != nil || outbox == nil {
			return err
		}
		return w.mergeStages(outbox)
	}
	var err error
	switch {
	case pull && t > 1:
		err = w.pullBlocks(t, update)
	case pull:
		// Superstep 1 only initialises vertices: "b-pull starts exchanging
		// messages from the 2nd superstep" (Section 6.5), the one extra
		// superstep of Appendix B.
		err = update(w.part.Lo, w.part.Hi, nil)
	default:
		var msgs msgstore.Groups
		if msgs, err = w.drainInbox(t); err == nil {
			err = update(w.part.Lo, w.part.Hi, msgs)
		}
	}
	if err != nil {
		return err
	}
	if outbox != nil {
		if err := outbox.Flush(); err != nil {
			return err
		}
		if saved := outbox.SavedBytes(); saved > 0 {
			w.addStat(func(s *metrics.WorkerStep) {
				s.McoBytes += saved
				s.CPU.Messages += outbox.CombinedTouches() // combining is not free
			})
		}
	}
	if !pull && w.ve != nil {
		w.estimateBpullCosts(t)
	}
	return nil
}

// pushTally is what one shard's pushRes calls add up to over a scan:
// messages sent, adjacency bytes charged and edges read. The shard keeps
// it, so pushRes takes no lock; addPushTallies hands it to the stat.
type pushTally struct{ sent, et, edges int64 }

// pushRes is pushRes() for one updated vertex with out-edges: read its
// adjacency run through the shard's window — Giraph loads a vertex with
// its edges, so push reads the run of every *updated* vertex (V_act), not
// just the responders: the IO(E^t) asymmetry against b-pull — and, when
// send is set, send one message per edge, staged unless the shard is the
// first. The shard's tally counts what it did.
func (w *worker) pushRes(sb *shardBuf, t int, v graph.VertexID, rec *vertexfile.Record, send bool) error {
	eb, err := w.adj.EdgeBytes(v)
	if err != nil {
		return err
	}
	if w.job.cfg.InMemory {
		eb = 0
	}
	if sb.edges, err = w.adj.EdgesBuf(v, sb.edges[:0], &sb.adj); err != nil {
		return err
	}
	sb.push.et += eb
	sb.push.edges += int64(len(sb.edges))
	if !send {
		return nil
	}
	staged := sb != &w.shards[0]
	bcast := rec.Bcast[writeParity(t)]
	sender := newMsgSender(w.job.prog)
	for _, e := range sb.edges {
		val, keep := sender.value(bcast, e.Dst, e.Weight)
		if !keep {
			continue
		}
		if m := (comm.Msg{Dst: e.Dst, Val: val}); staged {
			sb.stage.Add(w.owner(e.Dst), m)
		} else if err := w.outbox.Add(w.owner(e.Dst), m); err != nil {
			return err
		}
		sb.push.sent++
	}
	return nil
}

// addPushTallies adds the scan's push tallies to the superstep's stat and
// zeroes them. Called once the scan's shards have joined, even after an
// error.
func (w *worker) addPushTallies() {
	var sum pushTally
	for i := range w.shards {
		p := &w.shards[i].push
		sum.sent += p.sent
		sum.et += p.et
		sum.edges += p.edges
		*p = pushTally{}
	}
	w.addStat(func(s *metrics.WorkerStep) {
		s.Produced += sum.sent
		s.CPU.Messages += sum.sent
		s.Parts.Et += sum.et
		s.CPU.Edges += sum.edges
	})
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
// spill read-back and the sort-merge handling of spilled messages. Under
// a combiner the drain folds each vertex's values into one; the messages
// it folded away are charged here, as update() would have been charged
// for them, so the buffer memory and CPU charges are those of the
// unfolded lists.
func (w *worker) drainInbox(t int) (msgstore.Groups, error) {
	ib := w.inboxes[t&1]
	if ib == nil {
		return nil, nil
	}
	spilled, unfolded := ib.Spilled(), ib.Unfolded()
	msgs, err := ib.Drain()
	if err != nil {
		return nil, err
	}
	inMem := unfolded - spilled
	folded := unfolded - msgs.Msgs()
	w.addStat(func(s *metrics.WorkerStep) {
		s.CPU.Messages += folded
		s.Parts.MdiskR += spilled * comm.MsgWireSize
		s.CPU.Spilled += spilled // Giraph's sort-merge handling of disk messages
		if m := inMem * comm.MsgWireSize; m > s.MemBytes {
			s.MemBytes = m
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
	w.addStat(func(s *metrics.WorkerStep) {
		s.EstEbar += ebar
		s.EstFt += ft
		s.EstVrr += vrr
	})
}

// DeliverMessages implements comm.Handler: accept a packet pushed during
// superstep p.Step for consumption at p.Step+1.
func (w *worker) DeliverMessages(p *comm.Packet) error {
	if err := w.inboxes[writeParity(p.Step+1)].AddFrom(p.From, p.Msgs); err != nil {
		return err
	}
	w.addStat(func(s *metrics.WorkerStep) {
		s.CPU.Messages += int64(p.Msgs.Len())
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

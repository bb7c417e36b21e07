package core

import (
	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/vertexfile"
)

// stepPull runs one superstep of the pull baseline, our disk-extended
// model of GraphLab PowerGraph's vertex-cut Gather-Apply-Scatter: every
// active vertex sends gather requests to all workers (mirror traffic);
// each mirror scans its locally-held in-edges of the requested vertex and
// produces message values from responding sources. All vertex-record
// access goes through the worker's pullCache — the bounded in-memory
// vertex set whose misses and dirty evictions are the random reads/writes
// that dominate pull's I/O in Fig. 10 and Table 5.
func (w *worker) stepPull(t int) error {
	prog := w.job.prog
	ctx := w.job.ctx(t)
	traversal := prog.Style() == algo.Traversal
	wp := writeParity(t)

	var ids []graph.VertexID
	switch {
	case t == 1 || !traversal:
		ids = make([]graph.VertexID, 0, w.part.Len())
		for v := w.part.Lo; v < w.part.Hi; v++ {
			ids = append(ids, v)
		}
	default:
		rp := readParity(t)
		for i := 0; i < w.part.Len(); i++ {
			if w.active[rp].Get(i) {
				ids = append(ids, w.part.Lo+graph.VertexID(i))
			}
		}
	}

	const chunk = 2048
	for lo := 0; lo < len(ids); lo += chunk {
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		var msgs msgstore.Groups
		if t > 1 {
			var err error
			msgs, err = w.gatherAll(t, ids[lo:hi])
			if err != nil {
				return err
			}
		}
		cur := msgs.Seek(0) // ids ascend within a chunk
		for _, v := range ids[lo:hi] {
			mv := cur.Vals(v)
			if t > 1 && traversal && len(mv) == 0 {
				continue
			}
			rec, err := w.vcache.get(v)
			if err != nil {
				return err
			}
			var respond bool
			var contrib float64
			hasContrib := false
			if t == 1 {
				if w.job.resuming {
					respond = true // lightweight recovery: re-announce
				} else {
					rec.Val, respond = prog.Init(ctx, v, int(rec.OutDeg))
				}
			} else {
				before := rec.Val
				rec.Val, respond = prog.Update(ctx, v, int(rec.OutDeg), rec.Val, mv)
				if ag, ok := prog.(algo.Aggregating); ok {
					contrib, hasContrib = ag.Contribute(before, rec.Val), true
				}
			}
			if respond {
				rec.Bcast[wp] = w.bcastFor(ctx, v, rec.Val, int(rec.OutDeg), mv)
				w.respond[wp].Set(w.localIdx(v))
			}
			if err := w.vcache.put(rec); err != nil {
				return err
			}
			w.addStat(func(s *workerStat) {
				s.updated++
				s.cpu.Updates++
				s.cpu.Messages += int64(len(mv))
				if respond {
					s.responding++
				}
				if hasContrib {
					s.reduceAgg(prog, contrib)
				}
			})
			if traversal && respond {
				if err := w.scatterSignals(t, v); err != nil {
					return err
				}
			}
		}
	}
	w.addStat(func(s *workerStat) {
		if m := int64(w.vcache.resident()) * vertexfile.RecordSize; m > s.memBytes {
			s.memBytes = m
		}
	})
	return nil
}

// gatherAll requests gathers for ids from every worker and merges the
// returned value lists per destination, in responder order. The result
// lives in the worker's gather buffer until the next call.
func (w *worker) gatherAll(t int, ids []graph.VertexID) (msgstore.Groups, error) {
	buf := &w.gathered
	buf.msgs = buf.msgs[:0]
	for y := range w.job.workers {
		res, err := w.fab().Gather(w.id, y, ids, t)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			for _, v := range r.Vals {
				buf.msgs = append(buf.msgs, comm.Msg{Dst: r.Dst, Val: v})
			}
		}
	}
	w.addStat(func(s *workerStat) {
		s.requests += int64(len(ids)) * int64(len(w.job.workers))
	})
	return buf.grouper.Group(buf.msgs, nil), nil
}

// GatherValues implements comm.Handler: the mirror-side gather. For each
// requested destination, scan this worker's locally-held in-edges and
// produce message values from sources that responded at t-1, reading
// source broadcast values through the vertex cache (misses are random
// reads). Combinable programs reduce locally, like PowerGraph's partial
// gather aggregation.
func (w *worker) GatherValues(ids []graph.VertexID, step int) ([]comm.GatherResult, error) {
	rp := readParity(step)
	prog := w.job.prog
	combine := prog.Combiner()
	sender := newMsgSender(prog)
	var out []comm.GatherResult
	var edges, produced int64
	scratch := make([]graph.Half, 0, 128)
	for _, dst := range ids {
		var err error
		scratch = scratch[:0]
		scratch, err = w.mirror.Edges(dst, scratch)
		if err != nil {
			return nil, err
		}
		edges += int64(len(scratch))
		var vals []float64
		for _, h := range scratch {
			src := h.Dst // mirror lists store sources in the Dst field
			if !w.respond[rp].Get(w.localIdx(src)) {
				continue
			}
			bcast, err := w.vcache.readBcast(src, rp)
			if err != nil {
				return nil, err
			}
			mv, keep := sender.value(bcast, dst, h.Weight)
			if !keep {
				continue
			}
			if combine != nil && len(vals) == 1 {
				vals[0] = combine(vals[0], mv)
			} else {
				vals = append(vals, mv)
			}
			produced++
		}
		if len(vals) > 0 {
			out = append(out, comm.GatherResult{Dst: dst, Vals: vals})
		}
	}
	w.addStat(func(s *workerStat) {
		s.produced += produced
		s.cpu.Edges += edges
		s.cpu.Messages += produced
	})
	return out, nil
}

// scatterSignals activates v's out-neighbours for superstep t+1: the
// scatter phase, reading v's out-edges and sending one 4-byte activation
// per (neighbour, worker).
func (w *worker) scatterSignals(t int, v graph.VertexID) error {
	eb, err := w.adj.EdgeBytes(v)
	if err != nil {
		return err
	}
	if w.job.cfg.InMemory {
		eb = 0
	}
	var scratch []graph.Half
	scratch, err = w.adj.Edges(v, scratch)
	if err != nil {
		return err
	}
	w.addStat(func(s *workerStat) {
		s.parts.Et += eb
		s.cpu.Edges += int64(len(scratch))
	})
	byOwner := make(map[int][]graph.VertexID)
	for _, h := range scratch {
		o := w.owner(h.Dst)
		byOwner[o] = append(byOwner[o], h.Dst)
	}
	for o, targets := range byOwner {
		// Signals sent at step t are read at t+1 via readParity(t+1) ==
		// writeParity(t), so DeliverSignals writes at the sender's parity.
		if err := w.fab().Signal(w.id, o, targets, t); err != nil {
			return err
		}
	}
	return nil
}

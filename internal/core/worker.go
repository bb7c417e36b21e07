package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hybridgraph/internal/adjstore"
	"hybridgraph/internal/algo"
	"hybridgraph/internal/bitset"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/msglog"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/veblock"
	"hybridgraph/internal/vertexfile"
)

// inbox unifies the plain spilling Inbox with MOCgraph's OnlineInbox.
type inbox interface {
	// AddFrom accepts a packet worker from delivered (a restore re-adds as
	// sender 0) under one lock acquisition, copying what it keeps.
	AddFrom(from int, msgs []comm.Msg) error
	// Drain returns the parked messages grouped by destination, a vertex's
	// values by sender, then as they arrived; valid until the next Drain.
	Drain() (msgstore.Groups, error)
	Spilled() int64
	MaxMemBytes() int64
	Received() int64
	// Pending lists buffered messages, in that order, without resetting.
	Pending() ([]comm.Msg, error)
}

// worker is one computational node: a vertex partition, its disk stores,
// flag vectors and per-superstep accumulators. Workers execute supersteps
// as goroutines and exchange traffic through the job's fabric.
type worker struct {
	id   int
	job  *job
	part graph.Partition
	ct   *diskio.Counter // computation-phase I/O
	dir  string

	vstore *vertexfile.Store
	adj    *adjstore.Store // forward adjacency (push/pushM/hybrid; pull scatter)
	mirror *adjstore.Store // pull: in-edges of every vertex whose source is local
	ve     *veblock.Store  // b-pull/hybrid Eblocks

	respond [2]*bitset.Set // responding-flag vectors by superstep parity
	// blockRes is the per-local-Vblock X_j.res flag by parity. Elements are
	// atomic because the parallel update scan's shards may set flags for
	// the same Vblock concurrently; readers on the other parity (pull
	// serving, cost estimation) see distinct allocations, and same-parity
	// reads happen after the superstep barrier.
	blockRes [2][]atomic.Bool
	active   [2]*bitset.Set // pull baseline activation flags by parity

	inboxes [2]inbox                // push receive buffers by parity
	hot     map[graph.VertexID]bool // pushM hot vertex set

	vcache *pullCache // pull baseline's resident vertex set

	// Failed-worker recovery ("confined", "reassign"): every outgoing push
	// packet and served pull response is appended to mlog so survivors can
	// serve a failed worker's replay without recomputing. Log writes are charged
	// to logCt, kept apart from ct so Q^t inputs and the trace-vs-stats
	// cross-check see pure Eq. (7)/(8) traffic; the per-step delta
	// surfaces as StepStats.LogIO. sendLog wraps the job fabric with the
	// append-before-send hook; nil when the policy is off.
	mlog    *msglog.Log
	logCt   *diskio.Counter
	sendLog comm.Fabric

	// scanPages tracks which vertex-file pages this superstep's
	// Pull-Respond scans have already pulled in: the value columns of the
	// worker's Vblocks are small and stay OS-cached for the duration of a
	// superstep, so only the first touch of each page transfers (the
	// block-locality VE-BLOCK is designed to create). Reset per superstep
	// because the columns are rewritten.
	scanMu    sync.Mutex
	scanPages vertexfile.PageSet

	// The message path's fixed buffers (DESIGN.md, "Message path"): built
	// on first use, owned for the job, reset — never reallocated — per
	// superstep. None of them is charged to MemBytes, which models the
	// paper's B_i/BS/BR from message counts. outbox is the sending buffer;
	// shards[s] serves shard s of the update scan; pullFree holds b-pull's
	// idle receiving buffers (one per fetch in flight plus the one being
	// updated); respFree[y] the scratch Pull-Respond serves worker y in (one
	// up to PrefetchDepth 1: y's consecutive requests continue in the same
	// Eblock window); gathered is the pull baseline's.
	outbox   *comm.Outbox
	shards   []shardBuf
	pullFree idleList[recvBuf]
	respFree []idleList[respondBuf]
	gathered recvBuf

	mu   sync.Mutex // guards stat: RespondPull/Gather run on requester goroutines
	stat workerStat
}

// workerStat accumulates one superstep's activity on one worker.
type workerStat struct {
	produced   int64 // messages generated before concat/combine
	mcoBytes   int64 // network bytes saved by concat/combine
	updated    int64
	responding int64
	msgsInMem  int64 // messages held in memory at the receive side
	requests   int64
	cpu        metrics.CPUWork
	parts      metrics.IOBreakdown
	memBytes   int64 // peak buffer memory this superstep

	// Hybrid prediction inputs gathered while running the other mode.
	estEt       int64 // adjacency bytes push would read
	estEbar     int64 // Eblock edge bytes b-pull would read
	estFt       int64 // fragment aux bytes b-pull would read
	estVrr      int64 // svertex bytes b-pull would random-read
	estM        int64 // messages the superstep produced (for M_disk estimate)
	blockedTime float64

	agg    float64 // reduced aggregator contributions (Aggregating programs)
	aggSet bool
}

// reduceAgg folds one contribution into the worker's aggregate under the
// program's reducer. Callers hold w.mu via addStat.
func (s *workerStat) reduceAgg(prog algo.Program, c float64) {
	ag, ok := prog.(algo.Aggregating)
	if !ok {
		return
	}
	if !s.aggSet {
		s.agg, s.aggSet = c, true
		return
	}
	s.agg = ag.Reduce(s.agg, c)
}

func (w *worker) resetStat() {
	w.mu.Lock()
	w.stat = workerStat{}
	w.mu.Unlock()
}

// addIOPart accumulates into the superstep I/O breakdown under the lock.
func (w *worker) addStat(f func(*workerStat)) {
	w.mu.Lock()
	f(&w.stat)
	w.mu.Unlock()
}

// shardBuf is what one shard of the update scan works in: its send stage,
// the vertex-record chunk, its window onto the adjacency file and the
// edge list of the vertex being pushed.
type shardBuf struct {
	stage *comm.Stage // unused by shards[0]: its sends head the replay order and go straight to the outbox
	recs  []vertexfile.Record
	adj   adjstore.PageBuf
	edges []graph.Half
}

// growShards makes shards[0..n) usable. Called before a scan forks.
func (w *worker) growShards(n int) {
	for len(w.shards) < n {
		w.shards = append(w.shards, shardBuf{stage: comm.NewStage(0)})
	}
}

// sendBuffers returns the worker's outbox readied for superstep t on the
// fabric currently in force, with every stage empty.
func (w *worker) sendBuffers(t int) *comm.Outbox {
	if w.outbox == nil {
		w.outbox = comm.NewOutbox(w.fab(), len(w.job.workers), w.id, t, w.job.cfg.SendThreshold)
	} else {
		w.outbox.Reset(w.fab(), t)
	}
	for i := range w.shards {
		w.shards[i].stage.Reset()
	}
	return w.outbox
}

// recvBuf is a receiving buffer for pulled or gathered messages: the
// responses appended in responder order, then grouped in place.
type recvBuf struct {
	msgs    []comm.Msg
	grouper msgstore.Grouper
	groups  msgstore.Groups // a fetched block's messages, until its update ends
}

// respondBuf is what one Pull-Respond call works in; nothing in it escapes.
type respondBuf struct {
	scan      veblock.ScanBuf
	acc       []float64  // combining programs: one fold slot per vertex of the block
	seen      []bool     // which slots hold a value
	msgs, tmp []comm.Msg // concatenating programs: messages in scan order; the sort's second buffer
}

// idleList holds the buffers of one kind that are not in use. take builds
// one only when all are out, so the list grows to what is concurrent.
type idleList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *idleList[T]) take() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return new(T)
}

func (l *idleList[T]) put(b *T) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// owner maps a vertex to its worker.
func (w *worker) owner(v graph.VertexID) int { return graph.OwnerOf(w.job.parts, v) }

// fab is the fabric this worker's superstep code sends through: the
// replay fabric while the job is replaying a failed worker, the logging
// wrapper under the confined policy, or the job's fabric directly. The
// replay fabric is installed and removed between supersteps (never while
// worker goroutines run), so the read is race-free.
func (w *worker) fab() comm.Fabric {
	if rf := w.job.replayFab; rf != nil {
		return rf
	}
	if w.sendLog != nil {
		return w.sendLog
	}
	return w.job.fabric
}

// localIdx converts a vertex id into the worker-local flag index.
func (w *worker) localIdx(v graph.VertexID) int { return int(v - w.part.Lo) }

// buildVertexStore writes the initial vertex records.
func (w *worker) buildVertexStore(g *graph.Graph) error {
	recs := make([]vertexfile.Record, w.part.Len())
	for i := range recs {
		v := w.part.Lo + graph.VertexID(i)
		recs[i] = vertexfile.Record{ID: v, OutDeg: uint32(g.OutDegree(v))}
	}
	if w.job.cfg.VerticesInMemory {
		w.vstore = vertexfile.CreateMem(w.part.Lo, recs)
		return nil
	}
	vs, err := vertexfile.Create(filepath.Join(w.dir, "vertices.dat"), w.job.loadCt(w.id), w.part.Lo, recs)
	if err != nil {
		return err
	}
	w.vstore = vs
	return nil
}

func (w *worker) buildAdj(g *graph.Graph) error {
	if w.adj != nil {
		return nil
	}
	if src := w.job.cfg.Stores; src != nil {
		a, err := src.OpenAdj(w.id, w.job.loadCt(w.id), g, w.part)
		if err != nil {
			return err
		}
		w.adj = a
		w.job.layoutReusedBytes += a.SizeBytes()
		return nil
	}
	if w.job.cfg.InMemory {
		w.adj = adjstore.BuildMem(g, w.part)
		return nil
	}
	a, err := adjstore.Build(filepath.Join(w.dir, "adj.dat"), w.job.loadCt(w.id), g, w.part, w.job.cdc)
	if err != nil {
		return err
	}
	w.adj = a
	return nil
}

// buildMirror builds the pull baseline's mirror store: for every vertex in
// the whole graph, the in-edges whose source lives on this worker
// (vertex-cut: an edge is placed with its source).
func (w *worker) buildMirror(g *graph.Graph) error {
	sub := graph.NewBuilder(g.NumVertices)
	for u := w.part.Lo; u < w.part.Hi; u++ {
		for _, h := range g.OutEdges(u) {
			// Reversed: mirror lists are keyed by destination vertex.
			sub.AddEdge(h.Dst, u, h.Weight)
		}
	}
	mg := sub.Build()
	full := graph.Partition{Lo: 0, Hi: graph.VertexID(g.NumVertices)}
	if w.job.cfg.InMemory {
		w.mirror = adjstore.BuildMem(mg, full)
		return nil
	}
	m, err := adjstore.Build(filepath.Join(w.dir, "mirror.dat"), w.job.loadCt(w.id), mg, full, w.job.cdc)
	if err != nil {
		return err
	}
	w.mirror = m
	return nil
}

func (w *worker) buildVE(g *graph.Graph) error {
	if w.ve != nil {
		return nil
	}
	if src := w.job.cfg.Stores; src != nil {
		ve, err := src.OpenVE(w.id, w.job.loadCt(w.id), g, w.job.layout)
		if err != nil {
			return err
		}
		w.ve = ve
		w.job.layoutReusedBytes += ve.SizeBytes()
		return nil
	}
	if w.job.cfg.InMemory {
		ve, err := veblock.BuildMem(g, w.job.layout, w.id)
		if err != nil {
			return err
		}
		w.ve = ve
		return nil
	}
	ve, err := veblock.Build(filepath.Join(w.dir, "veblock.dat"), w.job.loadCt(w.id), g, w.job.layout, w.id, w.job.cdc)
	if err != nil {
		return err
	}
	w.ve = ve
	return nil
}

// storesBuilt ends a (re)build of the worker's stores: built under the
// loading counter, they charge the worker's own and report to its registry.
func (w *worker) storesBuilt() {
	for _, s := range []interface {
		SetCounter(*diskio.Counter)
		SetMetrics(*obs.Registry)
	}{w.vstore, w.adj, w.mirror, w.ve} {
		s.SetCounter(w.ct)
		s.SetMetrics(w.job.cfg.Metrics)
	}
}

func (w *worker) initFlags() {
	n := w.part.Len()
	for p := 0; p < 2; p++ {
		w.respond[p] = bitset.New(n)
		w.active[p] = bitset.New(n)
	}
	if w.ve != nil {
		for p := 0; p < 2; p++ {
			w.blockRes[p] = make([]atomic.Bool, w.ve.LocalBlocks())
		}
		w.respFree = make([]idleList[respondBuf], len(w.job.workers))
	}
}

// reset returns the worker's flags, inboxes and pull cache to their
// freshly loaded state.
func (w *worker) reset() {
	w.initFlags()
	if w.inboxes[0] != nil || w.inboxes[1] != nil {
		w.initInboxes()
	}
	if w.vcache != nil {
		w.vcache = newPullCache(w.vstore, w.job.cfg.VertexCache, w.job.cfg.Metrics)
	}
}

func (w *worker) initInboxes() {
	for p := 0; p < 2; p++ {
		capacity := w.effMsgBuf()
		if w.hot != nil && capacity > 0 {
			// pushM spends the buffer on hot vertices; messages for cold
			// (disk-resident) vertices go straight to disk.
			capacity = -1
		}
		base := msgstore.NewInbox(filepath.Join(w.dir, fmt.Sprintf("spill%d.dat", p)),
			w.ct, capacity, w.job.cdc)
		if w.hot != nil {
			online := msgstore.NewOnlineInbox(base, w.hot, w.job.prog.Combiner())
			online.SetMetrics(w.job.cfg.Metrics)
			w.inboxes[p] = online
		} else {
			base.SetMetrics(w.job.cfg.Metrics)
			w.inboxes[p] = base
		}
	}
}

// effMsgBuf reports the worker's message-buffer capacity (0 = unlimited).
func (w *worker) effMsgBuf() int {
	if w.job.cfg.InMemory {
		return 0
	}
	return w.job.cfg.MsgBuf
}

// pickHotSet selects pushM's in-memory vertices: the B_i highest in-degree
// vertices of the partition (MOCgraph's hot-aware placement).
func (w *worker) pickHotSet(g *graph.Graph, capacity int) {
	if capacity <= 0 || capacity >= w.part.Len() {
		// Unlimited buffer: everything is hot.
		w.hot = make(map[graph.VertexID]bool, w.part.Len())
		for v := w.part.Lo; v < w.part.Hi; v++ {
			w.hot[v] = true
		}
		return
	}
	indeg := make([]int32, w.part.Len())
	for u := 0; u < g.NumVertices; u++ {
		for _, h := range g.OutEdges(graph.VertexID(u)) {
			if w.part.Contains(h.Dst) {
				indeg[h.Dst-w.part.Lo]++
			}
		}
	}
	type vd struct {
		v graph.VertexID
		d int32
	}
	all := make([]vd, w.part.Len())
	for i := range all {
		all[i] = vd{w.part.Lo + graph.VertexID(i), indeg[i]}
	}
	// Partial selection: simple sort is fine at our scales; ties break by
	// id for determinism.
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].v < all[j].v
	})
	w.hot = make(map[graph.VertexID]bool, capacity)
	for i := 0; i < capacity && i < len(all); i++ {
		w.hot[all[i].v] = true
	}
}

// parity helpers: at superstep t, flags written go to parity t%2, flags
// read (set at t-1) come from parity (t-1)%2.
func writeParity(t int) int { return t & 1 }
func readParity(t int) int  { return (t - 1) & 1 }

// msgValueFor computes one edge's message from the broadcast value,
// honouring targeted senders (Pregel's SendMessageTo): keep=false
// suppresses the message on this edge.
func (w *worker) msgValueFor(bcast float64, dst graph.VertexID, weight float32) (float64, bool) {
	if ts, ok := w.job.prog.(algo.TargetedSender); ok {
		return ts.MsgValueTo(bcast, dst, weight)
	}
	return w.job.prog.MsgValue(bcast, weight), true
}

// bcastFor computes the broadcast value a responding vertex stores,
// honouring stateful bcasters that need the vertex id and messages.
func (w *worker) bcastFor(ctx *algo.Context, v graph.VertexID, val float64, outdeg int, msgs []float64) float64 {
	if sb, ok := w.job.prog.(algo.StatefulBcaster); ok {
		return sb.BcastFrom(ctx, v, val, msgs)
	}
	return w.job.prog.Bcast(val, outdeg)
}

// updateHook runs for each vertex whose update executed, after its record
// is staged — push hangs its pushRes() (edge read + message staging) here,
// hybrid its cost estimators.
type updateHook func(v graph.VertexID, rec *vertexfile.Record, responded bool) error

// updateBlock runs update()/Init over vertices [lo,hi) with the delivered
// messages, maintaining values, broadcast columns and responding flags.
// Message slices are the concatenated per-vertex lists — windows of the
// groups' flat array, which update() must not keep; combinable programs
// may see them pre-combined — update() is agnostic.
//
// The scan is sharded across cfg.Parallelism goroutines. Shards are
// contiguous runs of whole 4 KB chunks on a grid anchored at lo, so the
// ReadRange/WriteRange call sequence — and with it every Eq. (7)/(8)
// Vt charge and disk op count — is the sequential scan's sequence merely
// reordered, never re-split. hookFor, when non-nil, is called once per
// shard in ascending shard order before the scan starts and returns that
// shard's per-vertex hook (which may be nil); because shards cover
// disjoint ascending vertex ranges, shard 0 acting as it goes and the later
// shards' staged state replayed in shard order afterwards reproduce the
// sequential visit order exactly.
// Aggregator contributions reduce within each chunk as before and the
// per-chunk partials fold in ascending chunk order after the shards join,
// so float non-associativity cannot perturb the aggregate either.
func (w *worker) updateBlock(t int, lo, hi graph.VertexID, msgs msgstore.Groups,
	hookFor func(shard int) updateHook) error {

	if hi <= lo {
		return nil
	}
	prog := w.job.prog
	ctx := w.job.ctx(t)
	wp := writeParity(t)
	style := prog.Style()
	aggProg, aggregating := prog.(algo.Aggregating)

	const chunk = 4096
	nChunks := (int(hi-lo) + chunk - 1) / chunk
	shards := w.job.cfg.Parallelism
	if shards < 1 {
		shards = 1
	}
	if shards > nChunks {
		shards = nChunks
	}

	w.growShards(shards)
	hooks := make([]updateHook, shards)
	if hookFor != nil {
		for s := 0; s < shards; s++ {
			hooks[s] = hookFor(s)
		}
	}

	// Per-chunk aggregator partials, folded in chunk order after the join.
	var aggVals []float64
	var aggSets []bool
	if aggregating {
		aggVals = make([]float64, nChunks)
		aggSets = make([]bool, nChunks)
	}

	scan := func(shard int) error {
		cLo := shard * nChunks / shards
		cHi := (shard + 1) * nChunks / shards
		hook := hooks[shard]
		sb := &w.shards[shard]
		sb.recs = slices.Grow(sb.recs[:0], chunk)
		recs := sb.recs
		// Chunks ascend, and so do the vertices within one: a cursor finds
		// each vertex's messages in O(1).
		cur := msgs.Seek(lo + graph.VertexID(cLo*chunk))
		for c := cLo; c < cHi; c++ {
			clo := lo + graph.VertexID(c*chunk)
			chi := clo + chunk
			if chi > hi {
				chi = hi
			}
			recs = recs[:int(chi-clo)]
			if err := w.vstore.ReadRange(clo, chi, recs); err != nil {
				return err
			}
			var vt int64
			if !w.job.cfg.VerticesInMemory {
				vt = int64(len(recs)) * vertexfile.RecordSize * 2 // read + write back
			}
			var updated, responding int64
			var msgCount int64
			var agg float64
			aggAny := false
			for i := range recs {
				rec := &recs[i]
				v := rec.ID
				mv := cur.Vals(v)
				msgCount += int64(len(mv))
				var respond bool
				switch {
				case t == 1 && w.job.resuming:
					// Lightweight recovery: values survived the failure; every
					// vertex re-announces its current value so neighbours can
					// rebuild their state (sound for self-correcting programs).
					respond = true
					updated++
				case t == 1:
					rec.Val, respond = prog.Init(ctx, v, int(rec.OutDeg))
					updated++
				case len(mv) > 0 || style != algo.Traversal:
					before := rec.Val
					rec.Val, respond = prog.Update(ctx, v, int(rec.OutDeg), rec.Val, mv)
					updated++
					if aggregating {
						c := aggProg.Contribute(before, rec.Val)
						if !aggAny {
							agg, aggAny = c, true
						} else {
							agg = aggProg.Reduce(agg, c)
						}
					}
				default:
					continue
				}
				if respond {
					rec.Bcast[wp] = w.bcastFor(ctx, v, rec.Val, int(rec.OutDeg), mv)
					w.respond[wp].SetAtomic(w.localIdx(v))
					if w.blockRes[wp] != nil {
						if b := w.job.layout.BlockOf(v); b >= 0 {
							w.blockRes[wp][b-w.ve.FirstBlock()].Store(true)
						}
					}
					responding++
				}
				if hook != nil {
					if err := hook(v, rec, respond); err != nil {
						return err
					}
				}
			}
			if err := w.vstore.WriteRange(clo, chi, recs); err != nil {
				return err
			}
			if aggAny {
				aggVals[c], aggSets[c] = agg, true
			}
			w.addStat(func(s *workerStat) {
				s.updated += updated
				s.responding += responding
				s.parts.Vt += vt
				s.cpu.Updates += updated
				s.cpu.Messages += msgCount
			})
		}
		return nil
	}

	var err error
	if shards == 1 {
		err = scan(0)
	} else {
		err = parallelDo(shards, scan)
	}
	if aggregating {
		for c := 0; c < nChunks; c++ {
			if aggSets[c] {
				partial := aggVals[c]
				w.addStat(func(s *workerStat) { s.reduceAgg(prog, partial) })
			}
		}
	}
	return err
}

// clearStepFlags resets the write-parity flag structures before a
// superstep writes them, and drops the pull baseline's stale cached
// broadcast values (they were written at a different parity).
func (w *worker) clearStepFlags(t int) {
	wp := writeParity(t)
	w.respond[wp].Reset()
	w.active[wp].Reset()
	if w.blockRes[wp] != nil {
		for i := range w.blockRes[wp] {
			w.blockRes[wp][i].Store(false)
		}
	}
	w.scanMu.Lock()
	if w.scanPages == nil {
		w.scanPages = make(vertexfile.PageSet)
	}
	clear(w.scanPages)
	w.scanMu.Unlock()
}

// close releases all stores.
func (w *worker) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.vstore != nil {
		keep(w.vstore.Close())
	}
	if w.adj != nil {
		keep(w.adj.Close())
	}
	if w.mirror != nil {
		keep(w.mirror.Close())
	}
	if w.ve != nil {
		keep(w.ve.Close())
	}
	if w.mlog != nil {
		keep(w.mlog.Close())
	}
	return first
}

package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/veblock"
)

// foldOrderPageRank is the value contract of b-pull written out: at every
// superstep each responder folds a destination's contributions left to
// right in ascending source id (a source's parallel edges in adjacency
// order), and the requester folds the responders' partial values in
// worker order. Nothing else about the engine — blocks, buffers, fabric —
// may show in the bits.
func foldOrderPageRank(g *graph.Graph, prog algo.Program, parts []graph.Partition, steps int) []float64 {
	n := g.NumVertices
	ctx := func(t int) *algo.Context { return &algo.Context{Step: t, NumVertices: n, MaxSteps: steps} }
	add := prog.Combiner()
	fold := func(acc []float64, seen []bool, v graph.VertexID, m float64) {
		if seen[v] {
			acc[v] = add(acc[v], m)
		} else {
			acc[v], seen[v] = m, true
		}
	}
	vals, bcast := make([]float64, n), make([]float64, n)
	for v := range vals {
		vals[v], _ = prog.Init(ctx(1), graph.VertexID(v), g.OutDegree(graph.VertexID(v)))
		bcast[v] = prog.Bcast(vals[v], g.OutDegree(graph.VertexID(v)))
	}
	for t := 2; t <= steps; t++ {
		total, got := make([]float64, n), make([]bool, n)
		for _, part := range parts {
			partial, seen := make([]float64, n), make([]bool, n)
			for u := part.Lo; u < part.Hi; u++ {
				for _, h := range g.OutEdges(u) {
					fold(partial, seen, h.Dst, prog.MsgValue(bcast[u], h.Weight))
				}
			}
			for v := range partial {
				if seen[v] {
					fold(total, got, graph.VertexID(v), partial[v])
				}
			}
		}
		for v := range vals {
			var mv []float64
			if got[v] {
				mv = []float64{total[v]}
			}
			vals[v], _ = prog.Update(ctx(t), graph.VertexID(v), g.OutDegree(graph.VertexID(v)), vals[v], mv)
			bcast[v] = prog.Bcast(vals[v], g.OutDegree(graph.VertexID(v)))
		}
	}
	return vals
}

// TestFoldOrderIsAscendingSource pins b-pull's PageRank bits to the
// reference above, whatever the block count, fabric or parallelism: the
// fold order is a property of the data, not of a sort algorithm or a
// schedule.
func TestFoldOrderIsAscendingSource(t *testing.T) {
	// Dense enough that most destinations hear from several sources on
	// each worker, with parallel edges: where fold order shows.
	g := graph.GenRMAT(300, 6000, 0.57, 0.19, 0.19, 17)
	const workers, steps = 3, 6
	want := foldOrderPageRank(g, algo.NewPageRank(0.85), graph.RangePartition(g.NumVertices, workers), steps)
	for _, blocks := range []int{1, 7} {
		for _, tcp := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				cfg := Config{Workers: workers, MsgBuf: 60, MaxSteps: steps, BlocksPerWorker: blocks,
					TCP: tcp, Parallelism: par}
				got := runOne(t, g, algo.NewPageRank(0.85), cfg, BPull).Values
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("blocks=%d tcp=%v p=%d: vertex %d = %x, ascending-source fold gives %x",
							blocks, tcp, par, v, math.Float64bits(got[v]), math.Float64bits(want[v]))
					}
				}
			}
		}
	}
}

// TestDecodeAmplification: with the Eblock file destination-major and each
// requester continuing in its own window, a pulling superstep under lz
// inflates every chunk of a store about once — 13–19 times before, when a
// request strode across the whole file through an 8-chunk cache — and
// what is physically read no longer depends on how concurrent requests
// interleave, so identical jobs report identical physical bytes.
func TestDecodeAmplification(t *testing.T) {
	const n, workers, blocks, steps = 24000, 2, 20, 3
	g := graph.GenRMAT(n, 360000, 0.57, 0.19, 0.19, 7)
	layout, err := veblock.UniformLayout(graph.RangePartition(n, workers), blocks)
	if err != nil {
		t.Fatal(err)
	}
	var chunks int64
	for w := 0; w < workers; w++ {
		s, err := veblock.Build(filepath.Join(t.TempDir(), "ve.dat"), &diskio.Counter{}, g, layout, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		chunks += (s.SizeBytes() + codec.ChunkSize - 1) / codec.ChunkSize
		s.Close()
	}
	if chunks < 3*8 {
		t.Fatalf("stores span %d chunks: too few to outgrow an 8-chunk cache threefold", chunks)
	}
	run := func(par int) (*metrics.JobResult, int64) {
		reg := obs.NewRegistry()
		cfg := Config{Workers: workers, MsgBuf: n / 10, MaxSteps: steps, BlocksPerWorker: blocks,
			Codec: "lz", Parallelism: par, Metrics: reg}
		res := runOne(t, g, algo.NewPageRank(0.85), cfg, BPull)
		snap := reg.Snapshot()
		if snap["codec.chunk_lookups"] < snap["codec.chunk_decodes"] || snap["codec.chunk_decodes"] == 0 {
			t.Fatalf("chunk counters: %d lookups, %d decodes", snap["codec.chunk_lookups"], snap["codec.chunk_decodes"])
		}
		return res, snap["codec.chunk_decodes"]
	}
	first, decodes := run(1)
	pulling := int64(steps - 1) // superstep 1 only initialises
	t.Logf("%d chunk decodes, %d chunks × %d pulling supersteps", decodes, chunks, pulling)
	if limit := 3 * chunks * pulling / 2; decodes > limit {
		t.Errorf("%d chunk decodes for %d chunks × %d pulling supersteps: amplification %.2f, want ≤ 1.5",
			decodes, chunks, pulling, float64(decodes)/float64(chunks*pulling))
	}
	for _, par := range []int{1, 4} {
		again, d := run(par)
		if d != decodes {
			t.Errorf("p=%d: %d chunk decodes, first run %d", par, d, decodes)
		}
		sameResults(t, fmt.Sprintf("lz/p=%d", par), first, again) // PhysIO included
	}
}

// poisonFabric scribbles over every scan-path scratch buffer the moment
// its user is done with it: a worker's Pull-Respond scratch (Eblock
// window, edge list, fold slots) after each response it serves, the
// message and sort buffers a requester's response lies in when that
// requester pulls again, and its update shards' adjacency windows and
// edge lists whenever it sends — by then the update scan that used them
// has joined. A window is emptied as well as scribbled, since holding valid
// bytes across calls is its job. Anything that kept a reference into a
// buffer instead of copying out of it, or trusted a buffer's old
// contents, turns into NaNs and wild vertex ids.
type poisonFabric struct {
	closeThrough
	workers map[int]*worker
}

type poisonHandler struct {
	comm.Handler
	w *worker
}

func (f *poisonFabric) Register(id int, h comm.Handler) {
	w := h.(*worker)
	f.workers[id] = w
	f.Fabric.Register(id, poisonHandler{h, w})
}

var poisonMsg = comm.Msg{Dst: math.MaxUint32, Val: math.NaN()}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

func (h poisonHandler) RespondPull(reqBlock, step int) ([]comm.Msg, int64, error) {
	// The requester's previous response has been read once it pulls again.
	poisonIdle(&h.w.respFree[h.w.job.layout.OwnerOfBlock(reqBlock)], true)
	out, wire, err := h.Handler.RespondPull(reqBlock, step)
	for y := range h.w.respFree {
		poisonIdle(&h.w.respFree[y], false)
	}
	return out, wire, err
}

// poisonIdle scribbles over the idle buffers' scan scratch, and over their
// responses too when responses is set.
func poisonIdle(free *idleList[respondBuf], responses bool) {
	free.mu.Lock()
	defer free.mu.Unlock()
	for _, rb := range free.free { // idle, so nobody is scanning in them
		fill(rb.scan.Bytes, 0xff)
		rb.scan.Bytes = rb.scan.Bytes[:0]
		fill(rb.scan.Halves, graph.Half{Dst: math.MaxUint32, Weight: float32(math.NaN())})
		fill(rb.acc, math.NaN())
		fill(rb.seen, true)
		if responses {
			fill(rb.msgs, poisonMsg)
			fill(rb.tmp, poisonMsg)
		}
	}
}

func (f *poisonFabric) Send(p *comm.Packet) error {
	err := f.Fabric.Send(p)
	w := f.workers[p.From]
	for i := range w.shards {
		sb := &w.shards[i]
		fill(sb.adj.Bytes, 0xff)
		sb.adj.Bytes = sb.adj.Bytes[:0]
		fill(sb.edges, graph.Half{Dst: math.MaxUint32, Weight: float32(math.NaN())})
	}
	return err
}

// TestScanScratchReuseIdentity: every run under the poisoning fabric must
// equal the plain run bit for bit — values and every statistic.
func TestScanScratchReuseIdentity(t *testing.T) {
	g := graph.GenRMAT(600, 5400, 0.57, 0.19, 0.19, 31)
	poison := func(f comm.Fabric) comm.Fabric {
		return &poisonFabric{closeThrough{f}, map[int]*worker{}}
	}
	programs := map[string]func() algo.Program{
		"pagerank": func() algo.Program { return algo.NewPageRank(0.85) }, // combines
		"lpa":      func() algo.Program { return algo.NewLPA() },          // concatenates
	}
	for name, mk := range programs {
		for _, tcp := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				// depth is how many Vblocks b-pull pulls ahead: 0 under
				// DisablePrepull, 1 with the paper's pre-pulling.
				for _, depth := range []int{0, 1} {
					// MsgBuf 2400 makes hybrid switch between the two scan
					// paths; push has no pre-pull to vary.
					engines := []Engine{BPull, Hybrid}
					if depth == 1 {
						engines = append(engines, Push)
					}
					for _, e := range engines {
						label := fmt.Sprintf("%s/%s/tcp=%v/p=%d/depth=%d", name, e, tcp, par, depth)
						t.Run(label, func(t *testing.T) {
							cfg := Config{Workers: 3, MsgBuf: 2400, MaxSteps: 6, BlocksPerWorker: 4,
								TCP: tcp, Parallelism: par, DisablePrepull: depth == 0}
							testWrapFabric = nil
							want := runOne(t, g, mk(), cfg, e)
							withFabricWrap(t, poison)
							sameResults(t, label, want, runOne(t, g, mk(), cfg, e))
						})
					}
				}
			}
		}
	}
}

// loadedJob sets a job up and runs its first superstep, so every vertex has
// responded and its workers can serve pull requests for superstep 2.
func loadedJob(tb testing.TB, g *graph.Graph, prog algo.Program, cfg Config) *job {
	cfg.MaxSteps = 1
	cfg = cfg.withDefaults()
	j := &job{cfg: cfg, runCtx: context.Background(), g: g, prog: prog, sched: &fixed{mode: BPull}}
	j.cdc, _ = codec.Lookup(cfg.Codec)
	if err := j.setupDir(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.close(false) })
	res := &metrics.JobResult{}
	if err := j.setup(res); err != nil {
		tb.Fatal(err)
	}
	if err := j.run(res); err != nil {
		tb.Fatal(err)
	}
	return j
}

// BenchmarkRespondPull serves one superstep's worth of pull requests on
// one worker: every Vblock of the graph, in the order the requesters ask.
func BenchmarkRespondPull(b *testing.B) {
	g := graph.GenRMAT(8000, 120000, 0.57, 0.19, 0.19, 5)
	for _, codecName := range []string{"none", "lz"} {
		b.Run(codecName, func(b *testing.B) {
			j := loadedJob(b, g, algo.NewPageRank(0.85), Config{Workers: 2, MsgBuf: 800, BlocksPerWorker: 10, Codec: codecName, Parallelism: 1})
			w := j.workers[0]
			b.ReportAllocs()
			b.ResetTimer()
			var msgs int
			for n := 0; n < b.N; n++ {
				for blk := 0; blk < j.layout.NumBlocks(); blk++ {
					out, _, err := w.RespondPull(blk, 2)
					if err != nil {
						b.Fatal(err)
					}
					msgs += len(out)
				}
			}
			if msgs == 0 {
				b.Fatal("no messages generated")
			}
		})
	}
}

// TestConcatOnlyBlocksFromInDegrees: a concatenate-only program's Vblock
// counts follow Eq. (6) from each partition's in-degree sum, counted here
// edge by edge.
func TestConcatOnlyBlocksFromInDegrees(t *testing.T) {
	g := graph.GenRMAT(2000, 24000, 0.57, 0.19, 0.19, 13)
	const buf = 700
	j := &job{cfg: Config{Workers: 3, MsgBuf: buf}.withDefaults(), g: g, prog: algo.NewLPA(), sched: &fixed{mode: BPull}}
	j.parts = graph.RangePartition(g.NumVertices, 3)
	got := j.blocksPerWorker()
	split := false
	for w, p := range j.parts {
		ind := 0
		for u := 0; u < g.NumVertices; u++ {
			for _, h := range g.OutEdges(graph.VertexID(u)) {
				if p.Contains(h.Dst) {
					ind++
				}
			}
		}
		want := min(max((ind+buf-1)/buf, 1), p.Len())
		if got[w] != want {
			t.Errorf("worker %d: %d blocks, want %d from %d in-edges", w, got[w], want, ind)
		}
		split = split || want > 1
	}
	if !split {
		t.Fatal("every worker has one block: the test needs a split partition")
	}
}

// A warm Pull-Respond allocates nothing: the scan, the fold slots or the
// sort, and the response itself all live in the requester's respondBuf.
// Under codec lz the Eblock chunks inflate into the scan window or the
// BlockFile's cache slots, with the inflater's tables pooled.
func TestRespondPullAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which the race detector perturbs")
	}
	g := graph.GenRMAT(2000, 24000, 0.57, 0.19, 0.19, 5)
	for _, cdc := range []string{"none", "lz"} {
		for _, prog := range []algo.Program{algo.NewPageRank(0.85), algo.NewLPA()} { // combines; concatenates
			j := loadedJob(t, g, prog, Config{Workers: 2, MsgBuf: 200, BlocksPerWorker: 4, Parallelism: 1, Codec: cdc})
			w := j.workers[0]
			var msgs int
			serve := func() {
				for blk := 0; blk < j.layout.NumBlocks(); blk++ {
					out, _, err := w.RespondPull(blk, 2)
					if err != nil {
						t.Fatal(err)
					}
					msgs += len(out)
				}
			}
			serve()
			if msgs == 0 {
				t.Fatalf("%s/%s: no messages generated", cdc, prog.Name())
			}
			if got := testing.AllocsPerRun(10, serve); got != 0 {
				t.Errorf("%s/%s: a warm round of %d pull requests allocated %v times, want 0", cdc, prog.Name(), j.layout.NumBlocks(), got)
			}
		}
	}
}

// A cold Pull-Request grows BR once, straight to its bound, which holds
// what every responder returns; a warm one allocates nothing on the Local
// fabric: BR has grown, the responders answer from their respond buffers,
// and the Grouper's buffers have grown too.
func TestPullBlockAllocatesNothingWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which the race detector perturbs")
	}
	g := graph.GenRMAT(2000, 24000, 0.57, 0.19, 0.19, 5)
	for _, prog := range []algo.Program{algo.NewPageRank(0.85), algo.NewLPA()} { // combines; concatenates
		j := loadedJob(t, g, prog, Config{Workers: 2, MsgBuf: 200, BlocksPerWorker: 4, Parallelism: 1})
		w := j.workers[0]
		lo, hi := j.layout.WorkerBlocks(w.id)
		for b := lo; b < hi; b++ {
			w.pullFree = idleList[recvBuf]{} // a cold BR
			buf, _, err := w.pullBlock(2, b)
			if err != nil {
				t.Fatal(err)
			}
			bound := j.brBound(b, prog.Combiner() != nil)
			if len(buf.msgs) > bound || cap(buf.msgs) != cap(slices.Grow([]comm.Msg(nil), bound)) {
				t.Errorf("%s: block %d's BR holds %d messages in %d slots, want one growth to its bound %d",
					prog.Name(), b, len(buf.msgs), cap(buf.msgs), bound)
			}
		}
		var msgs int64
		pull := func() {
			for b := lo; b < hi; b++ {
				buf, _, err := w.pullBlock(2, b)
				if err != nil {
					t.Fatal(err)
				}
				msgs += buf.groups.Msgs()
				w.pullFree.put(buf)
			}
		}
		pull()
		if msgs == 0 {
			t.Fatalf("%s: no messages pulled", prog.Name())
		}
		if got := testing.AllocsPerRun(10, pull); got != 0 {
			t.Errorf("%s: a warm round of %d pulled blocks allocated %v times, want 0", prog.Name(), hi-lo, got)
		}
	}
}

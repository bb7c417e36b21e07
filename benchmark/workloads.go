package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hybridgraph"
	"hybridgraph/internal/catalog"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/ingest"
)

// Fixed load shape: two workers, one compute goroutine each, one job in
// flight. Parallelism is set explicitly because its default, NumCPU /
// Workers, would make the load depend on the machine.
const (
	numWorkers      = 2
	jobParallelism  = 1
	ingestMemBudget = 4 << 20
	entryName       = "g"
)

// sizing is everything that scales a run: the graph and how long a layer
// probe measures. The real benchmark always uses fullSize; bench_test.go
// shrinks it so tier-1 stays fast.
type sizing struct {
	vertices, edges int
	probeFor        time.Duration // a probe repeat loops at least this long
	probeRepeats    int           // a probe reports the median of this many
	setupRepeats    int           // setup_s is the median of this many
}

var fullSize = sizing{vertices: 20000, edges: 300000,
	probeFor: 200 * time.Millisecond, probeRepeats: 5, setupRepeats: 3}

// workload is one named input-and-configuration of the job path.
type workload struct {
	name, why    string
	web          bool // GenWeb instead of GenRMAT
	sssp         bool // SSSP from the highest-out-degree vertex, else PageRank(0.85)
	unlimitedBuf bool // MsgBuf 0 instead of n/10
	blocksPer    int
	maxSteps     int
	tcp          bool
	codec        string
	rounds       int // timed rounds when neither -rounds nor -seconds says otherwise
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{name: "pr-spill", blocksPer: 20, maxSteps: 10, codec: "none", rounds: 11,
		why: "limited memory: push spills nearly every message so msgstore+diskio dominate push; b-pull is veblock scans plus vertexfile random reads; hybrid stays in b-pull"},
	{name: "pr-mem-tcp", unlimitedBuf: true, blocksPer: 1, maxSteps: 10, tcp: true, codec: "none", rounds: 11,
		why: "bypass for every spill optimisation (zero spilled messages); comm dominates: Stage/Outbox allocation and gob framing on a real socket; hybrid switches b-pull to push"},
	{name: "sssp-web", web: true, sssp: true, blocksPer: 20, maxSteps: 20, codec: "none", rounds: 11,
		why: "many short supersteps with sparse frontiers: per-superstep fixed cost and whole-Eblock scans for few active vertices; hybrid switches three times"},
	{name: "pr-lz", blocksPer: 20, maxSteps: 3, codec: "lz", rounds: 9,
		why: "pr-spill under codec lz: BlockFile chunk decode and framed spills dominate; the other three workloads never enter a codec path"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// instance is a workload set up for one seed: graph ingested into a
// catalog, program chosen, oracle computed.
type instance struct {
	wl      *workload
	catRoot string
	entry   *catalog.Entry
	g       *hybridgraph.Graph
	prog    hybridgraph.Program
	source  int // SSSP source, -1 for PageRank
	oracle  []float64

	setupS, genS, ingestS float64
	ingestStats           *ingest.Stats
}

// setUp runs the workload's setup phase once into dir: generate the
// graph from the seed, serialise it as an edge list, stream-ingest that
// into a fresh catalog under a 4 MiB budget, and compute the oracle.
// The program under test sees only the generated edge list.
func setUp(wl *workload, sz sizing, seed int64, dir string, rec *recorder, parent int) (*instance, error) {
	in := &instance{wl: wl, catRoot: dir, source: -1}
	sp := rec.begin("setup", parent)
	defer rec.end(sp)
	t0 := time.Now()

	gsp := rec.begin("probe/graph.gen", sp)
	var g *hybridgraph.Graph
	if wl.web {
		g = hybridgraph.GenWeb(sz.vertices, sz.edges, 64, 0.85, seed)
	} else {
		g = hybridgraph.GenRMAT(sz.vertices, sz.edges, 0.57, 0.19, 0.19, seed)
	}
	rec.end(gsp)
	in.genS = time.Since(t0).Seconds()

	wsp := rec.begin("probe/graph.write_edgelist", sp)
	var el bytes.Buffer
	err := graph.WriteEdgeList(&el, g)
	rec.end(wsp)
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	isp := rec.begin("probe/ingest.stream", sp)
	ti := time.Now()
	entry, stats, err := cat.IngestStream(entryName, &el, catalog.StreamOptions{
		Workers: numWorkers, BlocksPer: wl.blocksPer, Codec: wl.codec, MemBudget: ingestMemBudget})
	in.ingestS = time.Since(ti).Seconds()
	rec.end(isp)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	in.entry, in.ingestStats, in.g = entry, stats, entry.Graph()

	osp := rec.begin("oracle", sp)
	if wl.sssp {
		in.source = 0
		for v := 1; v < in.g.NumVertices; v++ {
			if in.g.OutDegree(hybridgraph.VertexID(v)) > in.g.OutDegree(hybridgraph.VertexID(in.source)) {
				in.source = v
			}
		}
		in.prog = hybridgraph.SSSP(hybridgraph.VertexID(in.source))
		in.oracle = oracleSSSP(in.g, hybridgraph.VertexID(in.source), wl.maxSteps)
	} else {
		in.prog = hybridgraph.PageRank(0.85)
		in.oracle = oraclePageRank(in.g, 0.85, wl.maxSteps)
	}
	rec.end(osp)
	in.setupS = time.Since(t0).Seconds()
	return in, nil
}

func (in *instance) msgBuf() int {
	if in.wl.unlimitedBuf {
		return 0
	}
	return in.g.NumVertices / 10
}

func (in *instance) config() hybridgraph.Config {
	return hybridgraph.Config{
		Workers:         numWorkers,
		Parallelism:     jobParallelism,
		Profile:         hybridgraph.HDDLocal,
		MsgBuf:          in.msgBuf(),
		BlocksPerWorker: in.wl.blocksPer,
		MaxSteps:        in.wl.maxSteps,
		TCP:             in.wl.tcp,
		Codec:           in.wl.codec,
		Stores:          in.entry,
	}
}

var engineOf = map[string]hybridgraph.Engine{
	"push": hybridgraph.Push, "bpull": hybridgraph.BPull, "hybrid": hybridgraph.Hybrid}

// jobSample is what one job leaves behind once its values are checked.
type jobSample struct {
	wallS       float64
	allocBytes  uint64
	mallocs     uint64
	stepWallS   []float64
	modes       string // one letter per superstep: p or b
	simS        float64
	ioBytes     int64
	physIOBytes int64
	netBytes    int64
	spilled     int64
	valueHash   uint64
	oracleErr   error
}

// runJob runs one job through the public facade and times it from the
// Run call to the returned result. traceTo and reg are the facade's own
// tracing knobs and are nil for every end-to-end sample. The collection
// before the clock starts keeps one job's garbage out of the next one's
// pauses.
func (in *instance) runJob(key string, traceTo io.Writer, reg *hybridgraph.Metrics) (jobSample, error) {
	cfg := in.config()
	cfg.TraceWriter, cfg.Metrics = traceTo, reg
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := hybridgraph.Run(in.g, in.prog, cfg, engineOf[key])
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return jobSample{}, err
	}
	s := jobSample{wallS: wall, allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		simS: res.SimSeconds, ioBytes: res.IO.Total(), physIOBytes: res.PhysIO.Total(), netBytes: res.NetBytes,
		valueHash: hashValues(res.Values), oracleErr: checkValues(res.Values, in.oracle)}
	for _, st := range res.Steps {
		s.stepWallS = append(s.stepWallS, st.WallSeconds)
		s.modes += st.Mode[:1]
		s.spilled += st.Spilled
	}
	return s, nil
}

func (s *jobSample) loadS() float64 {
	load := s.wallS
	for _, w := range s.stepWallS {
		load -= w
	}
	if load < 0 {
		return 0
	}
	return load
}

// runner carries one workload through setup, warm-up, timed rounds and
// the traced pass.
type runner struct {
	opt  *options
	wl   *workload
	dir  string // scratch directory of this workload
	in   *instance
	rec  *recorder // nil unless the traced pass is on
	root int       // the wl/<name> span
	e2e  series
	lay  series

	attempted, failed int
	firstHash         map[string]uint64
	last              map[string]jobSample // latest untraced sample per engine
	failures          []string
}

// job runs one operation of the closed loop and applies the three
// failure rules: Run errors, values miss the oracle, or the value bits
// differ from the same engine's first job.
func (r *runner) job(key string, traceTo io.Writer, reg *hybridgraph.Metrics) (jobSample, bool) {
	r.attempted++
	s, err := r.in.runJob(key, traceTo, reg)
	switch {
	case err != nil:
	case s.oracleErr != nil:
		err = fmt.Errorf("oracle: %w", s.oracleErr)
	default:
		if first, seen := r.firstHash[key]; !seen {
			r.firstHash[key] = s.valueHash
		} else if first != s.valueHash {
			err = fmt.Errorf("value hash %016x differs from first job's %016x", s.valueHash, first)
		}
	}
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s/%s: %v", r.wl.name, key, err))
		return s, false
	}
	return s, true
}

// round is one job per engine in the fixed order push, b-pull, hybrid.
func (r *runner) round(record bool) {
	done := map[string]jobSample{}
	for _, key := range engineKeys {
		s, ok := r.job(key, nil, nil)
		if !ok || !record {
			continue
		}
		done[key], r.last[key] = s, s
		r.e2e.add(key+"_wall_s", s.wallS)
		r.e2e.add(key+"_alloc_mb", float64(s.allocBytes)/1e6)
		r.e2e.add(key+"_sim_s", s.simS)
		p := "core." + key + "."
		r.lay.add(p+"load_s", s.loadS())
		r.lay.add(p+"step_p50_ms", 1e3*median(s.stepWallS))
		r.lay.add(p+"step_max_ms", 1e3*slices.Max(s.stepWallS))
		r.lay.add(p+"mallocs_k", float64(s.mallocs)/1e3)
		r.lay.add(p+"edge_steps_per_s", float64(r.in.g.NumEdges())*float64(len(s.stepWallS))/s.wallS)
	}
	if len(done) == len(engineKeys) {
		push, bpull, hybrid := done["push"], done["bpull"], done["hybrid"]
		r.lay.add("core.hybrid.wall_vs_best", hybrid.wallS/min(push.wallS, bpull.wallS))
		r.lay.add("core.hybrid.sim_vs_best", hybrid.simS/min(push.simS, bpull.simS))
	}
}

// setUpAll runs the setup phase setupRepeats times, each into a fresh
// catalog, and keeps the last instance; setup_s is their median.
func (r *runner) setUpAll(repeats int) error {
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("catalog-%d", i))
		in, err := setUp(r.wl, r.opt.size, r.opt.seed, dir, r.rec, r.root)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", r.wl.name, err)
		}
		if r.in != nil {
			if err := os.RemoveAll(r.in.catRoot); err != nil {
				return err
			}
		}
		r.in = in
		r.e2e.add("setup_s", in.setupS)
		r.lay.add("graph.gen_s", in.genS)
		r.lay.add("ingest.stream_edges_per_s", float64(in.g.NumEdges())/in.ingestS)
		r.lay.add("ingest.spill_bytes", float64(in.ingestStats.SpillWriteBytes))
	}
	return nil
}

// timedRounds runs the closed loop: a fixed number of rounds, or, under
// -seconds, as many whole rounds as start before the time is up.
func (r *runner) timedRounds(rounds int, seconds float64) {
	start := time.Now()
	for i := 0; ; i++ {
		if seconds > 0 {
			if i > 0 && time.Since(start).Seconds() >= seconds {
				return
			}
		} else if i >= rounds {
			return
		}
		r.round(true)
	}
}

// coreCounts records the exact per-engine counts of the latest untraced
// jobs, and hybrid's mode sequence as push steps and switches.
func (r *runner) coreCounts() {
	for _, key := range engineKeys {
		s, ok := r.last[key]
		if !ok {
			continue
		}
		p := "core." + key + "."
		r.lay.add(p+"supersteps", float64(len(s.stepWallS)))
		r.lay.add(p+"io_bytes", float64(s.ioBytes))
		r.lay.add(p+"net_bytes", float64(s.netBytes))
		r.lay.add(p+"spilled_msgs", float64(s.spilled))
		r.lay.add(p+"phys_io_bytes", float64(s.physIOBytes))
	}
	h, ok := r.last["hybrid"]
	if !ok {
		return
	}
	pushSteps, switches := 0, 0
	for i := range h.modes {
		if h.modes[i] == 'p' {
			pushSteps++
		}
		if i > 0 && h.modes[i] != h.modes[i-1] {
			switches++
		}
	}
	r.lay.add("core.hybrid.push_steps", float64(pushSteps))
	r.lay.add("core.hybrid.switches", float64(switches))
}

// tracedJobs runs one job per engine with the facade's trace journal and
// metrics registry switched on, records job/load/step spans, and reports
// the worst slowdown against the untraced median as the tracing overhead.
func (r *runner) tracedJobs() {
	worst := 0.0
	for _, key := range engineKeys {
		var journal bytes.Buffer
		sp := r.rec.begin("job/"+key, r.root)
		s, ok := r.job(key, &journal, hybridgraph.NewMetrics())
		r.rec.end(sp)
		if !ok {
			continue
		}
		// Only the duration of each superstep is known, not when it began:
		// load (store open and verify, vertex-store init, teardown) is laid
		// out first and the supersteps follow back to back.
		at := r.rec.start(sp)
		next := at + int64(s.loadS()*1e9)
		r.rec.rebuilt("load", sp, at, next)
		for t, w := range s.stepWallS {
			end := next + int64(w*1e9)
			r.rec.rebuilt(fmt.Sprintf("step/%d", t+1), sp, next, end)
			next = end
		}
		if base := r.e2e[key+"_wall_s"]; len(base) > 0 {
			worst = max(worst, 100*(s.wallS/median(base)-1))
		}
	}
	r.lay.add("core.trace_overhead_pct", worst)
}

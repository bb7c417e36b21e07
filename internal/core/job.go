package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/msglog"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/veblock"
	"hybridgraph/internal/vertexfile"
)

// job is one engine run over one graph.
type job struct {
	cfg     Config
	runCtx  context.Context
	g       *graph.Graph
	prog    algo.Program
	engine  Engine
	parts   []graph.Partition
	layout  *veblock.Layout
	fabric  comm.Fabric
	workers []*worker
	loadCts []*diskio.Counter
	dir     string
	ownDir  bool

	// cdc is the resolved block codec every disk-resident structure uses;
	// pcts are the per-worker physical twin counters its frame I/O lands
	// on (one per worker, shared by that worker's compute, load and log
	// counters via Counter.SetPhys). Under codec "none" the twins mirror
	// the logical charges exactly, so physical == logical by construction.
	cdc  codec.Codec
	pcts []*diskio.Counter

	// Catalog accounting: bytes written building edge layouts during setup
	// (adj, VE-BLOCK, mirror) and bytes reused from a pre-built store
	// source. A catalog hit makes buildBytes zero by construction.
	layoutBuildBytes  int64
	layoutReusedBytes int64

	totalFrags int64
	bTotal     int64 // B = Σ B_i in messages (0 = unlimited)

	// hybrid state
	modes      []Engine // mode per superstep, index t (1-based)
	lastSwitch int
	rco        float64 // observed b-pull byte-savings ratio, for Mco estimates
	qtSigns    []bool  // per-superstep "b-pull preferred" history (PhaseAware)

	prevAgg float64 // last superstep's reduced aggregator value

	pol        recoveryPolicy
	crashFired []bool // per fault-plan crash: already injected
	stallFired []bool // per fault-plan stall: already injected

	// Adopting-placement state (Recovery: "reassign"): the epoch-versioned
	// ownership table, per-worker failure counts driving the permanence
	// decision, and the per-unit migration-cost stash that lands in the
	// first post-adoption superstep's stats. All nil under other policies.
	own         *ownership
	crashCounts []int
	stallCounts []int
	pendingMig  []pendingMig
	resuming    bool // live-values recovery: superstep 1 re-announces values
	ckptStep    int  // newest retained checkpoint superstep (0 = none)
	ckptPrev    int  // previous retained checkpoint (fallback for torn restores)
	logFloor    int  // message logs hold every superstep after this one

	// faultFS is the storage-fault injector installed over the work
	// directory when the fault plan carries a Disk config; nil otherwise.
	faultFS *diskio.FaultFS

	// lastStepAggSet records whether any worker contributed to the last
	// superstep's aggregate — a stalled worker's rejoin needs it to fold
	// its contribution in correctly.
	lastStepAggSet bool
	// replayFab, while non-nil, redirects the failed worker's superstep
	// sends and pulls through the log-replay fabric. Installed and removed
	// between supersteps only.
	replayFab *replayFabric

	// observability: nil trace drops events, nil-instrument jm no-ops.
	trace *obs.Tracer
	jm    jobMetrics
}

// testWrapFabric, when a test sets it, wraps every job's fabric once
// metrics and cancellation are wired into the real one.
var testWrapFabric func(comm.Fabric) comm.Fabric

// ErrInjectedFailure is the sentinel every injected worker crash matches:
// errors.Is(err, ErrInjectedFailure) distinguishes faults the master's
// detector raised on purpose from real execution errors.
var ErrInjectedFailure = errors.New("core: injected worker failure")

// InjectedFailure is the typed error the master's fault detector raises
// when a scheduled worker crash fires at the superstep barrier. Permanent
// marks a crash the fault plan declared unrecoverable — under the
// reassign policy the worker's partition is adopted by a survivor instead
// of restored in place.
type InjectedFailure struct {
	Step      int
	Worker    int
	Permanent bool
}

// Error implements error.
func (e *InjectedFailure) Error() string {
	return fmt.Sprintf("core: injected failure of worker %d at superstep %d", e.Worker, e.Step)
}

// Is makes errors.Is(err, ErrInjectedFailure) true for every injection.
func (e *InjectedFailure) Is(target error) bool { return target == ErrInjectedFailure }

// Run executes one algorithm over one graph with the given engine and
// returns the per-superstep statistics. It is the package's main entry
// point; RunContext adds cancellation.
func Run(g *graph.Graph, prog algo.Program, cfg Config, engine Engine) (*metrics.JobResult, error) {
	return RunContext(context.Background(), g, prog, cfg, engine)
}

// RunContext is Run under a context: cancelling ctx (or exceeding its
// deadline) aborts the job promptly — the master loop checks the context
// at every superstep barrier, and both comm fabrics fail in-flight
// exchanges fast once the context is done — returning an error matching
// ctx's cause via errors.Is (context.Canceled / DeadlineExceeded). A
// cancelled job's work directory is removed like any failed job's.
func RunContext(ctx context.Context, g *graph.Graph, prog algo.Program, cfg Config, engine Engine) (_ *metrics.JobResult, err error) {
	cfg = cfg.withDefaults()
	pol, err := cfg.validate(g.NumVertices)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{cfg: cfg, runCtx: ctx, g: g, prog: prog, engine: engine, pol: pol}
	j.cdc, _ = codec.Lookup(cfg.Codec)
	tr, err := newJobTracer(cfg, prog, engine)
	if err != nil {
		return nil, err
	}
	j.trace = tr
	defer tr.Close()
	j.jm = newJobMetrics(cfg.Metrics)
	if err := j.setupDir(); err != nil {
		return nil, err
	}
	defer func() { j.close(err != nil) }()
	if tr != nil {
		tr.Emit(obs.JobEvent{Type: obs.EventJobStart, JobID: cfg.JobLabel,
			Engine: string(engine), Algorithm: prog.Name(), Workers: cfg.Workers,
			Parallelism: cfg.Parallelism,
			Vertices:    g.NumVertices, Edges: int64(g.NumEdges())})
	}
	res := &metrics.JobResult{
		Engine:      string(engine),
		Algorithm:   prog.Name(),
		Workers:     cfg.Workers,
		Parallelism: cfg.Parallelism,
		Codec:       j.cdc.Name(),
	}
	if err := j.setup(engine, res); err != nil {
		return nil, err
	}
	if err := j.run(engine, res); err != nil {
		if j.faultFS != nil {
			res.DiskFaults = j.faultFS.Stats().Total()
		}
		return nil, err
	}
	res.Finish()
	j.jm.compression.Set(int64(res.CompressionRatio * 1000))
	if j.faultFS != nil {
		res.DiskFaults = j.faultFS.Stats().Total()
	}
	vals, err := j.collectValues()
	if err != nil {
		return nil, err
	}
	res.Values = vals
	if tr != nil {
		tr.Emit(obs.JobEvent{Type: obs.EventJobEnd, JobID: cfg.JobLabel,
			Engine: string(engine), Algorithm: prog.Name(), Workers: cfg.Workers,
			Parallelism: cfg.Parallelism,
			Steps:       len(res.Steps), SimSecs: res.SimSeconds,
			NetBytes: res.NetBytes, IOBytes: res.IO.Total(), Restarts: res.Restarts})
	}
	if err := tr.Close(); err != nil {
		return nil, fmt.Errorf("core: trace journal: %w", err)
	}
	return res, nil
}

// collectValues reads the final vertex values back out of the stores.
func (j *job) collectValues() ([]float64, error) {
	vals := make([]float64, j.g.NumVertices)
	for _, w := range j.workers {
		recs := make([]vertexfile.Record, w.part.Len())
		if err := w.vstore.ReadRange(w.part.Lo, w.part.Hi, recs); err != nil {
			return nil, err
		}
		for _, r := range recs {
			vals[r.ID] = r.Val
		}
	}
	return vals, nil
}

func (j *job) setupDir() error {
	if j.cfg.WorkDir != "" {
		j.dir = j.cfg.WorkDir
		if err := os.MkdirAll(j.dir, 0o755); err != nil {
			return err
		}
	} else {
		dir, err := os.MkdirTemp("", "hybridgraph-")
		if err != nil {
			return err
		}
		j.dir = dir
		j.ownDir = true
	}
	if plan := j.cfg.FaultPlan; plan != nil && plan.Disk != nil && plan.Disk.Enabled() {
		j.faultFS = diskio.NewFaultFS(*plan.Disk)
		j.faultFS.OnFault = func(e *diskio.Error) {
			j.jm.diskFaults.Inc()
			if j.trace != nil {
				j.trace.Emit(obs.DiskFaultEvent{Type: obs.EventDiskFault,
					Op: e.Op, Path: e.Path, Class: e.Class, Kind: string(e.Kind)})
			}
		}
		diskio.Install(j.dir, j.faultFS)
	}
	return nil
}

// close releases every resource. failed marks a run that ended in an
// error (including cancellation): its on-disk artifacts are removed even
// under a caller-provided WorkDir, so an aborted job never leaves
// per-worker data directories or checkpoint files behind.
func (j *job) close(failed bool) {
	if j.faultFS != nil {
		diskio.Uninstall(j.dir)
	}
	for _, w := range j.workers {
		if w != nil {
			w.close()
		}
	}
	if c, ok := j.fabric.(interface{ Close() error }); ok {
		c.Close()
	}
	if j.cfg.KeepFiles {
		return
	}
	if j.ownDir {
		os.RemoveAll(j.dir)
		return
	}
	if failed {
		// Caller-provided WorkDir: remove only what this job created —
		// the w<i> store directories and any checkpoint artifacts — and
		// leave the directory itself to its owner. Glob rather than walk
		// j.workers so dirs created before a mid-setup failure go too.
		for _, pat := range []string{"w[0-9]*", "ckpt-*"} {
			matches, _ := filepath.Glob(filepath.Join(j.dir, pat))
			for _, m := range matches {
				os.RemoveAll(m)
			}
		}
	}
}

func (j *job) ctx(t int) *algo.Context {
	return &algo.Context{Step: t, NumVertices: j.g.NumVertices, MaxSteps: j.cfg.MaxSteps,
		Aggregate: j.prevAgg}
}

func (j *job) loadCt(w int) *diskio.Counter { return j.loadCts[w] }

// blocksPerWorker derives each worker's Vblock count from Eq. (5)/(6), or
// honours the explicit configuration. A store source's geometry is
// authoritative: its VE files were laid out for a specific block count,
// so reusing them means adopting it.
func (j *job) blocksPerWorker() []int {
	if j.cfg.Stores != nil {
		return append([]int(nil), j.cfg.Stores.BlocksPer()...)
	}
	t := j.cfg.Workers
	out := make([]int, t)
	for w, p := range j.parts {
		switch {
		case j.cfg.BlocksPerWorker > 0:
			out[w] = j.cfg.BlocksPerWorker
		case j.cfg.MsgBuf <= 0:
			// Sufficient memory: the paper sets V as small as possible.
			out[w] = 1
		case j.prog.Combiner() != nil:
			out[w] = veblock.BlocksCombinable(p.Len(), t, j.cfg.MsgBuf)
		default:
			out[w] = veblock.BlocksConcatOnly(j.inDegreeSum(p), j.cfg.MsgBuf, p.Len())
		}
		if out[w] < 1 {
			out[w] = 1
		}
	}
	return out
}

func (j *job) inDegreeSum(p graph.Partition) int64 {
	var ind int64
	for u := 0; u < j.g.NumVertices; u++ {
		for _, h := range j.g.OutEdges(graph.VertexID(u)) {
			if p.Contains(h.Dst) {
				ind++
			}
		}
	}
	return ind
}

// setup partitions the graph, builds the stores each engine needs, and
// records the loading cost (Fig. 16) into res.
func (j *job) setup(engine Engine, res *metrics.JobResult) error {
	if engine == PushM && j.prog.Combiner() == nil {
		// MOCgraph's online computing needs commutative messages, which is
		// why the paper's LPA and SA plots have no pushM bars.
		return fmt.Errorf("core: pushM requires a combinable algorithm, %s is not", j.prog.Name())
	}
	t := j.cfg.Workers
	j.parts = graph.RangePartition(j.g.NumVertices, t)
	if j.cfg.FaultPlan != nil {
		j.crashFired = make([]bool, len(j.cfg.FaultPlan.Crashes))
		j.stallFired = make([]bool, len(j.cfg.FaultPlan.Stalls))
	}
	if j.pol.failedOnly && engine == Pull {
		// The pull baseline's gather/scatter exchanges carry whole vertex
		// states on demand, not superstep-framed messages; there is nothing
		// a sender-side log could replay.
		return fmt.Errorf("core: %s recovery does not support the pull baseline", j.pol.name)
	}
	if j.pol.adopt {
		j.own = newOwnership(t)
		j.crashCounts = make([]int, t)
		j.stallCounts = make([]int, t)
		j.pendingMig = make([]pendingMig, t)
	}
	if j.cfg.TCP {
		var tcfg comm.TCPConfig
		if j.cfg.FaultPlan != nil {
			tcfg.Faults = j.cfg.FaultPlan.Net
		}
		fab, err := comm.NewTCPConfig(t, tcfg)
		if err != nil {
			return err
		}
		j.fabric = fab
	} else {
		j.fabric = comm.NewLocal(t)
	}
	if ms, ok := j.fabric.(obs.MetricsSetter); ok {
		ms.SetMetrics(j.cfg.Metrics)
	}
	if cs, ok := j.fabric.(comm.ContextSetter); ok {
		cs.SetContext(j.runCtx)
	}
	if testWrapFabric != nil {
		j.fabric = testWrapFabric(j.fabric)
	}
	j.loadCts = make([]*diskio.Counter, t)
	j.pcts = make([]*diskio.Counter, t)
	j.workers = make([]*worker, t)
	if j.cfg.MsgBuf > 0 {
		j.bTotal = int64(j.cfg.MsgBuf) * int64(t)
	}

	needVE := engine == BPull || engine == Hybrid
	needAdj := engine == Push || engine == PushM || engine == Hybrid ||
		(engine == Pull && j.prog.Style() != algo.AlwaysActive)
	needMirror := engine == Pull

	if needVE {
		layout, err := veblock.NewLayout(j.parts, j.blocksPerWorker())
		if err != nil {
			return err
		}
		j.layout = layout
	} else {
		// A degenerate one-block-per-worker layout keeps BlockOf and the
		// flag machinery uniform across engines.
		layout, err := veblock.UniformLayout(j.parts, 1)
		if err != nil {
			return err
		}
		j.layout = layout
	}

	for w := 0; w < t; w++ {
		j.loadCts[w] = &diskio.Counter{}
		j.pcts[w] = &diskio.Counter{}
		j.loadCts[w].SetPhys(j.pcts[w])
		wk := &worker{id: w, job: j, part: j.parts[w], ct: &diskio.Counter{},
			dir: filepath.Join(j.dir, fmt.Sprintf("w%d", w))}
		wk.ct.SetPhys(j.pcts[w])
		if err := os.MkdirAll(wk.dir, 0o755); err != nil {
			return err
		}
		if err := wk.buildVertexStore(j.g); err != nil {
			return err
		}
		// Edge-layout builds are bracketed so their write bytes can be
		// told apart from the per-job vertex-store init: on a catalog hit
		// this delta must be zero (the stores are opened, not rebuilt).
		edgeBase := j.loadCts[w].Snapshot()
		if needAdj {
			if err := wk.buildAdj(j.g); err != nil {
				return err
			}
		}
		if needMirror {
			if err := wk.buildMirror(j.g); err != nil {
				return err
			}
		}
		if needVE {
			if err := wk.buildVE(j.g); err != nil {
				return err
			}
			j.totalFrags += wk.ve.Fragments()
		}
		j.layoutBuildBytes += j.loadCts[w].Snapshot().Sub(edgeBase).Bytes[diskio.SeqWrite]
		if engine == PushM {
			wk.pickHotSet(j.g, j.cfg.MsgBuf)
		}
		wk.initFlags()
		if engine == Push || engine == PushM || engine == Hybrid {
			wk.initInboxes()
		}
		wk.storesBuilt()
		if engine == Pull {
			wk.vcache = newPullCache(wk.vstore, j.cfg.VertexCache, j.cfg.Metrics)
		}
		if j.pol.failedOnly {
			wk.logCt = &diskio.Counter{}
			wk.logCt.SetPhys(j.pcts[w])
			ml, err := msglog.Open(filepath.Join(wk.dir, "msglog"), wk.logCt, j.cdc)
			if err != nil {
				return err
			}
			wk.mlog = ml
			wk.sendLog = &sendLogger{Fabric: j.fabric, w: wk}
		}
		j.fabric.Register(w, wk)
		j.workers[w] = wk
	}
	// Loading cost: bytes written by the builders converted under the
	// profile, plus a parse charge per edge.
	var loadIO diskio.Snapshot
	for _, ct := range j.loadCts {
		loadIO = loadIO.Add(ct.Snapshot())
	}
	res.LoadIO = loadIO
	var loadPhys diskio.Snapshot
	for _, p := range j.pcts {
		loadPhys = loadPhys.Add(p.Snapshot())
	}
	res.LoadPhysIO = loadPhys
	res.LoadSimSeconds = j.cfg.Profile.DiskSeconds(loadIO) +
		float64(j.g.NumEdges())*metrics.CostPerEdge*j.cfg.Profile.CPUFactor
	res.CatalogHit = j.cfg.Stores != nil
	res.LayoutBuildBytes = j.layoutBuildBytes
	res.LayoutReusedBytes = j.layoutReusedBytes
	if j.trace != nil {
		ev := obs.CatalogEvent{Type: obs.EventCatalog, Hit: res.CatalogHit,
			BuiltBytes: j.layoutBuildBytes, ReusedBytes: j.layoutReusedBytes}
		if j.cfg.Stores != nil {
			ev.Graph = j.cfg.Stores.GraphName()
		}
		j.trace.Emit(ev)
	}

	if engine == Hybrid {
		j.initHybridModes()
	}
	return nil
}

// run drives the superstep loop, handing every detected worker failure to
// the recovery driver and resuming where it says.
func (j *job) run(engine Engine, res *metrics.JobResult) error {
	start := 1
	if j.cfg.ResumeFromCheckpoint {
		// A restarted daemon re-runs an interrupted job in its original
		// WorkDir: pick up at the last committed checkpoint rather than
		// recomputing everything a process kill threw away. Verification
		// failures fall through to a fresh start, never an error.
		step, ok, err := j.restore(res, j.workers, true)
		if err != nil {
			return err
		}
		if ok {
			start = step + 1
		}
		if err := j.rollbackLogs(start - 1); err != nil {
			return err
		}
	}
	for {
		err := j.runOnce(engine, res, start)
		if err == nil {
			return nil
		}
		if f, ok := detected(err); ok {
			var halt bool
			if start, halt, err = j.recoverFailure(res, f); err == nil {
				if halt {
					return nil
				}
				continue
			}
		}
		// A cancelled run context makes fabric operations fail with
		// whatever they were doing; attribute the abort to the cause so
		// callers can match it with errors.Is regardless of which layer
		// noticed first.
		if cerr := context.Cause(j.runCtx); cerr != nil {
			return cerr
		}
		return err
	}
}

// injectCrash reports whether a scheduled, not-yet-fired crash hits at the
// start of superstep t. Each crash fires at most once per job: supersteps
// re-executed during recovery do not re-fire past faults, while later
// crashes in the plan still hit the recovered run (compound failures). A
// crash aimed at a worker the reassign policy already declared dead is
// consumed without firing — there is no machine left to crash.
func (j *job) injectCrash(t int) (worker int, permanent, fired bool) {
	plan := j.cfg.FaultPlan
	if plan == nil {
		return 0, false, false
	}
	for i, c := range plan.Crashes {
		if c.Step == t && !j.crashFired[i] {
			j.crashFired[i] = true
			if j.own != nil && j.own.isDead(c.Worker) {
				continue
			}
			return c.Worker, c.Permanent, true
		}
	}
	return 0, false, false
}

func (j *job) runOnce(engine Engine, res *metrics.JobResult, start int) error {
	for t := start; t <= j.cfg.MaxSteps; t++ {
		// Master barrier loop cancellation point: a cancelled context stops
		// the job between supersteps even when no fabric traffic is in
		// flight (e.g. a single-worker run doing pure local compute).
		if err := context.Cause(j.runCtx); err != nil {
			return err
		}
		if w, perm, fired := j.injectCrash(t); fired {
			// The fault detector notices the crashed worker at the barrier.
			j.jm.faults.Inc()
			if j.trace != nil {
				kind := ""
				if perm {
					kind = "permanent-crash"
				}
				j.trace.Emit(obs.FaultEvent{Type: obs.EventFault, Step: t, Worker: w, Kind: kind})
			}
			return &InjectedFailure{Step: t, Worker: w, Permanent: perm}
		}
		mode := engine
		if engine == Hybrid {
			mode = j.modes[t]
		}
		st, err := j.superstep(t, engine, mode)
		var stallErr *StalledWorker
		if err != nil && !errors.As(err, &stallErr) {
			return err
		}
		res.Steps = append(res.Steps, st)
		if engine == Hybrid {
			j.scheduleMode(t, st)
		}
		if st.SwitchedFrom != "" {
			j.jm.switches.Inc()
		}
		if j.trace != nil {
			// The step summary is emitted after the hybrid scheduler ran, so
			// NextMode carries the decision this superstep's Q^t just made.
			ev := obs.StepEvent{Type: obs.EventStep, Stats: st}
			if engine == Hybrid && t+2 < len(j.modes) {
				ev.NextMode = string(j.modes[t+2])
			}
			j.trace.Emit(ev)
			if st.SwitchedFrom != "" {
				j.trace.Emit(obs.ModeSwitchEvent{Type: obs.EventModeSwitch,
					Step: t, From: st.SwitchedFrom, To: st.Mode})
			}
		}
		j.prevAgg = st.Aggregate
		if stallErr != nil {
			// The stalled workers never reached the barrier: journal the
			// fault and hand the incomplete superstep to recovery. The
			// halting checks are re-applied after recovery folds the rejoin
			// contributions back into this step's stats.
			j.jm.faults.Inc()
			j.jm.stalls.Add(int64(len(stallErr.Workers)))
			if j.trace != nil {
				for _, w := range stallErr.Workers {
					j.trace.Emit(obs.FaultEvent{Type: obs.EventFault, Step: t,
						Worker: w, Kind: "stall"})
				}
			}
			return stallErr
		}
		if st.Responding == 0 {
			break
		}
		if ag, ok := j.prog.(algo.Aggregating); ok && t > 1 && ag.Converged(st.Aggregate) {
			break
		}
		if err := j.maybeCheckpoint(t, res); err != nil {
			return err
		}
	}
	if engine == Pull {
		// Dirty resident vertex records must reach the store before final
		// values are read out.
		for _, w := range j.workers {
			if w.vcache != nil {
				if err := w.vcache.flush(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// injectStalls reports which workers a scheduled, not-yet-fired stall
// freezes at superstep t (nil when none). Like crashes, each stall fires
// at most once per job.
func (j *job) injectStalls(t int) []bool {
	plan := j.cfg.FaultPlan
	if plan == nil {
		return nil
	}
	var out []bool
	for i, s := range plan.Stalls {
		if s.Step == t && !j.stallFired[i] {
			j.stallFired[i] = true
			if j.own != nil && j.own.isDead(s.Worker) {
				// The reassign policy removed this worker; its partition now
				// runs on a survivor's machine and cannot stall on its own.
				continue
			}
			if out == nil {
				out = make([]bool, len(j.workers))
			}
			out[s.Worker] = true
		}
	}
	return out
}

// superstep runs one superstep across all workers and aggregates stats.
// A returned *StalledWorker error (and only that error) comes with valid
// stats: the survivors completed the superstep and their numbers are
// real; the stalled workers contributed nothing.
func (j *job) superstep(t int, engine, mode Engine) (metrics.StepStats, error) {
	type before struct {
		io      diskio.Snapshot
		log     diskio.Snapshot
		phys    diskio.Snapshot
		in, out int64
	}
	befores := make([]before, len(j.workers))
	for i, w := range j.workers {
		w.resetStat()
		w.clearStepFlags(t)
		in, out := j.fabric.Traffic(w.id)
		befores[i] = before{io: w.ct.Snapshot(), phys: j.pcts[i].Snapshot(), in: in, out: out}
		if w.logCt != nil {
			befores[i].log = w.logCt.Snapshot()
		}
	}
	wallStart := time.Now()

	stalling := j.injectStalls(t)
	var wg sync.WaitGroup
	errs := make([]error, len(j.workers))
	for i, w := range j.workers {
		if j.own != nil && j.own.isDead(w.id) {
			// Permanently-dead slot: its adopted unit is stepped by the
			// hosting survivor's goroutine below, never on its own.
			continue
		}
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			if stalling != nil && stalling[i] {
				// The stalled worker hangs mid-superstep: it stays reachable —
				// deliveries land in its inbox and its Pull-Respond handler
				// keeps serving — but it never reaches the barrier. The stall
				// is scheduled, so the master knows of it at once and declares
				// it failed, along with any adopted units riding on the same
				// machine, when the survivors reach the barrier.
				ws := []int{w.id}
				if j.own != nil {
					ws = append(ws, j.own.adoptedBy(w.id)...)
				}
				errs[i] = &StalledWorker{Step: t, Workers: ws}
				return
			}
			if errs[i] = j.stepWorker(w, t, engine, mode); errs[i] != nil {
				return
			}
			if j.own != nil {
				// Host machine: after its own partition, step the adopted
				// units sequentially in ascending origin order — one machine
				// executes its units serially, and the fixed order keeps the
				// visit sequence deterministic.
				for _, u := range j.own.adoptedBy(w.id) {
					if errs[i] = j.stepWorker(j.workers[u], t, engine, mode); errs[i] != nil {
						return
					}
				}
			}
		}(i, w)
	}
	wg.Wait()
	var stallErr *StalledWorker
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *StalledWorker
		if errors.As(err, &se) {
			if stallErr == nil {
				stallErr = &StalledWorker{Step: t}
			}
			stallErr.Workers = append(stallErr.Workers, se.Workers...)
			continue
		}
		return metrics.StepStats{}, err
	}
	wall := time.Since(wallStart).Seconds()

	st := metrics.StepStats{Step: t, Mode: string(mode), WallSeconds: wall}
	if engine == Hybrid && t > 1 && j.modes[t] != j.modes[t-1] {
		st.SwitchedFrom = string(j.modes[t-1])
	}
	aggProg, aggregating := j.prog.(algo.Aggregating)
	aggSet := false
	var simMax float64
	var hostSim map[int]float64
	if j.own != nil {
		// Under reassignment a host machine runs its own unit plus its
		// adopted ones serially, so the superstep's critical path is the
		// per-host sum of unit times, maxed across hosts.
		hostSim = make(map[int]float64, len(j.workers))
	}
	for i, w := range j.workers {
		d := w.ct.Snapshot().Sub(befores[i].io)
		pd := j.pcts[i].Snapshot().Sub(befores[i].phys)
		var logD diskio.Snapshot
		if w.logCt != nil {
			logD = w.logCt.Snapshot().Sub(befores[i].log)
		}
		in, out := j.fabric.Traffic(w.id)
		nIn, nOut := in-befores[i].in, out-befores[i].out

		w.mu.Lock()
		s := w.stat
		w.mu.Unlock()

		// pushM/push: spill written for next superstep (M_disk).
		if mode == Push || mode == PushM || (engine == Hybrid && j.produceMode(t) == Push) {
			if ib := w.inboxes[writeParity(t+1)]; ib != nil {
				s.parts.MdiskW += ib.Spilled() * comm.MsgWireSize
			}
		}

		st.Produced += s.produced
		st.Combined += s.mcoBytes / comm.MsgIDSize // reported in id units
		st.NetBytes += nOut
		st.Requests += s.requests
		st.Responding += s.responding
		st.Updated += s.updated
		st.Spilled += s.parts.MdiskW / comm.MsgWireSize
		st.IO = st.IO.Add(d)
		st.LogIO = st.LogIO.Add(logD)
		st.PhysIO = st.PhysIO.Add(pd)
		addBreakdown(&st.Parts, s.parts)

		mem := s.memBytes
		if ib := w.inboxes[writeParity(t+1)]; ib != nil {
			if m := ib.MaxMemBytes(); m > mem {
				mem = m
			}
		}
		if w.ve != nil {
			mem += w.ve.MetaMemBytes()
		}
		if mem > st.MemBytes {
			st.MemBytes = mem
		}

		host := w.id
		var migIO diskio.Snapshot
		var migNet int64
		if j.own != nil {
			host = j.own.hostOf(w.id)
			// A migration that completed since the last superstep lands its
			// cost here, on the adopted unit's row, exactly once — the
			// JobResult totals were charged at adoption and are independent.
			if pm := j.pendingMig[w.id]; pm.set {
				migIO, migNet = pm.io, pm.net
				st.MigrationIO = st.MigrationIO.Add(migIO)
				st.MigrationNetBytes += migNet
				j.pendingMig[w.id] = pendingMig{}
			}
		}

		if j.trace != nil {
			// One journal line per worker per superstep: exactly the numbers
			// this loop folds into st, so summing a step's worker events must
			// reproduce the StepStats (the accounting cross-check test).
			j.trace.Emit(obs.WorkerStepEvent{Type: obs.EventWorkerStep,
				Step: t, Worker: w.id, Host: host, Mode: string(mode),
				Updated: s.updated, Responding: s.responding,
				Produced: s.produced, Requests: s.requests,
				Spilled: s.parts.MdiskW / comm.MsgWireSize,
				NetIn:   nIn, NetOut: nOut,
				IO: d, LogIO: logD, PhysIO: pd, Parts: s.parts, MemBytes: mem,
				MigrationIO: migIO, MigrationNetBytes: migNet})
		}

		cpuSec := s.cpu.Seconds(j.cfg.Profile)
		// Message-log appends are real sequential writes the confined policy
		// pays during normal execution; they cost time but stay out of st.IO
		// so the Q^t inputs and the trace-vs-stats cross-check see pure
		// Eq. (7)/(8) traffic.
		diskSec := j.diskSeconds(d.Add(logD), pd)
		netSec := j.cfg.Profile.NetSeconds(nIn + nOut)
		st.CPUSeconds += cpuSec
		st.DiskSeconds += diskSec
		if netSec > st.NetSeconds {
			st.NetSeconds = netSec
		}
		sim := cpuSec + diskSec + netSec
		if hostSim != nil {
			hostSim[host] += sim
		} else if sim > simMax {
			simMax = sim
		}

		// Hybrid prediction inputs.
		st.McoBytes += s.mcoBytes
		st.EstEt += s.estEt
		st.EstEbar += s.estEbar
		st.EstFt += s.estFt
		st.EstVrr += s.estVrr

		if aggregating && s.aggSet {
			if !aggSet {
				st.Aggregate, aggSet = s.agg, true
			} else {
				st.Aggregate = aggProg.Reduce(st.Aggregate, s.agg)
			}
		}
	}
	for _, s := range hostSim {
		if s > simMax {
			simMax = s
		}
	}
	st.SimSeconds = simMax
	j.lastStepAggSet = aggSet
	j.finishQt(t, mode, &st)

	if j.trace != nil {
		// One codec event pair per superstep under every codec, derived
		// from the counter deltas: the write classes are the compress
		// direction, the read classes decompress. Logical bytes include the
		// message log — the codec stores it too. Under the identity codec
		// the physical bytes equal the logical ones.
		wLog := st.IO.Bytes[diskio.SeqWrite] + st.IO.Bytes[diskio.RandWrite] +
			st.LogIO.Bytes[diskio.SeqWrite] + st.LogIO.Bytes[diskio.RandWrite]
		rLog := st.IO.Bytes[diskio.SeqRead] + st.IO.Bytes[diskio.RandRead] +
			st.LogIO.Bytes[diskio.SeqRead] + st.LogIO.Bytes[diskio.RandRead]
		wPhys := st.PhysIO.Bytes[diskio.SeqWrite] + st.PhysIO.Bytes[diskio.RandWrite]
		rPhys := st.PhysIO.Bytes[diskio.SeqRead] + st.PhysIO.Bytes[diskio.RandRead]
		if wLog > 0 {
			j.trace.Emit(obs.CodecEvent{Type: obs.EventCompress, Step: t,
				Codec: j.cdc.Name(), Logical: wLog, Physical: wPhys})
		}
		if rLog > 0 {
			j.trace.Emit(obs.CodecEvent{Type: obs.EventDecompress, Step: t,
				Codec: j.cdc.Name(), Logical: rLog, Physical: rPhys})
		}
	}

	j.jm.supersteps.Inc()
	j.jm.step.Set(int64(t))
	j.jm.updated.Add(st.Updated)
	j.jm.produced.Add(st.Produced)
	j.jm.spilled.Add(st.Spilled)
	j.jm.netBytes.Add(st.NetBytes)
	j.jm.ioBytes.Add(st.IO.Total())
	j.jm.logBytes.Add(st.LogIO.Total())
	j.jm.physBytes.Add(st.PhysIO.Total())
	j.jm.memPeak.Max(st.MemBytes)
	if stallErr != nil {
		return st, stallErr
	}
	return st, nil
}

func addBreakdown(dst *metrics.IOBreakdown, s metrics.IOBreakdown) {
	dst.Vt += s.Vt
	dst.Et += s.Et
	dst.Ebar += s.Ebar
	dst.Ft += s.Ft
	dst.Vrr += s.Vrr
	dst.MdiskW += s.MdiskW
	dst.MdiskR += s.MdiskR
}

// stepWorker dispatches one worker's superstep by mode.
func (j *job) stepWorker(w *worker, t int, engine, mode Engine) error {
	switch mode {
	case Push, PushM:
		produce := engine != Hybrid || j.produceMode(t) == Push
		return w.stepPush(t, produce)
	case BPull:
		if engine == Hybrid && j.produceMode(t) == Push {
			// Fig. 6 switch superstep b-pull→push: pullRes+update, then
			// pushRes immediately.
			return w.stepBPullThenPush(t)
		}
		return w.stepBPull(t)
	case Pull:
		return w.stepPull(t)
	}
	return fmt.Errorf("core: unknown mode %q", mode)
}

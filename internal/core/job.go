package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	sched   scheduler
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
	bTotal     int64      // B = Σ B_i in messages (0 = unlimited)
	counted    edgeCensus // see census
	censusOnce sync.Once

	prevAgg float64                    // last superstep's reduced aggregator value
	reduce  func(a, b float64) float64 // the program's aggregate reducer; nil if it has none
	rows    []metrics.WorkerStep       // superstep's rows, one per worker, reused
	wins    []stepWindow               // what superstep reads before each worker runs

	pol        recoveryPolicy
	crashFired []bool // per fault-plan crash: already injected
	stallFired []bool // per fault-plan stall: already injected

	// Adopting-placement state (Recovery: "reassign"): the ownership
	// table, per-worker failure counts driving the permanence decision,
	// and the per-unit migration-cost stash that lands in the first
	// post-adoption superstep's stats. All nil under other policies.
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

	// lastStepAggSet records whether the last superstep's aggregate is set,
	// and stalledNext the mode the scheduler chose after it: a stalled
	// superstep's rejoin needs both to fold its rows in and journal it.
	lastStepAggSet bool
	stalledNext    Engine
	// replayFab, while non-nil, redirects the failed worker's superstep
	// sends and pulls through the log-replay fabric. Installed and removed
	// between supersteps only.
	replayFab *replayFabric

	// observability: nil trace drops events (a nil cfg.Metrics hands out
	// instruments that no-op).
	trace *obs.Tracer
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
	sched, err := newScheduler(cfg, engine, prog, pol)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{cfg: cfg, runCtx: ctx, g: g, prog: prog, sched: sched, pol: pol}
	if ag, ok := prog.(algo.Aggregating); ok {
		j.reduce = ag.Reduce
	}
	j.cdc, _ = codec.Lookup(cfg.Codec)
	tr, err := newJobTracer(cfg, prog, engine)
	if err != nil {
		return nil, err
	}
	j.trace = tr
	defer tr.Close()
	if err := j.setupDir(); err != nil {
		return nil, err
	}
	defer func() { j.close(err != nil) }()
	tr.Emit(obs.JobEvent{Type: obs.EventJobStart, JobID: cfg.JobLabel,
		Engine: string(engine), Algorithm: prog.Name(), Workers: cfg.Workers,
		Parallelism: cfg.Parallelism,
		Vertices:    g.NumVertices, Edges: int64(g.NumEdges())})
	res := &metrics.JobResult{
		Engine:      string(engine),
		Algorithm:   prog.Name(),
		Workers:     cfg.Workers,
		Parallelism: cfg.Parallelism,
		Codec:       j.cdc.Name(),
	}
	if err := j.setup(res); err != nil {
		return nil, err
	}
	if err := j.run(res); err != nil {
		if j.faultFS != nil {
			res.DiskFaults = j.faultFS.Stats().Total()
		}
		return nil, err
	}
	res.Finish()
	j.cfg.Metrics.Gauge("core.compression_ratio_milli").Set(int64(res.CompressionRatio * 1000))
	if j.faultFS != nil {
		res.DiskFaults = j.faultFS.Stats().Total()
	}
	vals, err := j.collectValues()
	if err != nil {
		return nil, err
	}
	res.Values = vals
	tr.Emit(obs.JobEvent{Type: obs.EventJobEnd, JobID: cfg.JobLabel,
		Engine: string(engine), Algorithm: prog.Name(), Workers: cfg.Workers,
		Parallelism: cfg.Parallelism,
		Steps:       len(res.Steps), SimSecs: res.SimSeconds,
		NetBytes: res.NetBytes, IOBytes: res.IO.Total(), Restarts: res.Restarts})
	if err := tr.Close(); err != nil {
		return nil, fmt.Errorf("core: trace journal: %w", err)
	}
	return res, nil
}

// collectValues reads the final vertex values back out of the stores.
func (j *job) collectValues() ([]float64, error) {
	vals := make([]float64, j.g.NumVertices)
	// In update-scan chunks, so that the store's lent buffer stays chunk
	// sized rather than growing to the partition.
	const chunk = 4096
	recs := make([]vertexfile.Record, chunk)
	for _, w := range j.workers {
		for lo := w.part.Lo; lo < w.part.Hi; lo += chunk {
			hi := min(lo+chunk, w.part.Hi)
			if err := w.vstore.ReadRange(lo, hi, recs[:hi-lo]); err != nil {
				return nil, err
			}
			for _, r := range recs[:hi-lo] {
				vals[r.ID] = r.Val
			}
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
			j.cfg.Metrics.Counter("core.disk_faults").Inc()
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
			var ind int64
			for _, d := range j.census().inDeg[p.Lo:p.Hi] {
				ind += int64(d)
			}
			out[w] = veblock.BlocksConcatOnly(ind, j.cfg.MsgBuf, p.Len())
		}
		if out[w] < 1 {
			out[w] = 1
		}
	}
	return out
}

// edgeCensus is what the job counts in its one walk over g's edges, the
// first time anything asks: every vertex's in-degree, and per (sending
// worker, destination worker) the out-edges from the one's partition into
// the other's — the most records the sender's outbox is handed for that
// destination in one superstep, since push sends at most one message per
// out-edge.
type edgeCensus struct {
	inDeg []int32
	sends [][]int64 // sends[from][to]
}

// census returns the job's edge census, walking g once, on first use.
// The partitions must be set.
func (j *job) census() *edgeCensus {
	j.censusOnce.Do(func() {
		c := &j.counted
		c.inDeg = make([]int32, j.g.NumVertices)
		c.sends = make([][]int64, len(j.parts))
		for from, p := range j.parts {
			c.sends[from] = make([]int64, len(j.parts))
			for u := p.Lo; u < p.Hi; u++ {
				for _, h := range j.g.OutEdges(u) {
					c.inDeg[h.Dst]++
					c.sends[from][graph.OwnerOf(j.parts, h.Dst)]++
				}
			}
		}
	})
	return &j.counted
}

// setup partitions the graph, builds the stores each engine needs, and
// records the loading cost (Fig. 16) into res.
func (j *job) setup(res *metrics.JobResult) error {
	t := j.cfg.Workers
	j.parts = graph.RangePartition(j.g.NumVertices, t)
	if j.cfg.FaultPlan != nil {
		j.crashFired = make([]bool, len(j.cfg.FaultPlan.Crashes))
		j.stallFired = make([]bool, len(j.cfg.FaultPlan.Stalls))
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
	j.rows, j.wins = make([]metrics.WorkerStep, t), make([]stepWindow, t)
	if j.cfg.MsgBuf > 0 {
		j.bTotal = int64(j.cfg.MsgBuf) * int64(t)
	}

	// The stores are those of every mode the schedule can hold.
	modes := j.sched.emits()
	pushM, pull := slices.Contains(modes, PushM), slices.Contains(modes, Pull)
	pushes := pushM || slices.Contains(modes, Push)
	needVE := slices.Contains(modes, BPull)
	needAdj := pushes || (pull && j.prog.Style() != algo.AlwaysActive)

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
		if pull {
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
		if pushM {
			wk.pickHotSet(j.cfg.MsgBuf)
		}
		wk.initFlags()
		if pushes {
			wk.initInboxes()
		}
		wk.storesBuilt()
		if pull {
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

	j.sched.start(j)
	return nil
}

// run drives the superstep loop, handing every detected worker failure to
// the recovery driver and resuming where it says.
func (j *job) run(res *metrics.JobResult) error {
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
		err := j.runOnce(res, start)
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

func (j *job) runOnce(res *metrics.JobResult, start int) error {
	for t := start; t <= j.cfg.MaxSteps; t++ {
		// Master barrier loop cancellation point: a cancelled context stops
		// the job between supersteps even when no fabric traffic is in
		// flight (e.g. a single-worker run doing pure local compute).
		if err := context.Cause(j.runCtx); err != nil {
			return err
		}
		if w, perm, fired := j.injectCrash(t); fired {
			// The fault detector notices the crashed worker at the barrier.
			j.cfg.Metrics.Counter("core.injected_faults").Inc()
			if j.trace != nil {
				kind := ""
				if perm {
					kind = "permanent-crash"
				}
				j.trace.Emit(obs.FaultEvent{Type: obs.EventFault, Step: t, Worker: w, Kind: kind})
			}
			return &InjectedFailure{Step: t, Worker: w, Permanent: perm}
		}
		st, err := j.superstep(t)
		var stallErr *StalledWorker
		if err != nil && !errors.As(err, &stallErr) {
			return err
		}
		res.Steps = append(res.Steps, st)
		next := j.sched.after(t, st)
		if st.SwitchedFrom != "" {
			j.cfg.Metrics.Counter("core.mode_switches").Inc()
		}
		j.prevAgg = st.Aggregate
		if stallErr != nil {
			// The stalled workers never reached the barrier: journal the
			// fault and hand the incomplete superstep to recovery, which
			// folds the rejoin rows into this step's stats, journals the
			// step and re-applies the halting checks.
			j.stalledNext = next
			j.cfg.Metrics.Counter("core.injected_faults").Inc()
			j.cfg.Metrics.Counter("core.stalled_workers").Add(int64(len(stallErr.Workers)))
			if j.trace != nil {
				for _, w := range stallErr.Workers {
					j.trace.Emit(obs.FaultEvent{Type: obs.EventFault, Step: t,
						Worker: w, Kind: "stall"})
				}
			}
			return stallErr
		}
		j.emitStep(&st, next)
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
	// The pull baseline's dirty resident vertex records must reach the
	// store before final values are read out.
	for _, w := range j.workers {
		if w.vcache != nil {
			if err := w.vcache.flush(); err != nil {
				return err
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

// emitStep journals superstep st and any switch it made; next is the
// decision the scheduler took after it.
func (j *job) emitStep(st *metrics.StepStats, next Engine) {
	if j.trace == nil {
		return
	}
	j.trace.Emit(obs.StepEvent{Type: obs.EventStep, Stats: *st, NextMode: string(next)})
	if st.SwitchedFrom != "" {
		j.trace.Emit(obs.ModeSwitchEvent{Type: obs.EventModeSwitch,
			Step: st.Step, From: st.SwitchedFrom, To: st.Mode})
	}
}

// stepWindow reads a worker's compute counter (with the physical twin),
// message-log counter and fabric traffic around its superstep.
type stepWindow struct {
	io, log ioWindow
	in, out int64
}

// superstep runs one superstep across all workers and folds their rows
// into its stats. A returned *StalledWorker error (and only that error)
// comes with valid stats: the survivors completed the superstep and their
// numbers are real; the stalled workers contributed nothing.
func (j *job) superstep(t int) (metrics.StepStats, error) {
	plan := j.sched.plan()
	mode := plan.modes[t]
	for i, w := range j.workers {
		w.resetStat()
		w.clearStepFlags(t)
		win := &j.wins[i]
		win.io.open(w.ct)
		win.log.open(w.logCt)
		win.in, win.out = j.fabric.Traffic(w.id)
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
			if errs[i] = j.stepWorker(w, t); errs[i] != nil {
				return
			}
			if j.own != nil {
				// Host machine: after its own partition, step the adopted
				// units sequentially in ascending origin order — one machine
				// executes its units serially, and the fixed order keeps the
				// visit sequence deterministic.
				for _, u := range j.own.adoptedBy(w.id) {
					if errs[i] = j.stepWorker(j.workers[u], t); errs[i] != nil {
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
	if t > 1 && mode != plan.modes[t-1] {
		st.SwitchedFrom = string(plan.modes[t-1])
	}
	for i, w := range j.workers {
		r, win := &j.rows[i], &j.wins[i]
		w.mu.Lock()
		*r = w.stat
		w.mu.Unlock()
		r.Step, r.Worker, r.Host, r.Mode = t, w.id, j.own.hostOf(w.id), string(mode)
		r.IO, r.PhysIO = win.io.delta()
		r.LogIO, _ = win.log.delta()
		in, out := j.fabric.Traffic(w.id)
		r.NetIn, r.NetOut = in-win.in, out-win.out

		// A superstep that pushes: spill written for the next one (M_disk).
		ib := w.inboxes[writeParity(t+1)]
		if p := plan.produce(t); ib != nil && (p == Push || p == PushM) {
			r.Parts.MdiskW += ib.Spilled() * comm.MsgWireSize
		}
		r.Spilled = r.Parts.MdiskW / comm.MsgWireSize
		if ib != nil {
			r.MemBytes = max(r.MemBytes, ib.MaxMemBytes())
		}
		if w.ve != nil {
			r.MemBytes += w.ve.MetaMemBytes()
		}
		// A migration since the last superstep lands on the adopted unit's row.
		if j.own != nil {
			pm := j.pendingMig[w.id]
			r.MigrationIO, r.MigrationNetBytes = pm.io, pm.net
			j.pendingMig[w.id] = pendingMig{}
		}

		r.CPUSeconds = r.CPU.Seconds(j.cfg.Profile)
		// Message-log appends cost disk time but stay out of IO (StepStats.LogIO).
		r.DiskSeconds = j.diskSeconds(r.IO.Add(r.LogIO), r.PhysIO)
		r.NetSeconds = j.cfg.Profile.NetSeconds(r.NetIn + r.NetOut)
	}
	j.lastStepAggSet = st.Fold(j.rows, j.reduce, false)
	j.emitRows(j.rows)
	j.finishQt(mode, &st)

	if j.trace != nil {
		// One codec event pair per superstep under every codec, derived
		// from the counter deltas: the write classes are the compress
		// direction, the read classes decompress. Logical bytes include the
		// message log — the codec stores it too. Under the identity codec
		// the physical bytes equal the logical ones.
		lg, ph := st.IO.Add(st.LogIO).Bytes, st.PhysIO.Bytes
		if l := lg[diskio.SeqWrite] + lg[diskio.RandWrite]; l > 0 {
			j.trace.Emit(obs.CodecEvent{Type: obs.EventCompress, Step: t, Codec: j.cdc.Name(),
				Logical: l, Physical: ph[diskio.SeqWrite] + ph[diskio.RandWrite]})
		}
		if l := lg[diskio.SeqRead] + lg[diskio.RandRead]; l > 0 {
			j.trace.Emit(obs.CodecEvent{Type: obs.EventDecompress, Step: t, Codec: j.cdc.Name(),
				Logical: l, Physical: ph[diskio.SeqRead] + ph[diskio.RandRead]})
		}
	}

	reg := j.cfg.Metrics
	reg.Counter("core.supersteps").Inc()
	reg.Gauge("core.superstep").Set(int64(t))
	reg.Counter("core.updated_vertices").Add(st.Updated)
	reg.Counter("core.produced_msgs").Add(st.Produced)
	reg.Counter("core.spilled_msgs").Add(st.Spilled)
	reg.Counter("core.net_bytes").Add(st.NetBytes)
	reg.Counter("core.io_bytes").Add(st.IO.Total())
	reg.Counter("msglog.bytes_logged").Add(st.LogIO.Total())
	reg.Counter("core.phys_bytes").Add(st.PhysIO.Total())
	reg.Gauge("core.mem_bytes_peak").Max(st.MemBytes)
	if stallErr != nil {
		return st, stallErr
	}
	return st, nil
}

// emitRows journals rows, one superstep event each.
func (j *job) emitRows(rows []metrics.WorkerStep) {
	if j.trace == nil {
		return
	}
	for _, r := range rows {
		j.trace.Emit(obs.WorkerStepEvent{Type: obs.EventWorkerStep, WorkerStep: r})
	}
}

// stepWorker runs one worker's superstep t by the job's schedule: the
// pull baseline's own step, or the step that consumes messages per
// modes[t] and produces them per modes[t+1].
func (j *job) stepWorker(w *worker, t int) error {
	plan := j.sched.plan()
	if plan.modes[t] == Pull {
		return w.stepPull(t)
	}
	return w.step(t, plan.modes[t], plan.produce(t))
}

// Package service implements the graph service daemon: a persistent graph
// catalog (internal/catalog) fronted by a bounded multi-job scheduler and
// an HTTP JSON API. Graphs are ingested once; jobs over them reuse the
// pre-built VE-BLOCK and adjacency layouts read-only (zero layout-rebuild
// writes, trace-verified), run concurrently up to an admission-controlled
// limit, and are cancellable mid-superstep through the context plumbing in
// core.RunContext.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/catalog"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// JobState is a job's lifecycle position.
type JobState string

// The five job states. Queued and Running are live; the rest are terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobSpec is what a client submits: which catalog graph to compute over,
// with which algorithm and engine, under which budgets.
type JobSpec struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"` // pagerank | pagerank-converging | sssp | lpa
	Engine    string `json:"engine"`    // push | pushM | pull | b-pull | hybrid
	// MaxSteps caps supersteps (default 30). MsgBuf is the per-worker
	// message-buffer budget in messages (0 = unlimited), bounded by the
	// scheduler's MaxMsgBuf admission rule.
	MaxSteps int `json:"max_steps,omitempty"`
	MsgBuf   int `json:"msg_buf,omitempty"`
	// Parallelism is the per-worker compute parallelism (0 = the core
	// default, NumCPU/Workers). Any value yields identical results.
	Parallelism int `json:"parallelism,omitempty"`
	// Source seeds SSSP (default 0).
	Source int `json:"source,omitempty"`
	// Priority orders the queue: higher first, FIFO within a priority.
	Priority int `json:"priority,omitempty"`
	// TCP routes worker traffic over the loopback TCP fabric.
	TCP bool `json:"tcp,omitempty"`
	// Recovery selects the fault-tolerance policy ("", scratch, resume,
	// checkpoint, confined, reassign) and Retries the number of times the
	// scheduler re-enqueues the job after a non-cancellation failure.
	Recovery string `json:"recovery,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// MaxRestarts is the reassign policy's per-worker failure budget: a
	// worker exceeding it is declared permanently dead and its partition
	// adopted by a survivor (0 = the core default).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// RequestID, when set, makes the submit idempotent: re-submitting a
	// spec carrying a RequestID the scheduler has already accepted returns
	// the existing job instead of enqueuing a duplicate. The client's
	// retry layer only retries submits that carry one, because without it
	// a retried submit whose first response was lost would run twice.
	RequestID string `json:"request_id,omitempty"`
	// CheckpointEvery commits a checkpoint every N supersteps. Beyond the
	// in-run recovery policies, a checkpointing job killed with the daemon
	// resumes from its last committed checkpoint on restart (job WAL).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Codec names the block codec for the job's scratch state (spills,
	// message logs, checkpoints). It must match the graph's ingest codec;
	// an empty value adopts the graph's codec so compressed catalogs work
	// without every client repeating the name.
	Codec string `json:"codec,omitempty"`
	// ChargePhysical makes the cost model's DiskSeconds run on physical
	// (post-codec) bytes instead of the paper's logical bytes.
	ChargePhysical bool `json:"charge_physical,omitempty"`
}

// JobStatus is the externally visible job record (JSON-served as-is).
type JobStatus struct {
	ID       string   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts"`
	// Summary numbers lifted off the JobResult when the job is done; the
	// full result (including final vertex values) is served separately.
	Steps       int     `json:"steps,omitempty"`
	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	NetBytes    int64   `json:"net_bytes,omitempty"`
	IOBytes     int64   `json:"io_bytes,omitempty"`
	CatalogHit  bool    `json:"catalog_hit,omitempty"`
	LayoutBuild int64   `json:"layout_build_bytes,omitempty"`
	LayoutReuse int64   `json:"layout_reused_bytes,omitempty"`
	// Degraded marks a job that survived a permanent worker loss under the
	// reassign policy: the result is exact, but fewer machines computed it.
	Degraded      bool `json:"degraded,omitempty"`
	Reassignments int  `json:"reassignments,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// WorkerHealth is one worker's liveness within a job, as reported by the
// recovery machinery through core's OnRecovery hook.
type WorkerHealth struct {
	Worker int  `json:"worker"`
	Alive  bool `json:"alive"`
	// Host is the worker hosting this worker's partition: itself while
	// alive, the adopting survivor after a reassignment.
	Host    int `json:"host"`
	Crashes int `json:"crashes"`
	Stalls  int `json:"stalls"`
}

// JobWorkers is one job's row in the /workers health view.
type JobWorkers struct {
	JobID         string         `json:"job_id"`
	State         JobState       `json:"state"`
	Degraded      bool           `json:"degraded,omitempty"`
	Reassignments int            `json:"reassignments,omitempty"`
	Workers       []WorkerHealth `json:"workers"`
}

// job is the scheduler's internal record.
type job struct {
	status JobStatus
	seq    int64 // FIFO tiebreak within a priority
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state
	result *metrics.JobResult
	// resume marks a job the WAL replay found in the running state: its
	// next attempt restores the last committed checkpoint from the job's
	// (surviving) work directory instead of starting over.
	resume bool
	// health is the per-worker liveness this job's OnRecovery notices have
	// built up; nil until the first notice (or until the attempt starts
	// for a reassign job). Guarded by the scheduler's mu.
	health        []WorkerHealth
	reassignments int
}

// ensureHealth grows j.health to cover worker w. Callers hold s.mu.
func (j *job) ensureHealth(w int) {
	for len(j.health) <= w {
		j.health = append(j.health, WorkerHealth{
			Worker: len(j.health), Alive: true, Host: len(j.health)})
	}
}

// SchedulerConfig bounds the scheduler (admission control).
type SchedulerConfig struct {
	// MaxQueued bounds the queue; submits beyond it are rejected (default
	// 64). MaxConcurrent bounds simultaneously running jobs (default 2).
	MaxQueued     int
	MaxConcurrent int
	// MaxMsgBuf caps a job's per-worker message-buffer budget; specs
	// asking for more (or for unlimited, MsgBuf <= 0, when a cap is set)
	// are clamped to it. Zero means uncapped.
	MaxMsgBuf int
	// DataDir holds per-job work directories (jobs/<id>); they are removed
	// on every terminal state. Empty uses the OS temp dir per job.
	DataDir string
	// Tracer, when non-nil, receives job_queued / job_cancelled scheduler
	// events. Metrics, when non-nil, receives service.* counters and is
	// shared with every job the scheduler runs.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	// TraceDir, when set, gives every job a JSONL trace journal
	// <TraceDir>/<jobid>.jsonl (the journal the catalog-reuse acceptance
	// check reads).
	TraceDir string
	// WALDir, when set, enables the crash-safe job WAL at
	// <WALDir>/jobs.wal: every submit and state transition is fsynced
	// before it is acknowledged, and NewScheduler replays the log — a
	// killed daemon re-enqueues the jobs it lost and resumes ones that
	// were running from their last committed checkpoint. Empty disables
	// the WAL (jobs die with the process).
	WALDir string
	// ConfigHook, when non-nil, is applied to every job's core.Config just
	// before the run starts. Chaos harnesses and tests inject fault plans
	// through it; production daemons leave it nil.
	ConfigHook func(jobID string, cfg *core.Config)
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	return c
}

// Scheduler admits jobs into a bounded priority queue and runs at most
// MaxConcurrent of them at once over a shared catalog.
type Scheduler struct {
	cfg SchedulerConfig
	cat *catalog.Catalog

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	queue    []*job // ordered: higher priority first, then FIFO
	jobs     map[string]*job
	byReqID  map[string]string // JobSpec.RequestID -> job id (submit dedup)
	order    []string          // all job ids in submit order (for listing)
	running  int
	nextSeq  int64
	draining bool
	killed   bool // Kill() was called: simulate kill -9, no terminal WAL writes
	wg       sync.WaitGroup

	wal   *wal // nil when the WAL is disabled
	walCt diskio.Counter

	mSubmitted *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCancelled *obs.Counter
	mRejected  *obs.Counter
}

// NewScheduler builds a scheduler over cat. When cfg.WALDir is set the
// job WAL is opened and replayed before the first dispatch: jobs a
// previous process left queued are re-enqueued, jobs it left running are
// re-enqueued with resume-from-checkpoint. Call Drain to shut it down.
func NewScheduler(cat *catalog.Catalog, cfg SchedulerConfig) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{cfg: cfg, cat: cat, baseCtx: ctx, stop: stop,
		jobs: make(map[string]*job), byReqID: make(map[string]string)}
	reg := cfg.Metrics
	s.mSubmitted = reg.Counter("service.jobs_submitted")
	s.mDone = reg.Counter("service.jobs_done")
	s.mFailed = reg.Counter("service.jobs_failed")
	s.mCancelled = reg.Counter("service.jobs_cancelled")
	s.mRejected = reg.Counter("service.jobs_rejected")
	reg.RegisterFunc("service.jobs_running", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.running)
	})
	reg.RegisterFunc("service.queue_depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.queue))
	})
	reg.RegisterFunc("service.workers_degraded", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var dead int64
		for _, j := range s.jobs {
			if j.status.State.Terminal() {
				continue
			}
			for _, h := range j.health {
				if !h.Alive {
					dead++
				}
			}
		}
		return dead
	})
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, err
		}
		w, recs, torn, err := openWAL(filepath.Join(cfg.WALDir, "jobs.wal"), &s.walCt)
		if err != nil {
			stop()
			return nil, err
		}
		s.wal = w
		s.replayWAL(recs, torn)
	}
	return s, nil
}

// replayWAL rebuilds the job table from the log and re-admits the jobs a
// previous process never finished. Terminal jobs are kept queryable;
// queued jobs go back into the queue as-is; running jobs go back with
// the resume flag so their next attempt restores the last committed
// checkpoint from the surviving work directory.
func (s *Scheduler) replayWAL(recs []walRecord, torn bool) {
	for _, rec := range recs {
		switch rec.Kind {
		case "submit":
			if rec.Spec == nil {
				continue
			}
			j := &job{seq: rec.Seq, done: make(chan struct{})}
			j.status = JobStatus{ID: rec.ID, Spec: *rec.Spec, State: JobQueued,
				EnqueuedAt: time.Now()}
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			if rec.Spec.RequestID != "" {
				s.byReqID[rec.Spec.RequestID] = rec.ID
			}
			if rec.Seq > s.nextSeq {
				s.nextSeq = rec.Seq
			}
		case "state":
			j, ok := s.jobs[rec.ID]
			if !ok {
				continue
			}
			j.status.State = rec.State
			j.status.Error = rec.Error
			j.status.Attempts = rec.Attempts
		}
	}
	requeued, resumed := 0, 0
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.status.State {
		case JobQueued:
			requeued++
			s.enqueueLocked(j)
		case JobRunning:
			// The process died mid-attempt: the attempt is lost but its
			// work directory (and any committed checkpoint) survives.
			resumed++
			j.status.State = JobQueued
			j.status.Error = ""
			j.resume = true
			s.enqueueLocked(j)
		default:
			close(j.done) // terminal before the crash; keep it queryable
		}
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.WALReplayEvent{Type: obs.EventWALReplay,
			Records: len(recs), Requeued: requeued, Resumed: resumed, Torn: torn})
	}
	s.maybeStartLocked() // no lock needed yet: no goroutines exist before this
}

// progFor maps a spec to its vertex program.
func progFor(spec JobSpec) (algo.Program, error) {
	switch spec.Algorithm {
	case "pagerank":
		return algo.NewPageRank(0.85), nil
	case "pagerank-converging":
		return algo.NewConvergingPageRank(0.85, 1e-3), nil
	case "sssp":
		return algo.NewSSSP(graph.VertexID(spec.Source)), nil
	case "lpa":
		return algo.NewLPA(), nil
	}
	return nil, fmt.Errorf("service: unknown algorithm %q", spec.Algorithm)
}

func engineFor(spec JobSpec) (core.Engine, error) {
	for _, e := range core.Engines {
		if string(e) == spec.Engine {
			return e, nil
		}
	}
	return "", fmt.Errorf("service: unknown engine %q", spec.Engine)
}

// Submit validates spec against the catalog and the admission rules and
// enqueues it. The returned status is a snapshot.
func (s *Scheduler) Submit(spec JobSpec) (JobStatus, error) {
	if _, err := progFor(spec); err != nil {
		return JobStatus{}, err
	}
	if _, err := engineFor(spec); err != nil {
		return JobStatus{}, err
	}
	entry, err := s.cat.Entry(spec.Graph)
	if err != nil {
		return JobStatus{}, err
	}
	if spec.Codec != "" {
		// Reject a codec mismatch at the door rather than as a failed run:
		// the catalog's layouts are framed with the ingest codec and a job
		// cannot re-encode them.
		want, err := codec.Lookup(entry.Codec())
		if err != nil {
			return JobStatus{}, err
		}
		have, err := codec.Lookup(spec.Codec)
		if err != nil {
			return JobStatus{}, err
		}
		if want.ID() != have.ID() {
			return JobStatus{}, fmt.Errorf(
				"service: job codec %q does not match graph %q ingest codec %q",
				spec.Codec, spec.Graph, entry.Codec())
		}
	}
	if s.cfg.MaxMsgBuf > 0 && (spec.MsgBuf <= 0 || spec.MsgBuf > s.cfg.MaxMsgBuf) {
		// Admission's memory budget: unlimited buffers are not available
		// on a shared daemon.
		spec.MsgBuf = s.cfg.MaxMsgBuf
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.RequestID != "" {
		// Idempotent submit: the same request (a client retry after a lost
		// response, say) returns the job it already created.
		if id, ok := s.byReqID[spec.RequestID]; ok {
			return s.jobs[id].status, nil
		}
	}
	if s.draining {
		s.mRejected.Inc()
		return JobStatus{}, fmt.Errorf("service: scheduler is draining")
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		s.mRejected.Inc()
		return JobStatus{}, fmt.Errorf("service: queue full (%d queued)", len(s.queue))
	}
	s.nextSeq++
	j := &job{seq: s.nextSeq, done: make(chan struct{})}
	j.status = JobStatus{
		ID:         fmt.Sprintf("job-%06d", s.nextSeq),
		Spec:       spec,
		State:      JobQueued,
		EnqueuedAt: time.Now(),
	}
	// The submit record is fsynced before the job is acknowledged: once
	// Submit returns, a killed-and-restarted daemon still runs the job. A
	// WAL that cannot take the record rejects the submit — an acknowledged
	// job that evaporates on restart is the one broken promise.
	if s.wal != nil {
		if err := s.wal.append(walRecord{Kind: "submit", ID: j.status.ID,
			Seq: j.seq, Spec: &spec}); err != nil {
			s.nextSeq--
			s.mRejected.Inc()
			return JobStatus{}, err
		}
	}
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	if spec.RequestID != "" {
		s.byReqID[spec.RequestID] = j.status.ID
	}
	s.enqueueLocked(j)
	s.mSubmitted.Inc()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.SchedulerEvent{Type: obs.EventJobQueued,
			JobID: j.status.ID, Queued: len(s.queue)})
	}
	s.maybeStartLocked()
	return j.status, nil
}

// enqueueLocked inserts j in priority order (stable FIFO within one
// priority). Callers hold s.mu.
func (s *Scheduler) enqueueLocked(j *job) {
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.status.Spec.Priority != j.status.Spec.Priority {
			return q.status.Spec.Priority < j.status.Spec.Priority
		}
		return q.seq > j.seq
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
}

// maybeStartLocked dispatches queue heads while capacity remains.
func (s *Scheduler) maybeStartLocked() {
	for !s.draining && s.running < s.cfg.MaxConcurrent && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.startLocked(j)
	}
}

func (s *Scheduler) startLocked(j *job) {
	j.status.State = JobRunning
	j.status.StartedAt = time.Now()
	j.status.Attempts++
	s.walState(j)
	s.running++
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j.cancel = cancel
	s.wg.Add(1)
	go s.runJob(j, ctx)
}

// walState appends j's current state to the WAL (best-effort: a failed
// transition append degrades a restart to re-running the job from its
// previous durable state, never to losing it). Callers hold s.mu.
func (s *Scheduler) walState(j *job) {
	if s.wal == nil || s.killed {
		return
	}
	_ = s.wal.append(walRecord{Kind: "state", ID: j.status.ID,
		State: j.status.State, Error: j.status.Error,
		Attempts: j.status.Attempts})
}

// runJob executes one attempt and applies the terminal (or retry)
// transition. Job work directories are removed on every exit path.
func (s *Scheduler) runJob(j *job, ctx context.Context) {
	defer s.wg.Done()
	res, err := s.execute(j, ctx)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if s.killed {
		// Simulated kill -9: the process is "gone" — no terminal
		// transition is recorded anywhere, which is exactly what the WAL
		// replay must cope with (the job is still "running" on disk).
		return
	}
	switch {
	case err == nil:
		j.result = res
		st := &j.status
		st.State = JobDone
		st.Steps = res.Supersteps()
		st.SimSeconds = res.SimSeconds
		st.NetBytes = res.NetBytes
		st.IOBytes = res.IO.Total()
		st.CatalogHit = res.CatalogHit
		st.LayoutBuild = res.LayoutBuildBytes
		st.LayoutReuse = res.LayoutReusedBytes
		st.Degraded = res.Degraded
		st.Reassignments = res.Reassignments
		s.mDone.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		j.status.State = JobCancelled
		j.status.Error = err.Error()
		s.mCancelled.Inc()
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.SchedulerEvent{Type: obs.EventJobCancelled,
				JobID: j.status.ID, From: string(JobRunning)})
		}
	case j.status.Attempts <= j.status.Spec.Retries && !s.draining:
		// Transient failure budget left: back into the queue it goes. The
		// per-run recovery policies already absorb injected faults; this
		// retry layer covers whole-attempt failures.
		j.status.Error = err.Error()
		j.status.State = JobQueued
		s.walState(j)
		s.enqueueLocked(j)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.SchedulerEvent{Type: obs.EventJobQueued,
				JobID: j.status.ID, Queued: len(s.queue)})
		}
		s.maybeStartLocked()
		return
	default:
		j.status.State = JobFailed
		j.status.Error = err.Error()
		s.mFailed.Inc()
	}
	s.walState(j)
	j.status.FinishedAt = time.Now()
	close(j.done)
	s.maybeStartLocked()
}

// execute runs one attempt of j under ctx.
func (s *Scheduler) execute(j *job, ctx context.Context) (*metrics.JobResult, error) {
	spec := j.status.Spec
	prog, err := progFor(spec)
	if err != nil {
		return nil, err
	}
	engine, err := engineFor(spec)
	if err != nil {
		return nil, err
	}
	entry, err := s.cat.Entry(spec.Graph)
	if err != nil {
		return nil, err
	}
	jobCodec := spec.Codec
	if jobCodec == "" {
		jobCodec = entry.Codec()
	}
	cfg := core.Config{
		Stores:          entry,
		JobLabel:        j.status.ID,
		MaxSteps:        spec.MaxSteps,
		MsgBuf:          spec.MsgBuf,
		Parallelism:     spec.Parallelism,
		TCP:             spec.TCP,
		Recovery:        spec.Recovery,
		MaxRestarts:     spec.MaxRestarts,
		CheckpointEvery: spec.CheckpointEvery,
		Codec:           jobCodec,
		ChargePhysical:  spec.ChargePhysical,
		Metrics:         s.cfg.Metrics,
	}
	// The recovery hook is the /workers health feed: every crash, stall
	// and adoption lands in the job's per-worker liveness table as it
	// happens, so a health query during a long run sees the current
	// cluster shape, not the post-mortem.
	cfg.OnRecovery = func(n core.RecoveryNotice) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.ensureHealth(n.Worker)
		h := &j.health[n.Worker]
		switch n.Kind {
		case "crash":
			h.Crashes++
		case "stall":
			h.Stalls++
		case "reassign":
			j.ensureHealth(n.Host)
			h.Alive = false
			h.Host = n.Host
			j.reassignments++
			j.status.Degraded = true
			j.status.Reassignments = j.reassignments
		}
	}
	if s.cfg.TraceDir != "" {
		cfg.TracePath = filepath.Join(s.cfg.TraceDir,
			fmt.Sprintf("%s-a%d.jsonl", j.status.ID, j.status.Attempts))
	}
	if s.cfg.DataDir != "" {
		cfg.WorkDir = filepath.Join(s.cfg.DataDir, "jobs", j.status.ID)
		if s.wal != nil {
			// Under the WAL a killed attempt's checkpoint files are the
			// restart's source of truth: keep them even when the run fails
			// (core would otherwise clear a failed job's artifacts), and
			// skip the removal below when the failure was a simulated kill.
			cfg.KeepFiles = true
		}
		// A successful run keeps a caller-provided WorkDir; the daemon has
		// no use for finished per-worker stores, so remove the whole job
		// directory once the attempt ends, whatever the outcome — unless
		// the daemon was "killed", in which case nothing runs at all.
		defer func() {
			s.mu.Lock()
			killed := s.killed
			s.mu.Unlock()
			if !killed {
				os.RemoveAll(cfg.WorkDir)
			}
		}()
	}
	s.mu.Lock()
	if j.resume {
		// WAL replay found this job mid-run: restore its last committed
		// checkpoint (if any verifies) instead of starting from scratch.
		// One shot — a retry after a genuine failure starts clean. A
		// checkpoint committed after a reassignment carries the ownership
		// table, so the resumed attempt continues with the shrunken worker
		// set rather than waiting on a machine that is gone.
		j.resume = false
		cfg.ResumeFromCheckpoint = true
	} else {
		// A clean (re)start brings every worker back: the health table
		// describes this attempt's cluster, not a previous one's.
		j.health, j.reassignments = nil, 0
		j.status.Degraded, j.status.Reassignments = false, 0
	}
	if cfg.Reassigns() {
		j.ensureHealth(entry.Workers() - 1)
	}
	s.mu.Unlock()
	if s.cfg.ConfigHook != nil {
		s.cfg.ConfigHook(j.status.ID, &cfg)
	}
	return core.RunContext(ctx, entry.Graph(), prog, cfg, engine)
}

// Kill simulates kill -9 for tests and chaos harnesses: running jobs are
// aborted, no terminal state reaches the WAL or the job table, and the
// job work directories are left exactly as the "crash" found them. A new
// scheduler over the same WALDir/DataDir replays the log and picks the
// lost jobs back up. The scheduler is unusable afterwards.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.killed = true
	s.draining = true
	s.queue = nil
	s.mu.Unlock()
	s.stop() // abort running jobs at their next cancellation point
	s.wg.Wait()
	s.closeWAL()
}

// Cancel cancels a queued or running job. Cancelling a queued job
// finalises it immediately; a running job unwinds at its next fabric
// operation or superstep barrier. Cancelling a terminal job is an error.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	switch j.status.State {
	case JobQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.status.State = JobCancelled
		j.status.Error = context.Canceled.Error()
		j.status.FinishedAt = time.Now()
		s.walState(j)
		close(j.done)
		s.mCancelled.Inc()
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.SchedulerEvent{Type: obs.EventJobCancelled,
				JobID: id, From: string(JobQueued)})
		}
		st := j.status
		s.mu.Unlock()
		return st, nil
	case JobRunning:
		cancel := j.cancel
		s.mu.Unlock()
		cancel(context.Canceled)
		<-j.done
		s.mu.Lock()
		st := j.status
		s.mu.Unlock()
		return st, nil
	default:
		st := j.status
		s.mu.Unlock()
		return st, fmt.Errorf("service: job %q is already %s", id, st.State)
	}
}

// Job reports one job's status snapshot.
func (s *Scheduler) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	return j.status, nil
}

// Result returns a finished job's full result.
func (s *Scheduler) Result(id string) (*metrics.JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no job %q", id)
	}
	if j.status.State != JobDone {
		return nil, fmt.Errorf("service: job %q is %s, not done", id, j.status.State)
	}
	return j.result, nil
}

// Workers reports the per-job worker-health view backing GET /workers:
// one row per job that has a liveness table (reassign-policy jobs, plus
// any job that reported a recovery notice), in submission order.
func (s *Scheduler) Workers() []JobWorkers {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []JobWorkers{}
	for _, id := range s.order {
		j := s.jobs[id]
		if len(j.health) == 0 {
			continue
		}
		out = append(out, JobWorkers{
			JobID:         id,
			State:         j.status.State,
			Degraded:      j.status.Degraded,
			Reassignments: j.status.Reassignments,
			Workers:       append([]WorkerHealth(nil), j.health...),
		})
	}
	return out
}

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Wait blocks until job id reaches a terminal state (or ctx expires).
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status, nil
}

// Drain shuts the scheduler down: submissions are rejected, every queued
// job is finalised as cancelled, and running jobs are given grace to
// finish before being cancelled too. It returns once every job goroutine
// has exited.
func (s *Scheduler) Drain(grace time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	queued := s.queue
	s.queue = nil
	for _, j := range queued {
		j.status.State = JobCancelled
		j.status.Error = "cancelled: service shutting down"
		j.status.FinishedAt = time.Now()
		s.walState(j)
		close(j.done)
		s.mCancelled.Inc()
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.SchedulerEvent{Type: obs.EventJobCancelled,
				JobID: j.status.ID, From: string(JobQueued)})
		}
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	if grace > 0 {
		tm := time.NewTimer(grace)
		select {
		case <-finished:
			tm.Stop()
			s.closeWAL()
			return
		case <-tm.C:
		}
	}
	s.stop() // cancels every running job's context
	<-finished
	s.closeWAL()
}

// closeWAL releases the WAL handle after every job goroutine has exited
// (every acknowledged record is already fsynced; close never loses one).
func (s *Scheduler) closeWAL() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		s.wal.close()
		s.wal = nil
	}
}

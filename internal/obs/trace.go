package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
)

// Tracer writes a structured JSONL trace journal: one JSON object per
// line, each carrying a "type" discriminator. The journal is the live,
// per-worker view of the byte accounting that JobResult only totals —
// every superstep emits one WorkerStepEvent per worker plus one StepEvent
// for the cluster, and mode switches, checkpoint commits, injected faults
// and recoveries get events of their own.
//
// A nil Tracer drops everything, so callers emit unconditionally after one
// nil check. Safe for concurrent Emit from worker goroutines.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	enc *json.Encoder
	n   int64
	err error
}

// NewTracer wraps an io.Writer. The caller owns the writer's lifetime.
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, enc: json.NewEncoder(w)}
}

// OpenTracer creates (truncating) a journal file at path; Close releases
// it.
func OpenTracer(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTracer(f)
	t.c = f
	return t, nil
}

// Emit appends one event line. Encoding or write errors latch: the first
// one is kept, later events are dropped, and Err/Close report it. No-op on
// a nil receiver.
func (t *Tracer) Emit(ev any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Events reports the number of events written so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err reports the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close releases an owned file (OpenTracer) and reports the first latched
// write error. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c != nil {
		if cerr := t.c.Close(); cerr != nil && t.err == nil {
			t.err = cerr
		}
		t.c = nil
	}
	return t.err
}

// Event type discriminators (the "type" field of every journal line).
const (
	EventJobStart   = "job_start"
	EventJobEnd     = "job_end"
	EventWorkerStep = "superstep"   // one per superstep per worker
	EventStep       = "step"        // one per superstep, cluster-aggregated
	EventModeSwitch = "mode_switch" // hybrid executed a switch superstep
	EventCheckpoint = "checkpoint"  // master committed a checkpoint
	EventRestore    = "restore"     // recovery restored a committed checkpoint
	EventFault      = "fault"       // an injected worker crash or stall fired
	EventRecovery   = "recovery"    // the master recovered and restarts the loop

	// Confined-recovery events (the msglog-based per-worker policy).
	EventRestoreFailed = "restore_failed"    // a committed checkpoint failed verification
	EventReplayStep    = "replay_step"       // the failed worker replayed one superstep
	EventReplayServe   = "replay_serve"      // one survivor's share of a replayed superstep
	EventPruneFailed   = "ckpt_prune_failed" // checkpoint or msglog pruning reported errors

	// Partition-reassignment events (the reassign recovery policy).
	EventReassign   = "reassign"    // the master declared a worker permanently dead
	EventAdoptBlock = "adopt_block" // a survivor adopted one of the dead worker's Vblocks

	// Service events (the graph service daemon's catalog and scheduler).
	EventCatalog      = "catalog"       // setup resolved its edge layouts (hit = reused)
	EventJobQueued    = "job_queued"    // the scheduler admitted a job into its queue
	EventJobCancelled = "job_cancelled" // a queued or running job was cancelled

	// Storage-fault and durability events.
	EventDiskFault        = "disk_fault"        // the FaultFS injected one storage fault
	EventCheckpointFailed = "checkpoint_failed" // a checkpoint write failed; the attempt was abandoned
	EventWALReplay        = "wal_replay"        // a restarted scheduler replayed its job WAL

	// Block-codec events, under every codec: the per-superstep
	// logical-vs-physical byte pairs on each direction of the codec.
	EventCompress   = "compress"   // write side: logical bytes in, frame bytes out
	EventDecompress = "decompress" // read side: frame bytes in, logical bytes out
)

// JobEvent opens (job_start) and closes (job_end) a journal.
type JobEvent struct {
	Type        string  `json:"type"`
	JobID       string  `json:"job_id,omitempty"` // service-assigned id (Config.JobLabel)
	Engine      string  `json:"engine"`
	Algorithm   string  `json:"algorithm"`
	Workers     int     `json:"workers"`
	Parallelism int     `json:"parallelism,omitempty"` // per-worker compute goroutines
	Vertices    int     `json:"vertices,omitempty"`
	Edges       int64   `json:"edges,omitempty"`
	Steps       int     `json:"steps,omitempty"`       // job_end: supersteps kept
	SimSecs     float64 `json:"sim_seconds,omitempty"` // job_end
	NetBytes    int64   `json:"net_bytes,omitempty"`   // job_end
	IOBytes     int64   `json:"io_bytes,omitempty"`    // job_end: logical superstep bytes
	Restarts    int     `json:"restarts,omitempty"`    // job_end
}

// WorkerStepEvent is one worker's share of one superstep: the full I/O
// breakdown of Eqs. (7)/(8), the class-tagged disk snapshot delta, and the
// fabric bytes this worker moved. Summing a step's WorkerStepEvents
// reproduces the StepStats the job reports — the cross-check the
// accounting tests pin down.
type WorkerStepEvent struct {
	Type       string              `json:"type"`
	Step       int                 `json:"step"`
	Worker     int                 `json:"worker"`
	Mode       string              `json:"mode"`
	Updated    int64               `json:"updated"`
	Responding int64               `json:"responding"`
	Produced   int64               `json:"produced"`
	Requests   int64               `json:"requests"`
	Spilled    int64               `json:"spilled"` // messages spilled for t+1 (|M_disk|)
	NetIn      int64               `json:"net_in"`
	NetOut     int64               `json:"net_out"`
	IO         diskio.Snapshot     `json:"io"`    // class-tagged disk delta
	Parts      metrics.IOBreakdown `json:"parts"` // Eq. (7)/(8) categories
	MemBytes   int64               `json:"mem_bytes"`
	// LogIO is the confined policy's sender-side message-log writes this
	// worker performed during the superstep. Kept apart from IO so the
	// worker-events-sum-to-StepStats cross-check and the Q^t inputs stay
	// exact: log bytes are policy overhead, not Eq. (7)/(8) traffic.
	LogIO diskio.Snapshot `json:"log_io"`
	// Host names the worker whose goroutine executed this unit's share of
	// the superstep — itself normally, the adopting survivor after a
	// reassignment. The correctness matrix reads it to prove the dead
	// worker never executes after its partition moved.
	Host int `json:"host"`
	// MigrationIO/MigrationNetBytes land an adoption's migration cost on
	// the adopted unit's first post-reassignment superstep, mirroring the
	// StepStats fields so the events-sum-to-stats cross-check covers them.
	MigrationIO       diskio.Snapshot `json:"migration_io,omitempty"`
	MigrationNetBytes int64           `json:"migration_net_bytes,omitempty"`
	// PhysIO is the physical (post-codec) disk delta this worker's
	// superstep traffic moved, the compressed counterpart of IO+LogIO
	// (equal to it charge-for-charge under codec "none"). Summing a
	// step's worker PhysIO reproduces StepStats.PhysIO, the physical leg
	// of the events-sum-to-stats cross-check. Omitted only when zero
	// (in-memory runs).
	PhysIO diskio.Snapshot `json:"phys_io,omitzero"`
}

// StepEvent is the cluster-aggregated superstep record: the same StepStats
// the JobResult keeps, plus hybrid's decision for superstep t+2 (the mode
// the Q^t evaluation just scheduled). Emitted after the hybrid scheduler
// has run, so NextMode reflects the decision this superstep's data made.
type StepEvent struct {
	Type     string            `json:"type"`
	Stats    metrics.StepStats `json:"stats"`
	NextMode string            `json:"next_mode,omitempty"` // hybrid: modes[t+2]
}

// CodecEvent summarises one direction of the block codec's work during
// one superstep: Logical is the uncompressed bytes the engines charged,
// Physical the frame bytes that actually crossed the disk boundary.
// Type "compress" pairs the write classes, "decompress" the read classes.
// Emitted under every codec; under the identity codec "none" Physical
// equals Logical.
type CodecEvent struct {
	Type     string `json:"type"`
	Step     int    `json:"step"`
	Codec    string `json:"codec"`
	Logical  int64  `json:"logical_bytes"`
	Physical int64  `json:"physical_bytes"`
}

// ModeSwitchEvent records a hybrid switch superstep (Fig. 6): superstep
// Step consumed messages per From and produced per To.
type ModeSwitchEvent struct {
	Type string `json:"type"`
	Step int    `json:"step"`
	From string `json:"from"`
	To   string `json:"to"`
}

// CheckpointEvent records one committed checkpoint and its charged cost.
type CheckpointEvent struct {
	Type    string  `json:"type"`
	Step    int     `json:"step"`
	Workers int     `json:"workers"`
	Bytes   int64   `json:"bytes"` // logical checkpoint I/O (snapshot writes + spill re-reads)
	SimSecs float64 `json:"sim_seconds"`
}

// FaultEvent records an injected worker fault the master's detector saw:
// a crash (detected at superstep start) or, with Kind "stall", a hang the
// master declared failed at the superstep's barrier.
type FaultEvent struct {
	Type   string `json:"type"`
	Step   int    `json:"step"`
	Worker int    `json:"worker"`
	Kind   string `json:"kind,omitempty"` // "" = crash, "stall" = hang at the barrier
}

// RecoveryEvent records one recovery: the policy applied, the superstep
// the restarted loop resumes from, and how many supersteps were discarded.
// Confined recoveries discard nothing; they name the worker that replayed
// and how many supersteps it consumed from the survivors' logs.
type RecoveryEvent struct {
	Type        string `json:"type"`
	Policy      string `json:"policy"`
	RestartStep int    `json:"restart_step"`
	Discarded   int    `json:"discarded_steps"`
	Restored    bool   `json:"restored"` // true when a committed checkpoint was used
	Worker      int    `json:"worker,omitempty"`
	Replayed    int    `json:"replayed_steps,omitempty"`
}

// RestoreFailedEvent records a restore that aborted: a committed
// checkpoint existed but failed verification (torn/corrupt snapshot,
// stale or unreadable master record). The bytes read before the abort are
// still charged to RecoverySimSeconds; this event makes the fallback to
// scratch visible in the journal.
type RestoreFailedEvent struct {
	Type   string `json:"type"`
	Step   int    `json:"step"`   // the checkpoint step that failed
	Reason string `json:"reason"` // what the verification rejected
}

// ReplayStepEvent records one superstep the failed worker re-executed
// during confined recovery: its own recompute I/O, the bytes survivors
// served from their logs, and the modelled time charged to
// RecoverySimSeconds. Rejoin marks a stalled worker's final replay step,
// which runs against the live fabric (survivors never finished hearing
// from it) instead of dropping its output.
type ReplayStepEvent struct {
	Type     string          `json:"type"`
	Step     int             `json:"step"`
	Worker   int             `json:"worker"`
	Rejoin   bool            `json:"rejoin,omitempty"`
	IO       diskio.Snapshot `json:"io"`        // failed worker's recompute disk delta
	LogBytes int64           `json:"log_bytes"` // bytes read from survivors' logs
	NetBytes int64           `json:"net_bytes"` // replayed wire bytes (re-pulls + injected pushes)
	SimSecs  float64         `json:"sim_seconds"`
}

// ReplayServeEvent records one survivor's share of one replayed
// superstep: the log bytes it served and its own compute-counter delta —
// which must be zero, the "survivors do no recompute I/O" property the
// confined policy exists to provide.
type ReplayServeEvent struct {
	Type   string          `json:"type"`
	Step   int             `json:"step"`
	Worker int             `json:"worker"`
	Bytes  int64           `json:"bytes"` // log bytes served to the recovering worker
	IO     diskio.Snapshot `json:"io"`    // survivor's compute disk delta (zero)
}

// ReassignEvent records the master permanently retiring a worker under
// the reassign policy: why it was declared dead (a faultplan permanent
// crash, a crash count past MaxRestarts, or repeated stalls), which
// survivor adopted its partition, the ownership epoch the reassignment
// advanced to, and the migration bytes the adoption charged.
type ReassignEvent struct {
	Type    string `json:"type"`
	Step    int    `json:"step"` // detection superstep
	Worker  int    `json:"worker"`
	Host    int    `json:"host"`
	Epoch   int64  `json:"epoch"`
	Reason  string `json:"reason"` // "permanent-crash", "crash-limit", "stall-limit"
	Crashes int    `json:"crashes,omitempty"`
	Stalls  int    `json:"stalls,omitempty"`
	// MigrationIOBytes is the adoption's disk traffic (store rebuilds +
	// snapshot/log reads); MigrationNetBytes the state bytes that logically
	// moved to the host.
	MigrationIOBytes  int64 `json:"migration_io_bytes"`
	MigrationNetBytes int64 `json:"migration_net_bytes"`
}

// AdoptBlockEvent records one global Vblock changing hands during a
// reassignment. One event per adopted block keeps the journal
// block-grain — the ownership table's unit — even though a whole-origin
// adoption moves every block of the dead worker to the same host.
type AdoptBlockEvent struct {
	Type   string `json:"type"`
	Step   int    `json:"step"`
	Block  int    `json:"block"` // global Vblock id
	From   int    `json:"from"`  // dead worker
	To     int    `json:"to"`    // adopting host
	Epoch  int64  `json:"epoch"`
	Vfirst int    `json:"v_first"` // first vertex id of the block
	Vcount int    `json:"v_count"` // vertices in the block
}

// CatalogEvent records how a job's setup resolved its edge layouts: a hit
// opened pre-built stores from a catalog source (ReusedBytes of layout
// served read-only, BuiltBytes zero by construction), a miss built them
// fresh (BuiltBytes of sequential layout writes). The catalog-reuse tests
// cross-check the "zero layout-rebuild writes" claim against this line.
type CatalogEvent struct {
	Type        string `json:"type"`
	Graph       string `json:"graph,omitempty"` // catalog graph name on a hit
	Hit         bool   `json:"hit"`
	BuiltBytes  int64  `json:"built_bytes"`
	ReusedBytes int64  `json:"reused_bytes"`
}

// SchedulerEvent records a scheduler transition for one job: admission into
// the queue (job_queued, with its position) or cancellation
// (job_cancelled, with the state it was cancelled from).
type SchedulerEvent struct {
	Type   string `json:"type"`
	JobID  string `json:"job_id"`
	Queued int    `json:"queued,omitempty"` // queue depth after the transition
	From   string `json:"from,omitempty"`   // job_cancelled: state left behind
}

// DiskFaultEvent records one injected storage fault the diskio fault
// layer fired: which operation on which file, in which access class,
// failed and how ("enospc", "torn-write", "sync-fail", "bit-flip",
// "power-cut"). Bit flips return no error to the reader — this journal
// line is the only direct evidence they happened.
type DiskFaultEvent struct {
	Type  string `json:"type"`
	Op    string `json:"op"`
	Path  string `json:"path"`
	Class string `json:"class,omitempty"`
	Kind  string `json:"kind"`
}

// CheckpointFailedEvent records a checkpoint attempt a storage fault
// aborted. The attempt is abandoned — no commit marker was written, so
// recovery falls back to the previous committed checkpoint — and the
// job continues; only a power cut fails the job outright.
type CheckpointFailedEvent struct {
	Type   string `json:"type"`
	Step   int    `json:"step"`
	Reason string `json:"reason"`
}

// WALReplayEvent records a restarted scheduler's job-WAL replay: how
// many records were read, how many jobs were re-enqueued (queued at the
// kill) or resumed from their last committed checkpoint (running at the
// kill), and whether the log ended in a torn record (discarded — the
// power cut caught an append mid-write).
type WALReplayEvent struct {
	Type     string `json:"type"`
	Records  int    `json:"records"`
	Requeued int    `json:"requeued"`
	Resumed  int    `json:"resumed"`
	Torn     bool   `json:"torn,omitempty"`
}

// PruneFailedEvent records a checkpoint or message-log pruning failure.
// Pruning failures never fail the job — they leave garbage that a later
// restore must not trust, which is why Coordinator.Remove deletes the
// commit marker first — but they must be visible.
type PruneFailedEvent struct {
	Type   string `json:"type"`
	Step   int    `json:"step"`
	Reason string `json:"reason"`
}

// Package core is HybridGraph's contribution: the push, pushM (MOCgraph-
// style), pull (PowerGraph-style vertex-cut baseline) and b-pull engines,
// plus the hybrid engine that switches between push and b-pull adaptively
// using the performance metric Q^t of Eq. (11). All engines run the same
// vertex programs over the same per-worker disk-resident stores and report
// the same per-superstep statistics, so the paper's comparisons fall out
// of one code path.
package core

import (
	"fmt"
	"io"
	"runtime"

	"hybridgraph/internal/adjstore"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/veblock"
)

// StoreSource supplies pre-built, read-only edge stores for a job — the
// persistent graph catalog's hook into the engines. When Config.Stores is
// set, setup opens the source's adjacency and VE-BLOCK files instead of
// rebuilding them, so the one-time ingestion cost is amortised across
// every job over the same graph (the paper's VE-BLOCK is built once at
// load time; see internal/catalog). The source's partitioning geometry is
// authoritative: the job must run with Workers() workers and, for
// block-centric engines, the BlocksPer() Vblock counts the layout was
// built with. Opens are charged to the worker's loading counter; a reused
// store performs zero build writes. The pull baseline's mirror store is
// not part of a source and is still built per job.
type StoreSource interface {
	// GraphName labels the source in traces ("" is fine).
	GraphName() string
	// Workers reports the partition count the stores were built for.
	Workers() int
	// BlocksPer reports the per-worker Vblock counts of the VE layout.
	BlocksPer() []int
	// OpenAdj opens worker w's adjacency store read-only.
	OpenAdj(w int, ct *diskio.Counter, g *graph.Graph, part graph.Partition) (*adjstore.Store, error)
	// OpenVE opens worker w's VE-BLOCK store read-only against layout,
	// which must match the geometry the file was built with.
	OpenVE(w int, ct *diskio.Counter, g *graph.Graph, layout *veblock.Layout) (*veblock.Store, error)
	// Codec names the block codec the stores were encoded with at build
	// time ("" or "none" for the raw layout). A job must declare the same
	// codec in Config.Codec — setup rejects a mismatch rather than
	// misread or silently re-encode the files.
	Codec() string
}

// Engine names one message-handling approach.
type Engine string

// The five engines of the paper's evaluation (Section 6 naming).
const (
	Push   Engine = "push"   // Giraph-style push with disk-spilled messages
	PushM  Engine = "pushM"  // MOCgraph-style push with message online computing
	Pull   Engine = "pull"   // PowerGraph-style vertex-cut pull (disk-extended)
	BPull  Engine = "b-pull" // the paper's block-centric pull
	Hybrid Engine = "hybrid" // adaptive switching between push and b-pull
)

// Engines lists all engines in the paper's plotting order.
var Engines = []Engine{Push, PushM, Pull, BPull, Hybrid}

// Config parameterises one job.
type Config struct {
	// Workers is T, the number of computational nodes (default 5).
	Workers int
	// MsgBuf is B_i, each worker's message buffer capacity in messages;
	// <= 0 means unlimited.
	MsgBuf int
	// InMemory selects the paper's sufficient-memory scenario: all stores
	// are memory-resident and no I/O is charged. Implies unlimited MsgBuf.
	InMemory bool
	// MaxSteps caps the number of supersteps (default 30; Always-Active
	// programs also halt here).
	MaxSteps int
	// Profile sets the hardware cost model (default diskio.HDDLocal).
	Profile diskio.Profile
	// WorkDir is where per-worker files live; empty means a fresh
	// temporary directory removed when the job closes.
	WorkDir string
	// BlocksPerWorker fixes the Vblock count per worker; 0 derives it from
	// Eq. (5)/(6) using MsgBuf.
	BlocksPerWorker int
	// VertexCache is the pull baseline's per-worker resident vertex
	// budget (Table 5's cache sizes); <= 0 means unbounded, i.e. the
	// ext-edge scenario where all vertices fit in memory. Ignored by
	// other engines.
	VertexCache int
	// SendThreshold is the push sender threshold in bytes (default 4 MB).
	SendThreshold int64
	// Parallelism is the per-worker compute parallelism: every engine's
	// update scan shards its vertex range into this many goroutines.
	// Defaults to runtime.NumCPU()/Workers (min 1), so a job saturates the
	// machine without oversubscribing it. Whatever the value, runs are
	// bit-exact: vertex values, Eq. (7)/(8) I/O totals, wire bytes, Q^t
	// inputs and trace events are byte-identical to Parallelism=1 (see
	// DESIGN.md, "Determinism under parallel compute").
	Parallelism int
	// PrefetchDepth is b-pull's block-fetch pipeline depth: how many
	// Vblocks ahead of the one updating are being pulled concurrently
	// (default 1, the paper's pre-pulling; DisablePrepull forces 0). The
	// receiving-buffer memory charge scales with the fetches actually in
	// flight: BR_i·(1+inflight).
	PrefetchDepth int
	// DisableCombine turns off message combining in b-pull even for
	// combinable algorithms (Fig. 18's fairness setting); concatenation
	// stays on.
	DisableCombine bool
	// DisablePrepull turns off b-pull's pre-pulling of the next Vblock
	// (ablation; also the paper's concat-only configuration).
	DisablePrepull bool
	// SenderCombine turns on sender-side combining for the push engines
	// (the paper's modified MOCgraph, pushM+com, Appendix E). Requires a
	// combinable algorithm.
	SenderCombine bool
	// SwitchInterval is hybrid's minimum spacing Δt between switches
	// (default 2, the paper's choice; Section 5.3 argues frequent
	// switching is not cost effective).
	SwitchInterval int
	// VerticesInMemory keeps vertex records memory-resident while edges
	// stay on disk (Table 5 ext-edge).
	VerticesInMemory bool
	// KeepFiles leaves the work directory in place after the job.
	KeepFiles bool
	// TCP routes all worker communication over loopback TCP sockets
	// instead of the in-process fabric, demonstrating that superstep
	// semantics survive a real network hop. Byte accounting is identical
	// either way.
	TCP bool
	// FaultPlan injects a deterministic schedule of faults: worker
	// crashes and stalls at (superstep, worker) points, storage faults,
	// plus — over TCP — seeded transport faults (dropped, delayed,
	// duplicated RPCs) the resilient fabric must absorb. The master's
	// fault detector notices a crash or stall at the barrier and recovers
	// per the Recovery policy. The plan is pure data; each Run tracks its
	// own firing state, so a Config (and its plan) can be reused across
	// runs.
	FaultPlan *faultplan.Plan
	// PhaseAware enables the Appendix G extension: hybrid analyses the
	// history of Q^t signs for periodicity and, when a Multi-Phase-Style
	// cycle is detected, schedules modes from the matching phase of the
	// previous cycle instead of the (poor) persistence forecast.
	PhaseAware bool
	// Async enables asynchronous iteration inside the push engine (the
	// extension the paper flags: "HybridGraph can be extended to support
	// the asynchronous iteration"): after the superstep's scan, each
	// worker keeps draining and applying incoming messages eagerly —
	// local relaxations and cross-worker ping-pong alike — until
	// quiescence, instead of parking them for the next barrier. Sound
	// only for monotone programs with commutative, idempotent-toward-
	// fixpoint updates (SSSP, WCC); it collapses their long convergent
	// tails into a handful of supersteps.
	Async bool
	// Recovery selects the fault-tolerance policy, one point in three
	// choices (DESIGN.md, "Fault tolerance"):
	//
	//	policy       restore source   scope            placement
	//	"scratch"    nothing          all workers      same slot
	//	"resume"     live values      all workers      same slot
	//	"checkpoint" checkpoint       all workers      same slot
	//	"confined"   checkpoint       failed workers   same slot
	//	"reassign"   checkpoint       failed workers   adopting host
	//
	// "scratch" (also "") recomputes from superstep 1 like the paper's
	// prototype; "resume" re-announces the surviving values there, sound
	// only for algorithms whose fixpoint ignores the starting state (WCC,
	// SSSP, converging PageRank). The failed-worker scope logs what every
	// worker sends (internal/msglog) and replays only the failed worker
	// against the survivors' logs; it requires synchronous iteration and
	// an engine other than the pull baseline. "reassign" hands a
	// permanently dead worker's partition — a crash marked Permanent, or
	// more than MaxRestarts failures — to the least-loaded survivor and
	// requires Workers >= 2.
	Recovery string
	// MaxRestarts bounds how many times one worker may crash or stall
	// before the reassign policy declares it permanently dead and hands
	// its partition to a survivor. <= 0 defaults to 1 under "reassign"
	// (the second failure of the same worker triggers adoption). Ignored
	// by the other policies, which restart without limit.
	MaxRestarts int
	// OnRecovery, when non-nil, is invoked synchronously after every
	// recovery action the job takes — once per restored worker with Kind
	// "crash" or "stall", and once per adoption with Kind "reassign" —
	// so a scheduler can track worker health and degradation live. The
	// callback runs on the job's control goroutine; keep it fast.
	OnRecovery func(RecoveryNotice)
	// TraceWriter, when non-nil, receives the structured JSONL superstep
	// trace journal: one obs.WorkerStepEvent per superstep per worker with
	// the full I/O breakdown and net in/out bytes, one obs.StepEvent per
	// superstep with the aggregated StepStats, Q^t inputs and hybrid's
	// scheduling decision, plus events for mode switches, checkpoint
	// commits, injected faults and recoveries. Nil disables tracing at
	// zero cost.
	TraceWriter io.Writer
	// TracePath writes the journal to a file (created or truncated at job
	// start, closed at job end). Ignored when TraceWriter is set.
	TracePath string
	// TraceDir writes the journal to an auto-named file
	// <dir>/<algorithm>_<engine>_<seq>.jsonl inside the directory, which is
	// created if missing. Ignored when TraceWriter or TracePath is set.
	// The harness uses this to export one journal per experiment run.
	TraceDir string
	// Metrics, when non-nil, is the registry the job and every subsystem
	// under it (comm fabrics, message stores, pull caches, checkpointing)
	// report live counters into; snapshot it any time, or serve it via
	// obs.StartDebug. Nil disables metrics at near-zero cost.
	Metrics *obs.Registry
	// Stores, when non-nil, supplies pre-built read-only edge stores (a
	// persistent-catalog hit): setup opens the source's adjacency and
	// VE-BLOCK files instead of rebuilding them, Workers is forced to the
	// source's partition count, and block-centric engines adopt the
	// source's Vblock geometry (BlocksPerWorker/Eq. 5-6 derivation are
	// ignored). LoadIO then contains only the per-job vertex-store init;
	// layout-build writes are zero, which the "catalog" trace event and
	// JobResult.LayoutBuildBytes make checkable.
	Stores StoreSource
	// JobLabel tags this run's trace events (job_start/job_end) and is
	// purely informational — the service daemon sets it to the job id so
	// journals from concurrent jobs attribute cleanly.
	JobLabel string
	// CheckpointEvery, when > 0, makes every worker write an atomic,
	// CRC-verified snapshot of its vertex values, flag vectors and parked
	// inbox messages every that many supersteps; the master commits the
	// checkpoint once all workers have written theirs. Checkpoint bytes
	// are charged to the disk cost model as sequential writes, so the
	// overhead shows up in SimSeconds. Defaults to 5 when Recovery is
	// "checkpoint" and left unset.
	CheckpointEvery int
	// Codec selects the block codec every disk-resident structure the job
	// writes or opens is encoded with: adjacency runs, VE-BLOCK Eblock
	// files, inbox spill segments, recovery message logs and checkpoint
	// snapshots. "" or "none" is the raw layout; "delta" zigzag-delta
	// varint-codes sorted id runs; "lz" is flate. The codec changes only
	// physical bytes: every logical charge — the paper's Eq. (7)/(8)
	// classes, Q^t inputs, LoadIO, checkpoint and replay costs — is
	// byte-identical to codec "none", and final vertex values are
	// bit-exact. Physical (compressed) bytes are reported separately in
	// StepStats.PhysIO / JobResult.PhysIO with the achieved
	// CompressionRatio. When Stores is set, the codec must match the
	// source's ingest codec.
	Codec string
	// ChargePhysical makes the disk-time component of SimSeconds use the
	// physical (compressed) byte deltas instead of the logical ones —
	// "what would this run cost on hardware actually moving compressed
	// blocks". Q^t inputs and all reported logical stats are unaffected;
	// only DiskSeconds switches dimension. No-op under codec "none"
	// (physical == logical there).
	ChargePhysical bool
	// ResumeFromCheckpoint makes the job, before its first superstep, look
	// for a committed checkpoint in WorkDir and resume from it instead of
	// starting at superstep 1. This is how a restarted service daemon
	// continues a job a process kill interrupted: same WorkDir, same
	// configuration, and the run picks up at the last committed checkpoint
	// (or superstep 1 when none committed). No-op when WorkDir holds no
	// committed checkpoint.
	ResumeFromCheckpoint bool
}

// RecoveryNotice describes one recovery action a job took, delivered to
// Config.OnRecovery as it happens. Kind is "crash" or "stall" for an
// in-place restore of a failed worker, or "reassign" when the reassign
// policy handed a permanently-dead worker's partition to a survivor; in
// that case Host is the adopting worker and Epoch the ownership epoch
// the adoption installed (Host is -1 and Epoch 0 otherwise).
type RecoveryNotice struct {
	Kind   string
	Step   int
	Worker int
	Host   int
	Epoch  int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Stores != nil && c.Workers <= 0 {
		c.Workers = c.Stores.Workers()
	}
	if c.Workers <= 0 {
		c.Workers = 5
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 30
	}
	if c.Profile.SNet == 0 {
		c.Profile = diskio.HDDLocal
	}
	if c.SendThreshold <= 0 {
		c.SendThreshold = 4 << 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU() / c.Workers
		if c.Parallelism < 1 {
			c.Parallelism = 1
		}
	}
	if c.PrefetchDepth <= 0 {
		c.PrefetchDepth = 1
	}
	if c.DisablePrepull {
		c.PrefetchDepth = 0
	}
	if c.SwitchInterval <= 0 {
		c.SwitchInterval = 2
	}
	if c.InMemory {
		c.MsgBuf = 0
		c.VerticesInMemory = true
	}
	pol := recoveryPolicies[c.Recovery]
	if pol.source == fromCheckpoint && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if pol.adopt && c.MaxRestarts <= 0 {
		c.MaxRestarts = 1
	}
	return c
}

// validate rejects configurations the engines cannot honour and parses
// the recovery policy.
func (c Config) validate(n int) (recoveryPolicy, error) {
	pol, known := recoveryPolicies[c.Recovery]
	if n <= 0 {
		return pol, fmt.Errorf("core: graph has no vertices")
	}
	if c.Workers > n {
		return pol, fmt.Errorf("core: %d workers for %d vertices", c.Workers, n)
	}
	if c.BlocksPerWorker < 0 {
		return pol, fmt.Errorf("core: negative BlocksPerWorker")
	}
	if c.Parallelism < 0 {
		return pol, fmt.Errorf("core: negative Parallelism")
	}
	if c.PrefetchDepth < 0 {
		return pol, fmt.Errorf("core: negative PrefetchDepth")
	}
	// Parallelism/SendThreshold interaction: the parallel scan partitions
	// the sender threshold across shards (comm.ShardThreshold, floored at
	// one message per shard), so any threshold that can carry a message at
	// all partitions cleanly. A threshold below one wire message cannot —
	// even the sequential outbox would flush every Add — so reject it here
	// rather than let packet accounting silently degenerate.
	if c.SendThreshold > 0 && c.SendThreshold < comm.MsgWireSize {
		return pol, fmt.Errorf("core: SendThreshold %d is smaller than one wire message (%d bytes)",
			c.SendThreshold, comm.MsgWireSize)
	}
	if c.Stores != nil && c.Workers != c.Stores.Workers() {
		return pol, fmt.Errorf("core: %d workers but the store source was built for %d",
			c.Workers, c.Stores.Workers())
	}
	if _, err := codec.Lookup(c.Codec); err != nil {
		return pol, fmt.Errorf("core: %w", err)
	}
	if c.Stores != nil {
		want, err := codec.Lookup(c.Stores.Codec())
		if err != nil {
			return pol, fmt.Errorf("core: store source declares %w", err)
		}
		have, _ := codec.Lookup(c.Codec)
		if want.ID() != have.ID() {
			return pol, fmt.Errorf("core: Config.Codec %q does not match the store source's ingest codec %q",
				have.Name(), want.Name())
		}
	}
	if !known {
		return pol, fmt.Errorf("core: unknown recovery policy %q", c.Recovery)
	}
	if pol.failedOnly && c.Async {
		// Async drains messages eagerly past the barrier, so a survivor's
		// log is not a superstep-consistent record of what the failed
		// worker must re-consume.
		return pol, fmt.Errorf("core: %s recovery requires synchronous iteration (Async is set)", pol.name)
	}
	if pol.adopt && c.Workers < 2 {
		// A single worker has no survivor to adopt its partition.
		return pol, fmt.Errorf("core: %s recovery requires at least 2 workers, have %d", pol.name, c.Workers)
	}
	if c.FaultPlan != nil {
		for _, cr := range c.FaultPlan.Crashes {
			if cr.Worker < 0 || cr.Worker >= c.Workers {
				return pol, fmt.Errorf("core: fault plan crashes worker %d of %d", cr.Worker, c.Workers)
			}
		}
		for _, s := range c.FaultPlan.Stalls {
			if s.Worker < 0 || s.Worker >= c.Workers {
				return pol, fmt.Errorf("core: fault plan stalls worker %d of %d", s.Worker, c.Workers)
			}
		}
	}
	return pol, nil
}

// recoveryPolicy is Config.Recovery parsed into its three choices.
type recoveryPolicy struct {
	name       string        // as journaled ("" reads "scratch")
	source     restoreSource // what a rolled-back worker restarts from
	failedOnly bool          // only the failed workers roll back, replaying the survivors' logs
	adopt      bool          // a permanently dead worker's partition moves to a survivor
}

// restoreSource is where a rolled-back worker's state comes from.
type restoreSource int

const (
	fromNothing    restoreSource = iota // superstep 1's Init recomputes it
	fromLive                            // the values survive; superstep 1 re-announces them
	fromCheckpoint                      // the newest committed checkpoint that verifies
)

var recoveryPolicies = map[string]recoveryPolicy{
	"":           {name: "scratch"},
	"scratch":    {name: "scratch"},
	"resume":     {name: "resume", source: fromLive},
	"checkpoint": {name: "checkpoint", source: fromCheckpoint},
	"confined":   {name: "confined", source: fromCheckpoint, failedOnly: true},
	"reassign":   {name: "reassign", source: fromCheckpoint, failedOnly: true, adopt: true},
}

// Package metrics defines the per-superstep statistics every engine
// reports, the performance metric Q^t of Eq. (11) that drives hybrid's
// switching, and the cost model that converts byte tallies into the
// simulated seconds the experiment harness reports (see DESIGN.md: the
// paper's own evaluation reasons in bytes weighted by the Table 3
// throughputs, which is exactly this conversion).
package metrics

import (
	"fmt"

	"hybridgraph/internal/diskio"
)

// IOBreakdown splits a superstep's disk traffic into the components of
// Eqs. (7) and (8), in bytes.
type IOBreakdown struct {
	Vt     int64 // vertex-value reads+writes of the update scan (both engines)
	Et     int64 // push: adjacency edges read (E^t)
	Ebar   int64 // b-pull: Eblock edge bytes read (Ē^t)
	Ft     int64 // b-pull: fragment auxiliary bytes read (F^t)
	Vrr    int64 // pull/b-pull: random svertex-value reads (V_rr^t)
	MdiskW int64 // push: spilled message bytes written
	MdiskR int64 // push: spilled message bytes read back
}

// Total reports the breakdown's byte sum.
func (b IOBreakdown) Total() int64 {
	return b.Vt + b.Et + b.Ebar + b.Ft + b.Vrr + b.MdiskW + b.MdiskR
}

// Add accumulates o into b.
func (b *IOBreakdown) Add(o IOBreakdown) {
	b.Vt += o.Vt
	b.Et += o.Et
	b.Ebar += o.Ebar
	b.Ft += o.Ft
	b.Vrr += o.Vrr
	b.MdiskW += o.MdiskW
	b.MdiskR += o.MdiskR
}

// CioPush evaluates Eq. (7) for this breakdown.
func (b IOBreakdown) CioPush() int64 { return b.Vt + b.Et + b.MdiskW + b.MdiskR }

// CioBpull evaluates Eq. (8) for this breakdown.
func (b IOBreakdown) CioBpull() int64 { return b.Vt + b.Ebar + b.Ft + b.Vrr }

// WorkerStep is one worker's row of one superstep: what it tallied while
// it ran, the counter deltas the master read around it and the modelled
// seconds they cost. The trace journal records the rows as they are and
// StepStats.Fold sums them, so journal and stats agree by construction.
type WorkerStep struct {
	Step       int             `json:"step"`
	Worker     int             `json:"worker"`
	Mode       string          `json:"mode"`
	Updated    int64           `json:"updated"`
	Responding int64           `json:"responding"`
	Produced   int64           `json:"produced"` // messages generated before concat/combine
	Requests   int64           `json:"requests"`
	Spilled    int64           `json:"spilled"` // messages spilled for t+1 (|M_disk|)
	NetIn      int64           `json:"net_in"`
	NetOut     int64           `json:"net_out"`
	IO         diskio.Snapshot `json:"io"`        // class-tagged disk delta
	Parts      IOBreakdown     `json:"parts"`     // Eq. (7)/(8) categories
	MemBytes   int64           `json:"mem_bytes"` // peak buffer memory
	LogIO      diskio.Snapshot `json:"log_io"`    // message-log writes, kept out of IO (see StepStats)
	// Host is the worker whose goroutine ran this unit: itself, or the
	// survivor that adopted it under reassignment.
	Host              int             `json:"host"`
	MigrationIO       diskio.Snapshot `json:"migration_io,omitempty"` // see StepStats
	MigrationNetBytes int64           `json:"migration_net_bytes,omitempty"`
	PhysIO            diskio.Snapshot `json:"phys_io,omitzero"` // post-codec IO+LogIO; zero in memory

	CPU         CPUWork `json:"cpu"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	DiskSeconds float64 `json:"disk_seconds"`
	NetSeconds  float64 `json:"net_seconds"`
	McoBytes    int64   `json:"mco_bytes"` // hybrid's inputs, as in StepStats
	EstEt       int64   `json:"est_et"`
	EstEbar     int64   `json:"est_ebar"`
	EstFt       int64   `json:"est_ft"`
	EstVrr      int64   `json:"est_vrr"`
	Aggregate   float64 `json:"aggregate"` // reduced contributions, if AggSet
	AggSet      bool    `json:"agg_set"`
}

// Reduce folds aggregator contribution c into the row's aggregate: the
// first contribution sets it, every later one is reduced onto it.
func (r *WorkerStep) Reduce(reduce func(a, b float64) float64, c float64) {
	if !r.AggSet {
		r.Aggregate, r.AggSet = c, true
		return
	}
	r.Aggregate = reduce(r.Aggregate, c)
}

// Fold adds rows into s in row order: counts, bytes, CPU and disk seconds
// add; MemBytes, NetSeconds and SimSeconds take the max, SimSeconds over
// per-host sums of row seconds (a host runs its units serially). The rows'
// aggregates reduce together, then onto s.Aggregate if aggSet says it is
// set; Fold reports whether it is set afterwards.
func (s *StepStats) Fold(rows []WorkerStep, reduce func(a, b float64) float64, aggSet bool) bool {
	var part WorkerStep
	for i := range rows {
		r := &rows[i]
		s.Produced += r.Produced
		s.NetBytes += r.NetOut
		s.Requests += r.Requests
		s.Responding += r.Responding
		s.Updated += r.Updated
		s.Spilled += r.Spilled
		s.IO = s.IO.Add(r.IO)
		s.LogIO = s.LogIO.Add(r.LogIO)
		s.PhysIO = s.PhysIO.Add(r.PhysIO)
		s.Parts.Add(r.Parts)
		s.MemBytes = max(s.MemBytes, r.MemBytes)
		s.MigrationIO = s.MigrationIO.Add(r.MigrationIO)
		s.MigrationNetBytes += r.MigrationNetBytes
		s.CPUSeconds += r.CPUSeconds
		s.DiskSeconds += r.DiskSeconds
		s.NetSeconds = max(s.NetSeconds, r.NetSeconds)
		s.McoBytes += r.McoBytes
		s.EstEt += r.EstEt
		s.EstEbar += r.EstEbar
		s.EstFt += r.EstFt
		s.EstVrr += r.EstVrr
		if r.AggSet {
			part.Reduce(reduce, r.Aggregate)
		}
		var host float64 // r's host runs all its rows serially
		for k := range rows {
			if q := &rows[k]; q.Host == r.Host {
				host += q.CPUSeconds + q.DiskSeconds + q.NetSeconds
			}
		}
		s.SimSeconds = max(s.SimSeconds, host)
	}
	seed := WorkerStep{Aggregate: s.Aggregate, AggSet: aggSet}
	if part.AggSet {
		seed.Reduce(reduce, part.Aggregate)
	}
	s.Aggregate = seed.Aggregate
	return seed.AggSet
}

// StepStats aggregates one superstep across the cluster.
type StepStats struct {
	Step int
	Mode string // engine that executed this superstep ("push", "b-pull", …)

	Produced   int64 // messages generated (M)
	NetBytes   int64 // bytes across the fabric this superstep
	Requests   int64 // pull/gather requests issued
	Responding int64 // vertices whose respond flag was set
	Updated    int64 // vertices whose update()/compute() ran
	Spilled    int64 // messages spilled to disk (push), |M_disk|

	IO       diskio.Snapshot // per-class disk bytes this superstep
	Parts    IOBreakdown
	MemBytes int64 // peak message-buffer + metadata memory across workers

	// LogIO is the confined recovery policy's sender-side message-log
	// writes this superstep (internal/msglog), charged to DiskSeconds but
	// kept out of IO and Parts so the Q^t inputs stay exact: log bytes are
	// policy overhead, not Eq. (7)/(8) traffic.
	LogIO diskio.Snapshot

	// PhysIO is the physical (post-codec) bytes this superstep's disk
	// traffic actually moved, per class: compressed frame writes and reads
	// of every store plus the message log. Under codec "none" it equals
	// IO+LogIO charge-for-charge; under a real codec it shrinks while IO,
	// Parts and every Q^t input stay byte-identical to the uncompressed
	// run. Purely observational unless Config.ChargePhysical redirects
	// DiskSeconds to it.
	PhysIO diskio.Snapshot

	// MigrationIO and MigrationNetBytes land the cost of a partition
	// reassignment that completed just before this superstep ran: the disk
	// traffic of rebuilding the adopted worker's stores from the shared
	// catalog, and the bytes of state that logically moved between
	// machines (snapshot + retained log segments + fetched layout
	// bytes). Kept out of IO/Parts for the same reason as LogIO, and
	// carried by the adopted unit's row.
	MigrationIO       diskio.Snapshot
	MigrationNetBytes int64

	// Cross-mode estimates hybrid gathers while running the other engine
	// (Section 5.3): what push's edge reads would have cost during a
	// b-pull superstep (EstEt), and what b-pull's Eblock scan, fragment
	// aux and svertex reads would have cost during a push superstep.
	EstEt, EstEbar, EstFt, EstVrr int64
	// McoBytes is the measured network savings from concatenation and
	// combining this superstep (b-pull modes only).
	McoBytes int64

	// Aggregate is the globally reduced aggregator value for programs
	// implementing algo.Aggregating (e.g. PageRank's L1 rank delta).
	Aggregate float64

	CPUSeconds   float64 // modelled compute time, summed across workers
	DiskSeconds  float64 // modelled disk time, summed across workers
	NetSeconds   float64 // a.k.a. blocking time: the exchange component
	SimSeconds   float64 // max across hosts of Σ (cpu+disk+net) of their units
	WallSeconds  float64 // measured wall clock of the superstep
	Qt           float64 // Eq. (11) evaluated from this superstep's data
	SwitchedFrom string  // non-empty when this superstep executed a switch
}

// JobResult is the outcome of one engine run.
type JobResult struct {
	Engine      string
	Algorithm   string
	Dataset     string
	Workers     int
	Parallelism int // per-worker compute parallelism the run used
	Steps       []StepStats

	SimSeconds  float64 // Σ per-superstep simulated seconds
	WallSeconds float64
	IO          diskio.Snapshot // Σ superstep I/O (loading excluded)
	NetBytes    int64
	MaxMemBytes int64

	LoadSimSeconds float64 // graph loading cost (Fig. 16), reported separately
	LoadIO         diskio.Snapshot

	// CatalogHit marks a run whose edge layouts (adjacency, VE-BLOCK) were
	// opened read-only from a pre-built store source instead of rebuilt.
	// LayoutBuildBytes is the sequential-write cost of building them fresh
	// (zero on a hit); LayoutReusedBytes the on-disk layout bytes served by
	// the source (zero on a miss).
	CatalogHit        bool
	LayoutBuildBytes  int64
	LayoutReusedBytes int64

	// Restarts counts recoveries after detected worker failures (any
	// policy); RecoverySimSeconds is the simulated time recovery burned:
	// the discarded supersteps plus, under the checkpoint policy, the
	// restore I/O.
	Restarts           int
	RecoverySimSeconds float64
	// ReplayedSupersteps counts supersteps whose work was discarded by a
	// failure and had to be re-executed. Scratch recovery replays
	// everything since superstep 1; checkpoint recovery replays only the
	// steps since the last committed checkpoint; confined recovery replays
	// them on the failed worker alone.
	ReplayedSupersteps int
	// Stalls counts workers the master declared failed at a superstep's
	// barrier (hangs rather than crashes); included in Restarts.
	Stalls int

	// LogIO is the confined policy's total sender-side message-log writes
	// (Σ step LogIO, derived by Finish). Zero under other policies.
	LogIO diskio.Snapshot
	// ReplayIO is the disk traffic recovery forced: restore reads plus, for
	// the global policies, the I/O of the discarded-and-redone supersteps,
	// or, for confined, the failed worker's recompute I/O and the
	// survivors' log-segment reads. Comparing it across policies on the
	// same fault plan is the recovery-cost experiment.
	ReplayIO diskio.Snapshot
	// ReplayNetBytes is the wire traffic confined replay re-delivered to
	// the recovering worker (logged pushes injected plus re-pulled
	// responses).
	ReplayNetBytes int64
	// ConfinedRecoveries counts recoveries handled by the confined policy
	// (single-worker restore + log replay, no global rollback).
	ConfinedRecoveries int

	// Reassignments counts partition adoptions under the reassign policy:
	// permanently-dead workers whose Vblock range a survivor took over.
	// MigrationIO is the disk traffic of rebuilding the adopted stores from
	// the shared catalog (the snapshot and log-slice reads of the follow-up
	// restore+replay stay in ReplayIO, as under confined recovery);
	// MigrationNetBytes the state bytes that logically crossed the network
	// to the adopting host (snapshot + retained log segments + fetched
	// layout bytes). Both are charged directly at adoption time, not
	// derived by Finish, so they survive even when the job halts before
	// another superstep runs. Degraded marks a result produced by fewer
	// live workers than the job started with.
	Reassignments     int
	MigrationIO       diskio.Snapshot
	MigrationNetBytes int64
	Degraded          bool

	// Checkpoints counts committed checkpoints; CheckpointIO is the disk
	// traffic they performed (snapshot writes plus spill re-reads) and
	// CheckpointSimSeconds its modelled cost, included in SimSeconds so
	// checkpoint overhead is charged honestly. Restores counts
	// restorations from a committed checkpoint.
	Checkpoints          int
	CheckpointIO         diskio.Snapshot
	CheckpointSimSeconds float64
	Restores             int

	// DiskFaults counts the storage faults the diskio fault layer injected
	// during the run (ENOSPC, torn writes, failed fsyncs, bit flips; a
	// power cut counts once). CheckpointWriteFailures counts checkpoint
	// attempts a storage fault aborted — abandoned without a commit
	// marker, never failing the job.
	DiskFaults              int
	CheckpointWriteFailures int

	// Codec names the block codec the run stored its disk-resident
	// structures with ("none" for the raw layout). The physical dimension
	// below measures what that codec actually moved; every logical field
	// above is codec-independent by construction.
	Codec string
	// PhysIO is Σ superstep PhysIO (derived by Finish); the companions
	// split the out-of-superstep physical traffic by activity, mirroring
	// LoadIO / CheckpointIO / ReplayIO / MigrationIO.
	PhysIO           diskio.Snapshot
	LoadPhysIO       diskio.Snapshot
	CheckpointPhysIO diskio.Snapshot
	ReplayPhysIO     diskio.Snapshot
	MigrationPhysIO  diskio.Snapshot
	// CompressionRatio is total logical bytes over total physical bytes
	// across every activity (1.0 under codec "none", > 1 when compression
	// bites, 0 when the run moved no physical bytes). Derived by Finish.
	CompressionRatio float64

	// Values holds the final vertex values indexed by vertex id (rank,
	// distance, label or ad, depending on the algorithm).
	Values []float64
}

// Finish derives the job-level aggregates from the recorded steps.
func (r *JobResult) Finish() {
	r.SimSeconds, r.WallSeconds, r.NetBytes, r.MaxMemBytes = 0, 0, 0, 0
	r.IO = diskio.Snapshot{}
	r.LogIO = diskio.Snapshot{}
	r.PhysIO = diskio.Snapshot{}
	for i := range r.Steps {
		s := &r.Steps[i]
		r.SimSeconds += s.SimSeconds
		r.WallSeconds += s.WallSeconds
		r.NetBytes += s.NetBytes
		r.IO = r.IO.Add(s.IO)
		r.LogIO = r.LogIO.Add(s.LogIO)
		r.PhysIO = r.PhysIO.Add(s.PhysIO)
		if s.MemBytes > r.MaxMemBytes {
			r.MaxMemBytes = s.MemBytes
		}
	}
	r.SimSeconds += r.CheckpointSimSeconds
	logical := r.IO.Total() + r.LogIO.Total() + r.LoadIO.Total() +
		r.CheckpointIO.Total() + r.ReplayIO.Total() + r.MigrationIO.Total()
	phys := r.PhysIO.Total() + r.LoadPhysIO.Total() + r.CheckpointPhysIO.Total() +
		r.ReplayPhysIO.Total() + r.MigrationPhysIO.Total()
	if phys > 0 {
		r.CompressionRatio = float64(logical) / float64(phys)
	} else {
		r.CompressionRatio = 0
	}
}

// Supersteps reports the number of supersteps run.
func (r *JobResult) Supersteps() int { return len(r.Steps) }

// String summarises the result in one line.
func (r *JobResult) String() string {
	return fmt.Sprintf("%s/%s/%s: %d steps, sim %.3fs, io %s, net %d B",
		r.Engine, r.Algorithm, r.Dataset, len(r.Steps), r.SimSeconds, r.IO.String(), r.NetBytes)
}

// Qt evaluates the paper's Eq. (11):
//
//	Q^t = Mco·Byte_m/s_net + IO(M_disk)/s_rw − IO(V_rr^t)/s_rr
//	    + (IO(E^t) + IO(M_disk) − IO(Ē^t) − IO(F^t))/s_sr
//
// b-pull is the profitable mode when Q^t ≥ 0. mcoBytes is Mco·Byte_m (the
// extra network bytes push would pay); ioMdisk the one-sided spilled
// message bytes; the rest as in IOBreakdown.
func Qt(p diskio.Profile, mcoBytes, ioMdisk, ioVrr, ioEt, ioEbar, ioFt int64) float64 {
	const mb = 1 << 20
	return float64(mcoBytes)/(p.SNet*mb) +
		float64(ioMdisk)/(p.SRW*mb) -
		float64(ioVrr)/(p.SRR*mb) +
		float64(ioEt+ioMdisk-ioEbar-ioFt)/(p.SSR*mb)
}

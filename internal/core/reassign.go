package core

import (
	"errors"
	"fmt"

	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// Partition-reassignment recovery (Recovery: "reassign"): confined
// recovery handles transient failures in place, but when a worker is
// declared permanently dead — a fault-plan crash marked Permanent, or the
// same worker failing more than Config.MaxRestarts times — there is no
// machine to restart. Instead of failing the job, a least-loaded survivor
// adopts the dead worker's whole Vblock range: the ownership table bumps
// to a new epoch and the fabric rewires the dead slot's address to the
// host (stale-epoch traffic is rejected and re-sent, see comm.Rehomer),
// the host rebuilds the dead partition's stores from the shared catalog,
// restores its last checkpoint snapshot, and replays the supersteps since
// against the survivors' message logs exactly as confined recovery would.
// The adopted unit keeps its origin identity — packets, pulls and
// per-origin combine folds are addressed and ordered as before — so final
// vertex values are byte-identical to a fault-free run; only the physical
// placement changed. Migration traffic is charged to the Migration*
// counters, journaled as reassign/adopt_block events, and the job runs on
// degraded from there.

// ErrNoSurvivors is the typed failure a reassignment raises when a
// permanent loss leaves no live worker to adopt the dead partition.
var ErrNoSurvivors = errors.New("core: no surviving workers to adopt the failed partition")

// pendingMig is one adopted unit's migration cost, stashed until the next
// superstep runs so StepStats.MigrationIO/MigrationNetBytes and the
// unit's WorkerStepEvent land the same numbers (the trace-vs-stats
// cross-check covers migration like everything else). The JobResult
// totals are charged directly at adoption and do not depend on this.
type pendingMig struct {
	set bool
	io  diskio.Snapshot
	net int64
}

// reassignRecoverAll is the reassign policy's recovery driver. It counts
// the failures, decides which failed workers are permanently dead,
// performs the adoptions (including units orphaned because their host
// died), and then runs the shared confined restore+replay for every
// failed unit. permHint marks an injected crash the fault plan declared
// permanent outright.
func (j *job) reassignRecoverAll(engine Engine, res *metrics.JobResult, failed []int,
	failStep, lastDone int, stalled, permHint bool) (halt bool, err error) {

	var perm []int
	for _, fw := range failed {
		if j.own.isDead(fw) {
			// An orphaned unit swept up in its host's stall: it has no
			// machine of its own to count failures against.
			continue
		}
		if stalled {
			j.stallCounts[fw]++
		} else {
			j.crashCounts[fw]++
		}
		permanent := permHint && !stalled
		if j.crashCounts[fw]+j.stallCounts[fw] > j.cfg.MaxRestarts {
			permanent = true
		}
		if permanent {
			perm = append(perm, fw)
		}
	}

	// Expand with orphans: units a dying host was carrying are lost with
	// it and need both a new host and recovery. They are not "dead again" —
	// their ownership entry just re-homes. Every loss is marked before any
	// host is picked so picking sees the complete dead set.
	allFailed := append([]int(nil), failed...)
	if len(perm) > 0 {
		reasons := make(map[int]string, len(perm))
		var units []int
		for _, fw := range perm {
			for _, u := range j.own.adoptedBy(fw) {
				units = appendUnique(units, u)
				allFailed = appendUnique(allFailed, u)
				reasons[u] = "host-lost"
			}
			units = appendUnique(units, fw)
			switch {
			case permHint && !stalled:
				reasons[fw] = "permanent-crash"
			case stalled:
				reasons[fw] = "stall-limit"
			default:
				reasons[fw] = "crash-limit"
			}
			j.own.markDead(fw)
		}
		if len(j.own.survivors()) == 0 {
			return false, fmt.Errorf("%w (workers %v at superstep %d)", ErrNoSurvivors, perm, failStep)
		}
		sortInts(units)
		for _, u := range units {
			if err := j.adoptWorker(u, j.pickHost(), failStep, reasons[u], res); err != nil {
				return false, err
			}
		}
	}
	return j.confinedRecoverAll(engine, res, allFailed, failStep, lastDone, stalled)
}

// pickHost selects the survivor that adopts the next unit: fewest hosted
// units, ties broken by fewest adopted vertices, then lowest id — so
// repeated losses spread across the cluster deterministically.
func (j *job) pickHost() int {
	best, bestUnits, bestVerts := -1, 0, 0
	for _, s := range j.own.survivors() {
		units := len(j.own.adoptedBy(s))
		verts := 0
		for _, a := range j.own.adoptedBy(s) {
			verts += j.parts[a].Len()
		}
		if best < 0 || units < bestUnits || (units == bestUnits && verts < bestVerts) {
			best, bestUnits, bestVerts = s, units, verts
		}
	}
	return best
}

// adoptWorker performs one adoption: ownership and fabric epoch bump,
// store rebuild from the shared catalog under a migration counter, and
// the migration accounting and journal events. The caller follows up with
// confinedRecover, which restores the snapshot and replays the logs — by
// then the unit is fully re-homed, so replay traffic flows through the
// new placement.
func (j *job) adoptWorker(fw, host, step int, reason string, res *metrics.JobResult) error {
	w := j.workers[fw]
	epoch := j.own.adopt(fw, host)
	if rh, ok := j.fabric.(comm.Rehomer); ok {
		rh.AdvanceEpoch()
		rh.Rehome(fw, host)
	}

	// Rebuild the dead machine's stores: vertex records fresh (the
	// snapshot restore overwrites the values), adjacency and VE-BLOCK from
	// the shared catalog source or the graph. The builds are charged to a
	// migration counter — this is the I/O the adoption itself performs —
	// and the stores then return to the unit's compute counter.
	migCt := &diskio.Counter{}
	migPct := &diskio.Counter{}
	migCt.SetPhys(migPct)
	saved := j.loadCts[fw]
	j.loadCts[fw] = migCt
	rebuild := func() error {
		if w.vstore != nil {
			w.vstore.Close()
			w.vstore = nil
		}
		if err := w.buildVertexStore(j.g); err != nil {
			return err
		}
		if w.adj != nil {
			w.adj.Close()
			w.adj = nil
			if err := w.buildAdj(j.g); err != nil {
				return err
			}
		}
		if w.ve != nil {
			w.ve.Close()
			w.ve = nil
			if err := w.buildVE(j.g); err != nil {
				return err
			}
		}
		return nil
	}
	rerr := rebuild()
	j.loadCts[fw] = saved
	if rerr != nil {
		return fmt.Errorf("core: adopting worker %d on %d: %w", fw, host, rerr)
	}
	w.storesBuilt()

	// Migration network bytes: the state that logically crossed machines —
	// the checkpoint snapshot slice, the unit's retained message-log
	// segments, and the layout bytes fetched to rebuild the stores
	// (Cmig = |snapshot| + Σ|seg| + |adj| + |VE|).
	migIO := migCt.Snapshot()
	migPhys := migPct.Snapshot()
	var netBytes int64
	if j.ckptStep > 0 {
		// The snapshot's contribution to Cmig is its logical size: what
		// crosses the wire in the paper's model is the state, not however
		// the local file happens to be framed on disk.
		coord := checkpoint.Coordinator{Dir: j.dir}
		if sz, err := checkpoint.SnapshotLogicalSize(coord.SnapshotPath(j.ckptStep, fw)); err == nil {
			netBytes += sz
		}
	}
	if w.mlog != nil {
		if sb, err := w.mlog.SegmentBytes(); err == nil {
			netBytes += sb
		}
	}
	netBytes += migIO.Bytes[diskio.SeqWrite]

	res.Reassignments++
	res.MigrationIO = res.MigrationIO.Add(migIO)
	res.MigrationPhysIO = res.MigrationPhysIO.Add(migPhys)
	res.MigrationNetBytes += netBytes
	res.Degraded = true
	migDisk := migIO
	if j.cfg.ChargePhysical {
		migDisk = migPhys
	}
	res.RecoverySimSeconds += j.cfg.Profile.DiskSeconds(migDisk) + j.cfg.Profile.NetSeconds(netBytes)
	j.pendingMig[fw] = pendingMig{set: true, io: migIO, net: netBytes}
	j.jm.reassigns.Inc()
	j.jm.migIOBytes.Add(migIO.Total())
	j.jm.migNetBytes.Add(netBytes)
	j.jm.degraded.Set(int64(j.own.deadCount()))

	if j.trace != nil {
		j.trace.Emit(obs.ReassignEvent{Type: obs.EventReassign, Step: step,
			Worker: fw, Host: host, Epoch: epoch, Reason: reason,
			Crashes: j.crashCounts[fw], Stalls: j.stallCounts[fw],
			MigrationIOBytes: migIO.Total(), MigrationNetBytes: netBytes})
		lo, hi := j.layout.WorkerBlocks(fw)
		for b := lo; b < hi; b++ {
			blk := j.layout.Blocks[b]
			j.trace.Emit(obs.AdoptBlockEvent{Type: obs.EventAdoptBlock, Step: step,
				Block: b, From: fw, To: host, Epoch: epoch,
				Vfirst: int(blk.Lo), Vcount: blk.Len()})
		}
	}
	if j.cfg.OnRecovery != nil {
		j.cfg.OnRecovery(RecoveryNotice{Kind: "reassign", Step: step,
			Worker: fw, Host: host, Epoch: epoch})
	}
	return nil
}

// appendUnique appends v unless already present (tiny slices only).
func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// sortInts sorts ascending (insertion sort: recovery-path slices are tiny).
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}

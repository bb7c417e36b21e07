package core

import (
	"errors"
	"fmt"
	"slices"

	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// Adopting placement (Recovery: "reassign"): a worker declared
// permanently dead — a fault-plan crash marked Permanent, or the same
// worker failing more than Config.MaxRestarts times — has no machine to
// restart on, so a least-loaded survivor adopts its whole Vblock range.
// The ownership table bumps to a new epoch, the fabric rewires the dead
// slot's address to the host (stale-epoch traffic is rejected and re-sent,
// see comm.Rehomer), and the host rebuilds the partition's stores from the
// shared catalog before the usual restore and log replay. The adopted unit
// keeps its origin identity, so final vertex values are byte-identical to
// a fault-free run; migration traffic is charged to the Migration*
// counters and journaled as reassign/adopt_block events.

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

// adoptLost is the placement half of the reassign policy. It counts the
// failures, decides which failed workers are permanently dead, and moves
// their partitions — and any units orphaned because their host died — to
// survivors. It returns every unit the restore and replay must recover.
func (j *job) adoptLost(res *metrics.JobResult, f failure) ([]int, error) {
	var perm []int
	for _, fw := range f.workers {
		if j.own.isDead(fw) {
			// An orphaned unit swept up in its host's stall: it has no
			// machine of its own to count failures against.
			continue
		}
		if f.stalled {
			j.stallCounts[fw]++
		} else {
			j.crashCounts[fw]++
		}
		if f.permanent || j.crashCounts[fw]+j.stallCounts[fw] > j.cfg.MaxRestarts {
			perm = append(perm, fw)
		}
	}
	failed := slices.Clone(f.workers)
	if len(perm) == 0 {
		return failed, nil
	}

	// Expand with orphans: units a dying host was carrying are lost with
	// it and need both a new host and recovery. They are not "dead again" —
	// their ownership entry just re-homes. Every loss is marked before any
	// host is picked so picking sees the complete dead set.
	reasons := make(map[int]string, len(perm))
	var units []int
	for _, fw := range perm {
		for _, u := range j.own.adoptedBy(fw) {
			if !slices.Contains(units, u) {
				units = append(units, u)
			}
			if !slices.Contains(failed, u) {
				failed = append(failed, u)
			}
			reasons[u] = "host-lost"
		}
		if !slices.Contains(units, fw) {
			units = append(units, fw)
		}
		switch {
		case f.permanent:
			reasons[fw] = "permanent-crash"
		case f.stalled:
			reasons[fw] = "stall-limit"
		default:
			reasons[fw] = "crash-limit"
		}
		j.own.markDead(fw)
	}
	if len(j.own.survivors()) == 0 {
		return nil, fmt.Errorf("%w (workers %v at superstep %d)", ErrNoSurvivors, perm, f.step)
	}
	slices.Sort(units)
	for _, u := range units {
		if err := j.adoptWorker(u, j.pickHost(), f.step, reasons[u], res); err != nil {
			return nil, err
		}
	}
	return failed, nil
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
// the migration accounting and journal events. The recovery driver then
// restores the snapshot and replays the logs — by then the unit is fully
// re-homed, so replay traffic flows through the new placement.
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
	res.RecoverySimSeconds += j.diskSeconds(migIO, migPhys) + j.cfg.Profile.NetSeconds(netBytes)
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

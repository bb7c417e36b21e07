package core

import (
	"context"
	"fmt"

	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/vertexfile"
)

// Checkpointing (the Pregel/Giraph policy the paper's prototype omits):
// every CheckpointEvery supersteps each worker snapshots its vertex values,
// flag vectors and parked inbox messages; the master commits the checkpoint
// only after every worker's snapshot is durably in place, together with its
// own record of hybrid's mode schedule. Recovery under Recovery:
// "checkpoint" restores the last committed checkpoint — including the
// mode-specific state each engine needs (inboxes for push, flag vectors and
// broadcast columns for b-pull, the switcher's Q^t history for hybrid) —
// and replays only the supersteps since, instead of superstep 1.

// maybeCheckpoint writes and commits a checkpoint after superstep t when
// the interval says so. All checkpoint I/O runs through the workers' disk
// counters and is surfaced as CheckpointIO/CheckpointSimSeconds, so the
// overhead is charged to the same cost model as the computation.
//
// Durability: every snapshot and the master record are fsynced before
// the rename that publishes them (checkpoint.writeFile), every worker's
// message-log segments are fsynced, and only then is the commit marker
// written — so a committed checkpoint never references volatile bytes.
// A storage fault during the attempt abandons it (no marker, recovery
// uses the previous committed checkpoint) and the job continues; only a
// simulated power cut fails the job, because nothing after it can ever
// reach disk.
func (j *job) maybeCheckpoint(t int, res *metrics.JobResult) error {
	if j.cfg.CheckpointEvery <= 0 || t%j.cfg.CheckpointEvery != 0 {
		return nil
	}
	coord := checkpoint.Coordinator{Dir: j.dir}
	befores := make([]diskio.Snapshot, len(j.workers))
	logBefores := make([]diskio.Snapshot, len(j.workers))
	physBefores := make([]diskio.Snapshot, len(j.workers))
	for i, w := range j.workers {
		befores[i] = w.ct.Snapshot()
		physBefores[i] = j.pcts[i].Snapshot()
		if w.logCt != nil {
			logBefores[i] = w.logCt.Snapshot()
		}
	}
	// The master's own record is tiny; charge it to a scratch counter and
	// fold it into the same checkpoint tally. Its physical twin keeps the
	// frame bytes of a compressed master record in the physical tally too.
	mct := &diskio.Counter{}
	mpct := &diskio.Counter{}
	mct.SetPhys(mpct)
	werr := j.writeCheckpoint(coord, t, mct)
	// Bytes moved before a failed attempt are real: charge the delta on
	// every path. The msglog fsyncs ride the workers' log counters and are
	// folded into the same tally (the LogIO side of the sync contract).
	delta := mct.Snapshot()
	physDelta := mpct.Snapshot()
	for i, w := range j.workers {
		delta = delta.Add(w.ct.Snapshot().Sub(befores[i]))
		physDelta = physDelta.Add(j.pcts[i].Snapshot().Sub(physBefores[i]))
		if w.logCt != nil {
			delta = delta.Add(w.logCt.Snapshot().Sub(logBefores[i]))
		}
	}
	res.CheckpointIO = res.CheckpointIO.Add(delta)
	res.CheckpointPhysIO = res.CheckpointPhysIO.Add(physDelta)
	if j.cfg.ChargePhysical {
		res.CheckpointSimSeconds += j.cfg.Profile.DiskSeconds(physDelta)
	} else {
		res.CheckpointSimSeconds += j.cfg.Profile.DiskSeconds(delta)
	}
	if werr != nil {
		if diskio.IsPowerCut(werr) {
			return fmt.Errorf("core: checkpoint at superstep %d: %w", t, werr)
		}
		// Abandon the attempt: no commit marker was written, so recovery
		// still sees the previous committed checkpoint. Remove what partial
		// files made it to disk (marker first, as always).
		res.CheckpointWriteFailures++
		j.jm.ckptFails.Inc()
		if j.trace != nil {
			j.trace.Emit(obs.CheckpointFailedEvent{Type: obs.EventCheckpointFailed,
				Step: t, Reason: werr.Error()})
		}
		coord.Remove(t, len(j.workers))
		return nil
	}
	older := j.ckptPrev
	j.ckptPrev = j.ckptStep
	j.ckptStep = t
	if older > 0 {
		if err := coord.Remove(older, len(j.workers)); err != nil {
			// Pruning is housekeeping: the stale checkpoint's marker went
			// first, so it can never shadow the one just committed. Log the
			// failure and move on rather than failing the job.
			j.jm.pruneFails.Inc()
			if j.trace != nil {
				j.trace.Emit(obs.PruneFailedEvent{Type: obs.EventPruneFailed,
					Step: older, Reason: err.Error()})
			}
		}
	}
	// Two checkpoints are retained (t and the previous one) so a restore
	// that finds t torn by a storage fault can fall back. Message-log
	// segments are therefore pruned only through the *older* retained
	// checkpoint: a fallback restore to it must still replay forward from
	// the survivors' logs, and a pruned segment would silently replay as
	// "nothing sent".
	if through := j.ckptPrev; through > 0 {
		for _, w := range j.workers {
			if w.mlog == nil {
				continue
			}
			n, err := w.mlog.Prune(through)
			j.jm.logPrunes.Add(int64(n))
			if err != nil {
				j.jm.pruneFails.Inc()
				if j.trace != nil {
					j.trace.Emit(obs.PruneFailedEvent{Type: obs.EventPruneFailed,
						Step: through, Reason: "msglog: " + err.Error()})
				}
			}
		}
	}
	res.Checkpoints++
	j.jm.ckptCommits.Inc()
	j.jm.ckptBytes.Add(delta.Total())
	if j.trace != nil {
		j.trace.Emit(obs.CheckpointEvent{Type: obs.EventCheckpoint, Step: t,
			Workers: len(j.workers), Bytes: delta.Total(),
			SimSecs: j.cfg.Profile.DiskSeconds(delta)})
	}
	return nil
}

// writeCheckpoint performs the durable write sequence for the checkpoint
// at t: fsynced worker snapshots, fsynced master record, fsynced message
// logs, then the fsynced commit marker. Any error aborts before the
// marker exists.
func (j *job) writeCheckpoint(coord checkpoint.Coordinator, t int, mct *diskio.Counter) error {
	for _, w := range j.workers {
		snap, err := w.buildSnapshot(t)
		if err != nil {
			return fmt.Errorf("worker %d snapshot: %w", w.id, err)
		}
		if _, err := checkpoint.WriteSnapshot(coord.SnapshotPath(t, w.id), w.ct, snap, j.cdc); err != nil {
			return fmt.Errorf("worker %d snapshot: %w", w.id, err)
		}
	}
	if _, err := checkpoint.WriteMaster(coord.MasterPath(t), mct, j.masterRecord(t), j.cdc); err != nil {
		return fmt.Errorf("master record: %w", err)
	}
	for _, w := range j.workers {
		if w.mlog == nil {
			continue
		}
		if err := w.mlog.Sync(); err != nil {
			return fmt.Errorf("worker %d msglog sync: %w", w.id, err)
		}
	}
	if err := coord.Commit(t, mct); err != nil {
		return fmt.Errorf("commit marker: %w", err)
	}
	return nil
}

// masterRecord captures the job-level state a restore must bring back so
// hybrid's switcher does not re-learn from nothing.
func (j *job) masterRecord(t int) *checkpoint.Master {
	m := &checkpoint.Master{
		Step:       t,
		LastSwitch: j.lastSwitch,
		Rco:        j.rco,
		PrevAgg:    j.prevAgg,
	}
	for _, mode := range j.modes {
		m.Modes = append(m.Modes, string(mode))
	}
	m.QtSigns = append(m.QtSigns, j.qtSigns...)
	if j.own != nil {
		// Reassign policy: the checkpoint records the ownership table so a
		// daemon restart resumes with the shrunken worker set instead of
		// resurrecting dead workers (the WAL resume path re-applies it).
		m.Epoch = j.own.epoch
		m.Dead = append([]bool(nil), j.own.dead...)
		m.Hosts = append([]int(nil), j.own.hosts...)
	}
	return m
}

// restoreFromCheckpoint brings every worker and the master back to the
// newest committed checkpoint that verifies. ok is false when no
// committed checkpoint exists or none verifies — the caller then falls
// back to scratch recovery (the checkpoint files never make recovery
// worse than the prototype's). Because the retention policy keeps two
// committed checkpoints, a newest checkpoint torn by a storage fault
// (failed verification, bad CRC) falls back to the previous one instead
// of all the way to superstep 1; each rejected candidate is journaled
// as restore_failed and removed so it can never shadow a good one
// again. The bytes read are charged to RecoverySimSeconds and ReplayIO
// on every exit path — an aborted restore reads real bytes before it
// gives up.
func (j *job) restoreFromCheckpoint(engine Engine, res *metrics.JobResult) (step int, ok bool, err error) {
	coord := checkpoint.Coordinator{Dir: j.dir}
	candidates := coord.Committed()
	if len(candidates) == 0 {
		return 0, false, nil
	}
	befores := make([]diskio.Snapshot, len(j.workers))
	physBefores := make([]diskio.Snapshot, len(j.workers))
	for i, w := range j.workers {
		befores[i] = w.ct.Snapshot()
		physBefores[i] = j.pcts[i].Snapshot()
	}
	mct := &diskio.Counter{}
	mpct := &diskio.Counter{}
	mct.SetPhys(mpct)
	defer func() {
		delta := mct.Snapshot()
		physDelta := mpct.Snapshot()
		for i, w := range j.workers {
			delta = delta.Add(w.ct.Snapshot().Sub(befores[i]))
			physDelta = physDelta.Add(j.pcts[i].Snapshot().Sub(physBefores[i]))
		}
		if j.cfg.ChargePhysical {
			res.RecoverySimSeconds += j.cfg.Profile.DiskSeconds(physDelta)
		} else {
			res.RecoverySimSeconds += j.cfg.Profile.DiskSeconds(delta)
		}
		res.ReplayIO = res.ReplayIO.Add(delta)
		res.ReplayPhysIO = res.ReplayPhysIO.Add(physDelta)
		if ok {
			j.jm.restores.Inc()
			if j.trace != nil {
				j.trace.Emit(obs.CheckpointEvent{Type: obs.EventRestore, Step: step,
					Workers: len(j.workers), Bytes: delta.Total(),
					SimSecs: j.cfg.Profile.DiskSeconds(delta)})
			}
		}
	}()
	for _, ck := range candidates {
		// Restores read every worker's snapshot; stay responsive to
		// cancellation between candidates rather than grinding through all
		// of them after the caller gave up.
		if cerr := context.Cause(j.runCtx); cerr != nil {
			return 0, false, cerr
		}
		reason, aerr := j.tryRestore(coord, engine, ck, mct)
		if aerr != nil {
			return 0, false, aerr
		}
		if reason == "" {
			j.ckptStep, j.ckptPrev = ck, 0
			for _, c := range candidates {
				if c < ck {
					j.ckptPrev = c
					break
				}
			}
			if j.own != nil && j.own.anyDead() {
				// A resumed job that had already lost workers stays degraded.
				res.Degraded = true
			}
			step, ok = ck, true
			return step, true, nil
		}
		j.jm.restoreFail.Inc()
		if j.trace != nil {
			j.trace.Emit(obs.RestoreFailedEvent{Type: obs.EventRestoreFailed,
				Step: ck, Reason: reason})
		}
		// The marker promised state the files cannot deliver; drop the
		// whole candidate (marker first) before trying an older one.
		coord.Remove(ck, len(j.workers))
	}
	return 0, false, nil
}

// tryRestore attempts one committed checkpoint. A non-empty reason means
// the candidate failed verification (torn or corrupt files — trust the
// CRC over the marker) and the caller may fall back; a non-nil error is
// a hard failure of the live stores the job cannot recover from.
func (j *job) tryRestore(coord checkpoint.Coordinator, engine Engine, step int, mct *diskio.Counter) (string, error) {
	master, merr := checkpoint.ReadMaster(coord.MasterPath(step), mct)
	if merr != nil {
		return "master record: " + merr.Error(), nil
	}
	if master.Step != step {
		return fmt.Sprintf("master record claims step %d, marker says %d", master.Step, step), nil
	}
	if j.own != nil && master.Epoch != 0 {
		if len(master.Dead) != len(j.workers) || len(master.Hosts) != len(j.workers) {
			return fmt.Sprintf("master record ownership table sized %d/%d for %d workers",
				len(master.Dead), len(master.Hosts), len(j.workers)), nil
		}
		// Re-apply the recorded ownership: a resumed job continues with the
		// shrunken worker set — dead slots stay dead, their partitions run
		// on the recorded hosts, and the fabric epoch catches up so any
		// straggler traffic from before the restart is rejected as stale.
		j.own.epoch = master.Epoch
		copy(j.own.dead, master.Dead)
		copy(j.own.hosts, master.Hosts)
		if rh, ok := j.fabric.(comm.Rehomer); ok {
			for w, d := range j.own.dead {
				if d {
					rh.Rehome(w, j.own.hosts[w])
				}
			}
			for rh.Epoch() < j.own.epoch {
				rh.AdvanceEpoch()
			}
		}
		j.jm.degraded.Set(int64(j.own.deadCount()))
		if j.cfg.OnRecovery != nil {
			// Replay the recorded adoptions into the hook so a health view
			// rebuilt after a daemon restart shows the shrunken cluster.
			for w, d := range j.own.dead {
				if d {
					j.cfg.OnRecovery(RecoveryNotice{Kind: "reassign", Step: step,
						Worker: w, Host: j.own.hosts[w], Epoch: j.own.epoch})
				}
			}
		}
	}
	for _, w := range j.workers {
		if cerr := context.Cause(j.runCtx); cerr != nil {
			return "", cerr
		}
		snap, serr := checkpoint.ReadSnapshot(coord.SnapshotPath(step, w.id), w.ct)
		if serr != nil {
			return fmt.Sprintf("worker %d snapshot: %v", w.id, serr), nil
		}
		if snap.Step != step || snap.Worker != w.id || len(snap.Records) != w.part.Len() {
			return fmt.Sprintf("worker %d snapshot claims step %d worker %d with %d records",
				w.id, snap.Step, snap.Worker, len(snap.Records)), nil
		}
		if aerr := w.applySnapshot(snap); aerr != nil {
			return "", aerr
		}
		if engine == Pull {
			w.vcache = newPullCache(w.vstore, j.cfg.VertexCache, j.cfg.Metrics)
		}
	}
	if engine == Hybrid {
		j.modes = j.modes[:0]
		for _, mode := range master.Modes {
			j.modes = append(j.modes, Engine(mode))
		}
		j.qtSigns = append(j.qtSigns[:0], master.QtSigns...)
		j.lastSwitch = master.LastSwitch
		j.rco = master.Rco
	}
	j.prevAgg = master.PrevAgg
	return "", nil
}

// buildSnapshot captures this worker's state after superstep t. The pull
// baseline's cache is flushed first so the vertex store is authoritative
// (checkpointing forces writeback, as it would on a real system).
func (w *worker) buildSnapshot(t int) (*checkpoint.Snapshot, error) {
	if w.vcache != nil {
		if err := w.vcache.flush(); err != nil {
			return nil, err
		}
	}
	s := &checkpoint.Snapshot{Step: t, Worker: w.id}
	s.Records = make([]vertexfile.Record, w.part.Len())
	if err := w.vstore.ReadRange(w.part.Lo, w.part.Hi, s.Records); err != nil {
		return nil, err
	}
	for p := 0; p < 2; p++ {
		s.Respond[p] = append([]uint64(nil), w.respond[p].Words()...)
		s.Active[p] = append([]uint64(nil), w.active[p].Words()...)
		if w.blockRes[p] != nil {
			s.BlockRes[p] = make([]bool, len(w.blockRes[p]))
			for i := range w.blockRes[p] {
				s.BlockRes[p][i] = w.blockRes[p][i].Load()
			}
		}
		if ib := w.inboxes[p]; ib != nil {
			msgs, err := ib.Pending()
			if err != nil {
				return nil, err
			}
			s.Pending[p] = msgs
		}
	}
	return s, nil
}

// applySnapshot restores this worker's state from a verified snapshot:
// vertex records (values plus both broadcast columns), flag vectors by
// parity, and — for the push engines — the parked inbox messages. Re-added
// overflow messages spill again, so restore cost follows the same model
// as the original delivery.
func (w *worker) applySnapshot(s *checkpoint.Snapshot) error {
	if err := w.vstore.WriteRange(w.part.Lo, w.part.Hi, s.Records); err != nil {
		return err
	}
	w.initFlags()
	for p := 0; p < 2; p++ {
		copy(w.respond[p].Words(), s.Respond[p])
		copy(w.active[p].Words(), s.Active[p])
		for i := 0; i < len(w.blockRes[p]) && i < len(s.BlockRes[p]); i++ {
			w.blockRes[p][i].Store(s.BlockRes[p][i])
		}
	}
	if w.inboxes[0] != nil || w.inboxes[1] != nil {
		w.initInboxes()
		for p := 0; p < 2; p++ {
			if w.inboxes[p] == nil {
				continue
			}
			if err := w.inboxes[p].AddFrom(0, s.Pending[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

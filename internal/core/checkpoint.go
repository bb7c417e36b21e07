package core

import (
	"fmt"

	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/vertexfile"
)

// Checkpointing (the Pregel/Giraph policy the paper's prototype omits):
// every CheckpointEvery supersteps each worker snapshots its vertex values,
// flag vectors and parked inbox messages — the mode-specific state each
// engine needs — and the master commits the checkpoint only after every
// snapshot is durably in place, together with its own record of hybrid's
// mode schedule. The restore walk is in recovery.go.

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
	// The tally covers the master record's scratch counter and the msglog
	// fsyncs on the workers' log counters (the LogIO side of the sync
	// contract) alongside the snapshots.
	mct := &diskio.Counter{}
	mct.SetPhys(&diskio.Counter{})
	cts := []*diskio.Counter{mct}
	for _, w := range j.workers {
		cts = append(cts, w.ct)
		if w.logCt != nil {
			cts = append(cts, w.logCt)
		}
	}
	win := openWindow(cts...)
	werr := j.writeCheckpoint(coord, t, mct)
	// Bytes moved before a failed attempt are real: charge the delta on
	// every path.
	delta, physDelta := win.delta()
	res.CheckpointIO = res.CheckpointIO.Add(delta)
	res.CheckpointPhysIO = res.CheckpointPhysIO.Add(physDelta)
	res.CheckpointSimSeconds += j.diskSeconds(delta, physDelta)
	if werr != nil {
		if diskio.IsPowerCut(werr) {
			return fmt.Errorf("core: checkpoint at superstep %d: %w", t, werr)
		}
		// Abandon the attempt: no commit marker was written, so recovery
		// still sees the previous committed checkpoint. Remove what partial
		// files made it to disk (marker first, as always).
		res.CheckpointWriteFailures++
		j.jm.ckptFails.Inc()
		j.trace.Emit(obs.CheckpointFailedEvent{Type: obs.EventCheckpointFailed,
			Step: t, Reason: werr.Error()})
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
			j.trace.Emit(obs.PruneFailedEvent{Type: obs.EventPruneFailed,
				Step: older, Reason: err.Error()})
		}
	}
	// Two checkpoints are retained (t and the previous one) so a restore
	// that finds t torn by a storage fault can fall back. Message-log
	// segments are therefore pruned only through the *older* retained
	// checkpoint: a fallback restore to it must still replay forward from
	// the survivors' logs, and a pruned segment would silently replay as
	// "nothing sent".
	if through := j.ckptPrev; through > 0 {
		j.logFloor = through
		for _, w := range j.workers {
			if w.mlog == nil {
				continue
			}
			n, err := w.mlog.Prune(through)
			j.jm.logPrunes.Add(int64(n))
			if err != nil {
				j.jm.pruneFails.Inc()
				j.trace.Emit(obs.PruneFailedEvent{Type: obs.EventPruneFailed,
					Step: through, Reason: "msglog: " + err.Error()})
			}
		}
	}
	res.Checkpoints++
	j.jm.ckptCommits.Inc()
	j.jm.ckptBytes.Add(delta.Total())
	j.trace.Emit(obs.CheckpointEvent{Type: obs.EventCheckpoint, Step: t,
		Workers: len(j.workers), Bytes: delta.Total(),
		SimSecs: j.cfg.Profile.DiskSeconds(delta)})
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

// applyMaster restores the job-level state a master record carries: the
// ownership table under the reassign policy, hybrid's switcher, and the
// last reduced aggregate.
func (j *job) applyMaster(res *metrics.JobResult, m *checkpoint.Master) {
	if j.own != nil && m.Epoch != 0 {
		// Re-apply the recorded ownership: a resumed job continues with the
		// shrunken worker set — dead slots stay dead and their partitions
		// run on the recorded hosts, each at its own fabric endpoint — and
		// later adoptions number on from the recorded epoch.
		j.own.epoch = m.Epoch
		copy(j.own.dead, m.Dead)
		copy(j.own.hosts, m.Hosts)
		j.jm.degraded.Set(int64(j.own.deadCount()))
		for w, d := range j.own.dead {
			if !d {
				continue
			}
			// A resumed job that had already lost workers stays degraded,
			// and the hook replays the recorded adoptions so a health view
			// rebuilt after a daemon restart shows the shrunken cluster.
			res.Degraded = true
			if j.cfg.OnRecovery != nil {
				j.cfg.OnRecovery(RecoveryNotice{Kind: "reassign", Step: m.Step,
					Worker: w, Host: j.own.hosts[w], Epoch: j.own.epoch})
			}
		}
	}
	if j.engine == Hybrid {
		j.modes = j.modes[:0]
		for _, mode := range m.Modes {
			j.modes = append(j.modes, Engine(mode))
		}
		j.qtSigns = append(j.qtSigns[:0], m.QtSigns...)
		j.lastSwitch = m.LastSwitch
		j.rco = m.Rco
	}
	j.prevAgg = m.PrevAgg
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
// as the original delivery. The pull baseline's cache starts empty.
func (w *worker) applySnapshot(s *checkpoint.Snapshot) error {
	if err := w.vstore.WriteRange(w.part.Lo, w.part.Hi, s.Records); err != nil {
		return err
	}
	w.reset()
	for p := 0; p < 2; p++ {
		copy(w.respond[p].Words(), s.Respond[p])
		copy(w.active[p].Words(), s.Active[p])
		for i := 0; i < len(w.blockRes[p]) && i < len(s.BlockRes[p]); i++ {
			w.blockRes[p][i].Store(s.BlockRes[p][i])
		}
		if w.inboxes[p] != nil {
			if err := w.inboxes[p].AddFrom(0, s.Pending[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// The recovery pipeline: one driver for every policy. A survivor first
// adopts a permanently dead worker's partition when the placement says so
// (reassign.go); under the failed-worker scope each failed worker then
// restores alone and replays the survivors' logs (confined.go); otherwise
// — or when no base the logs still cover is left, since a missing segment
// would read back as "nothing sent" — the whole job rolls back and redoes
// the supersteps since.

// failure is one fault the master detected.
type failure struct {
	workers   []int // the workers declared failed
	step      int   // the superstep it was detected at
	lastDone  int   // the last superstep every survivor completed
	stalled   bool  // a stall at the barrier rather than a crash
	permanent bool  // the fault plan declared the crash unrecoverable
}

// detected reports the failure behind a superstep-loop error; ok is false
// for every error that is not an injected crash or stall.
func detected(err error) (f failure, ok bool) {
	var inj *InjectedFailure
	var stl *StalledWorker
	switch {
	case errors.As(err, &inj):
		// A crash fires before superstep Step runs: Step-1 completed.
		return failure{workers: []int{inj.Worker}, step: inj.Step, lastDone: inj.Step - 1,
			permanent: inj.Permanent}, true
	case errors.As(err, &stl):
		// A stall is detected at the barrier of Step: the survivors
		// completed Step, the stalled workers did not.
		return failure{workers: stl.Workers, step: stl.Step, lastDone: stl.Step, stalled: true}, true
	}
	return failure{}, false
}

// recoverFailure is the recovery driver. It returns the superstep the
// superstep loop resumes at; halt reports that the job is finished (the
// stalled superstep, completed by the rejoin, was the last one).
func (j *job) recoverFailure(res *metrics.JobResult, f failure) (start int, halt bool, err error) {
	res.Restarts++
	if f.stalled {
		res.Stalls += len(f.workers)
	}
	if j.cfg.OnRecovery != nil {
		kind := "crash"
		if f.stalled {
			kind = "stall"
		}
		for _, fw := range f.workers {
			j.cfg.OnRecovery(RecoveryNotice{Kind: kind, Step: f.step, Worker: fw, Host: -1})
		}
	}
	units := f.workers
	if j.pol.adopt {
		if units, err = j.adoptLost(res, f); err != nil {
			return 0, false, err
		}
	}
	j.cfg.Metrics.Counter("core.recoveries").Inc()
	if j.pol.failedOnly {
		ev := obs.RecoveryEvent{Type: obs.EventRecovery, Policy: j.pol.name,
			RestartStep: f.lastDone + 1, Worker: units[0]}
		var rejoin []metrics.WorkerStep
		covered := true
		for _, u := range units {
			w := j.workers[u]
			base, restored, err := j.restore(res, []*worker{w}, false)
			if err != nil {
				return 0, false, err
			}
			if !restored && j.logFloor > 0 {
				// The logs no longer reach back to superstep 1.
				covered = false
				break
			}
			r, err := j.replay(res, w, base, f)
			if err != nil {
				return 0, false, err
			}
			if f.stalled {
				rejoin = append(rejoin, r)
			}
			ev.Restored = ev.Restored || restored
			ev.Replayed += f.lastDone - base
		}
		if covered {
			res.ConfinedRecoveries += len(units)
			j.cfg.Metrics.Counter("core.confined_recoveries").Add(int64(len(units)))
			j.trace.Emit(ev)
			return f.lastDone + 1, j.finishStall(res, f, rejoin), nil
		}
	}
	// A stalled superstep is discarded with the rest below, and journaled
	// as the survivors left it.
	j.finishStall(res, f, nil)

	restart := 1
	if j.pol.source == fromCheckpoint {
		step, ok, err := j.restore(res, j.workers, true)
		if err != nil {
			return 0, false, err
		}
		if ok {
			restart = step + 1
		}
	}
	if restart == 1 {
		j.resetAll()
	}
	if err := j.rollbackLogs(restart - 1); err != nil {
		return 0, false, err
	}
	// The supersteps the restart redoes are discarded; their simulated
	// time and I/O are the price of recovery.
	kept := 0
	for kept < len(res.Steps) && res.Steps[kept].Step < restart {
		kept++
	}
	for _, s := range res.Steps[kept:] {
		res.RecoverySimSeconds += s.SimSeconds
		res.ReplayedSupersteps++
		res.ReplayIO = res.ReplayIO.Add(s.IO)
		res.ReplayPhysIO = res.ReplayPhysIO.Add(s.PhysIO)
		res.ReplayNetBytes += s.NetBytes
	}
	j.trace.Emit(obs.RecoveryEvent{Type: obs.EventRecovery, Policy: j.pol.name,
		RestartStep: restart, Discarded: len(res.Steps) - kept, Restored: restart > 1})
	res.Steps = res.Steps[:kept]
	return restart, false, nil
}

// restore is the restore walk: it brings workers ws back to the newest
// committed checkpoint whose snapshots all verify — with the master record
// when whole, or else only among the checkpoints this run retains from the
// log floor up — and reports ok false when none does. Each rejected
// candidate is journaled as restore_failed and removed, marker first. The
// bytes read are charged on every path: an aborted restore reads real
// bytes before it gives up.
func (j *job) restore(res *metrics.JobResult, ws []*worker, whole bool) (step int, ok bool, err error) {
	coord := checkpoint.Coordinator{Dir: j.dir}
	cands := coord.Committed()
	if !whole {
		cands = slices.DeleteFunc(cands, func(c int) bool { return c > j.ckptStep || c < j.logFloor })
	}
	j.ckptStep, j.ckptPrev = 0, 0
	if len(cands) == 0 {
		return 0, false, nil
	}
	mct := &diskio.Counter{}
	mct.SetPhys(&diskio.Counter{})
	cts := []*diskio.Counter{mct}
	for _, w := range ws {
		cts = append(cts, w.ct)
	}
	win := openWindow(cts...)
	defer func() {
		delta, phys := win.delta()
		j.chargeReplay(res, delta, phys, 0, 0)
		if ok {
			res.Restores++
			j.cfg.Metrics.Counter("checkpoint.restores").Inc()
			j.trace.Emit(obs.CheckpointEvent{Type: obs.EventRestore, Step: step,
				Workers: len(ws), Bytes: delta.Total(), SimSecs: j.cfg.Profile.DiskSeconds(delta)})
		}
	}()
	// attempt restores one candidate. A non-empty reason means it failed
	// verification (torn or corrupt files — trust the CRC over the marker);
	// an error is a hard failure of the live stores.
	attempt := func(ck int) (reason string, err error) {
		var master *checkpoint.Master
		if whole {
			if master, err = checkpoint.ReadMaster(coord.MasterPath(ck), mct); err != nil {
				return "master record: " + err.Error(), nil
			}
			if master.Step != ck {
				return fmt.Sprintf("master record claims step %d, marker says %d", master.Step, ck), nil
			}
			if j.own != nil && master.Epoch != 0 &&
				(len(master.Dead) != len(j.workers) || len(master.Hosts) != len(j.workers)) {
				return fmt.Sprintf("master record ownership table sized %d/%d for %d workers",
					len(master.Dead), len(master.Hosts), len(j.workers)), nil
			}
		}
		for _, w := range ws {
			if err := context.Cause(j.runCtx); err != nil {
				return "", err
			}
			snap, err := checkpoint.ReadSnapshot(coord.SnapshotPath(ck, w.id), w.ct)
			if err != nil {
				return fmt.Sprintf("worker %d snapshot: %v", w.id, err), nil
			}
			if snap.Step != ck || snap.Worker != w.id || len(snap.Records) != w.part.Len() {
				return fmt.Sprintf("worker %d snapshot claims step %d worker %d with %d records",
					w.id, snap.Step, snap.Worker, len(snap.Records)), nil
			}
			if err := w.applySnapshot(snap); err != nil {
				return "", err
			}
		}
		if master != nil {
			j.applyMaster(res, master)
		}
		return "", nil
	}
	for i, ck := range cands {
		// Stay responsive to cancellation between candidates rather than
		// grinding through all of them after the caller gave up.
		if err := context.Cause(j.runCtx); err != nil {
			return 0, false, err
		}
		reason, err := attempt(ck)
		if err != nil {
			return 0, false, err
		}
		if reason == "" {
			j.ckptStep = ck
			if i+1 < len(cands) {
				j.ckptPrev = cands[i+1]
			}
			return ck, true, nil
		}
		j.cfg.Metrics.Counter("checkpoint.restore_failures").Inc()
		j.trace.Emit(obs.RestoreFailedEvent{Type: obs.EventRestoreFailed, Step: ck, Reason: reason})
		coord.Remove(ck, len(j.workers))
	}
	return 0, false, nil
}

// resetAll returns every worker to its freshly loaded state for a restart
// at superstep 1. Vertex values need no reset — superstep 1's Init
// overwrites them — unless the restore source keeps them live, in which
// case superstep 1 re-announces them instead.
func (j *job) resetAll() {
	j.resuming = j.pol.source == fromLive
	for _, w := range j.workers {
		w.reset()
	}
	j.prevAgg = 0
	j.sched.start(j)
}

// rollbackLogs empties every worker's message log after a whole-job
// rollback to base: the redone supersteps log again, and a failed worker
// may from now on replay only from base forward.
func (j *job) rollbackLogs(base int) error {
	for _, w := range j.workers {
		if w.mlog == nil {
			continue
		}
		if _, err := w.mlog.Prune(math.MaxInt); err != nil {
			return fmt.Errorf("core: worker %d message log: %w", w.id, err)
		}
	}
	j.logFloor = base
	return nil
}

// ioWindow reads a set of counters before and after a superstep, a
// recovery or a checkpoint activity: delta is what the activity moved,
// logically and on the counters' physical twins.
type ioWindow struct {
	cts, phys       []*diskio.Counter
	before, pbefore []diskio.Snapshot
}

func openWindow(cts ...*diskio.Counter) *ioWindow {
	w := &ioWindow{}
	w.open(cts...)
	return w
}

// open starts the window over again on the non-nil counters of cts,
// reusing its storage.
func (w *ioWindow) open(cts ...*diskio.Counter) {
	w.cts, w.phys = w.cts[:0], w.phys[:0]
	w.before, w.pbefore = w.before[:0], w.pbefore[:0]
	for _, c := range cts {
		if c == nil {
			continue
		}
		w.cts = append(w.cts, c)
		w.before = append(w.before, c.Snapshot())
		if p := c.Phys(); p != nil && !slices.Contains(w.phys, p) {
			w.phys = append(w.phys, p)
			w.pbefore = append(w.pbefore, p.Snapshot())
		}
	}
}

func (w *ioWindow) delta() (logical, phys diskio.Snapshot) {
	for i, c := range w.cts {
		logical = logical.Add(c.Snapshot().Sub(w.before[i]))
	}
	for i, p := range w.phys {
		phys = phys.Add(p.Snapshot().Sub(w.pbefore[i]))
	}
	return logical, phys
}

// diskSeconds is the modelled disk time of moving logical bytes that took
// phys bytes on the platter. ChargePhysical charges what the platter
// actually moved, the compressed frames; logical stats and Q^t inputs are
// untouched either way.
func (j *job) diskSeconds(logical, phys diskio.Snapshot) float64 {
	if j.cfg.ChargePhysical {
		return j.cfg.Profile.DiskSeconds(phys)
	}
	return j.cfg.Profile.DiskSeconds(logical)
}

// chargeReplay books recovery work that computed for cpu seconds, moved
// logical (phys) bytes on disk and net bytes on the wire, and returns the
// simulated seconds it cost.
func (j *job) chargeReplay(res *metrics.JobResult, logical, phys diskio.Snapshot, net int64, cpu float64) float64 {
	sim := cpu + j.diskSeconds(logical, phys) + j.cfg.Profile.NetSeconds(net)
	res.ReplayIO = res.ReplayIO.Add(logical)
	res.ReplayPhysIO = res.ReplayPhysIO.Add(phys)
	res.ReplayNetBytes += net
	res.RecoverySimSeconds += sim
	return sim
}

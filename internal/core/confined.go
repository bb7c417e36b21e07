package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// Log replay, the failed-worker half of the recovery pipeline (see
// recovery.go): a failed worker re-executes the supersteps since its
// restored base alone, and the survivors serve their sender-side message
// logs (internal/msglog) instead of recomputing — under push the failed
// worker's missing inbox deliveries are injected from the logs, and under
// b-pull its re-pulls read logged responses instead of the survivors' (by
// now advanced) vertex values. The master's in-memory state (hybrid's mode
// schedule, Q^t history, aggregator value) survives a worker failure, so
// recovery cost scales with the failed partition.

// ErrStalledWorker is the sentinel every stall detection matches:
// errors.Is(err, ErrStalledWorker) distinguishes workers the master
// declared failed for hanging from crashes and real errors.
var ErrStalledWorker = errors.New("core: worker stalled at the barrier")

// StalledWorker is the typed error the master raises when workers fail to
// reach the barrier of superstep Step. Unlike a crash — detected before
// the superstep runs — the surviving workers have completed Step, so the
// stalled workers must rejoin a superstep the cluster already finished.
type StalledWorker struct {
	Step    int
	Workers []int
}

// Error implements error.
func (e *StalledWorker) Error() string {
	return fmt.Sprintf("core: workers %v stalled at the barrier of superstep %d", e.Workers, e.Step)
}

// Is makes errors.Is(err, ErrStalledWorker) true for every detection.
func (e *StalledWorker) Is(target error) bool { return target == ErrStalledWorker }

// sendLogger wraps the job fabric for one worker under the failed-worker
// scope: every cross-worker push packet is appended to the worker's
// message log before it reaches the fabric, so transport retries and
// duplicated deliveries can never double-log. Loopback packets are not
// logged — replay regenerates them locally. Pull responses are logged on
// the serving side (RespondPull), where the wire form is known.
type sendLogger struct {
	comm.Fabric
	w *worker
}

// Send implements comm.Fabric.
func (s *sendLogger) Send(p *comm.Packet) error {
	if p.To != s.w.id {
		if err := s.w.mlog.AppendPush(p.Step, p.To, p.Msgs); err != nil {
			return err
		}
	}
	return s.Fabric.Send(p)
}

// replayFabric is the fabric the failed worker's replay supersteps run
// through. In drop mode (crash replay) outgoing packets to survivors are
// discarded — they already received them before the failure — loopback
// packets are delivered locally, and pulls from survivors read their log
// segments instead of invoking Pull-Respond. In rejoin mode (the final
// superstep of a stalled worker, which the survivors finished without
// hearing from it) traffic flows through the live fabric and is logged
// like any normal superstep: the survivors' read-parity flag vectors and
// broadcast columns for that superstep are still intact, so live serving
// is exact.
type replayFabric struct {
	comm.Fabric // the job's fabric
	j           *job
	failed      int
	rejoin      bool

	logCt *diskio.Counter // survivors' log-segment reads

	mu     sync.Mutex
	served map[int]int64 // survivor id -> log bytes served this replay step
	net    int64         // replayed wire bytes this replay step
}

func (rf *replayFabric) resetStep() {
	rf.mu.Lock()
	rf.served = make(map[int]int64)
	rf.net = 0
	rf.mu.Unlock()
}

func (rf *replayFabric) takeStep() (served map[int]int64, net int64) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.served, rf.net
}

// add books replayed traffic: log bytes survivor served and wire bytes.
func (rf *replayFabric) add(survivor int, served, net int64) {
	rf.mu.Lock()
	rf.served[survivor] += served
	rf.net += net
	rf.mu.Unlock()
}

// Send implements comm.Fabric.
func (rf *replayFabric) Send(p *comm.Packet) error {
	w := rf.j.workers[rf.failed]
	if rf.rejoin {
		// The survivors never heard from this worker at the rejoin
		// superstep: send for real, logged like a normal superstep so a
		// later failure of another worker can replay against this log.
		if p.To != rf.failed {
			rf.add(p.To, 0, p.Bytes())
		}
		return w.sendLog.Send(p)
	}
	if p.To == rf.failed {
		// Loopback: the worker's own deliveries are regenerated, not logged.
		return w.DeliverMessages(p)
	}
	// Survivors received this packet before the failure; drop it.
	return nil
}

// PullRequest implements comm.Fabric.
func (rf *replayFabric) PullRequest(from, to, block, step int) ([]comm.Msg, int64, error) {
	if to == rf.failed {
		// Self-pull: recomputed locally from the worker's own restored state.
		return rf.j.workers[to].RespondPull(block, step)
	}
	if rf.rejoin {
		msgs, wire, err := rf.Fabric.PullRequest(from, to, block, step)
		if err != nil {
			return nil, 0, err
		}
		rf.add(to, 0, comm.PullReqSize+wire)
		return msgs, wire, nil
	}
	// Drop mode: the survivor serves its log segment — zero recompute I/O.
	msgs, _, err := rf.j.workers[to].mlog.PullResp(step, block, rf.logCt)
	if err != nil {
		return nil, 0, err
	}
	wire := comm.ConcatSize(msgs)
	rf.add(to, wire, comm.PullReqSize+wire)
	return msgs, wire, nil
}

// finishStall patches a stalled superstep's stats with the failed workers'
// rejoin contributions — the semantic quantities that drive halting
// decisions — and re-applies the halting checks the superstep
// skipped: otherwise a recovered run could iterate past the step a
// fault-free run stops at. It reports whether the job is finished.
func (j *job) finishStall(res *metrics.JobResult, f failure, rej workerStat) bool {
	if !f.stalled {
		return false
	}
	// The loop recorded the stalled superstep's stats before it failed.
	st := &res.Steps[len(res.Steps)-1]
	st.Updated += rej.updated
	st.Responding += rej.responding
	st.Produced += rej.produced
	aggProg, aggregating := j.prog.(algo.Aggregating)
	if rej.aggSet {
		if j.lastStepAggSet {
			st.Aggregate = aggProg.Reduce(st.Aggregate, rej.agg)
		} else {
			st.Aggregate = rej.agg
		}
	}
	j.prevAgg = st.Aggregate
	return st.Responding == 0 || (aggregating && f.step > 1 && aggProg.Converged(st.Aggregate))
}

// replay brings failed worker w from checkpoint base (0: its freshly
// loaded state) up to f.lastDone alone, behind the replay fabric, then
// parks the messages the survivors sent it during f.lastDone for the
// superstep the resumed loop runs next, and returns the stats of a
// stalled worker's rejoin superstep. Nothing is discarded: the survivors
// never roll back.
func (j *job) replay(res *metrics.JobResult, w *worker, base int, f failure) (workerStat, error) {
	if base == 0 {
		// Superstep 1's Init overwrites the values.
		w.reset()
	}
	rf := &replayFabric{Fabric: j.fabric, j: j, failed: w.id, logCt: &diskio.Counter{},
		served: map[int]int64{}}
	// The survivors' log-segment reads get their own physical twin so the
	// frame bytes of a compressed msglog land in ReplayPhysIO.
	rf.logCt.SetPhys(&diskio.Counter{})
	j.replayFab = rf
	defer func() { j.replayFab = nil }()

	var rej workerStat
	for u := base + 1; u <= f.lastDone; u++ {
		// Replay can span many supersteps; honour cancellation between them
		// so an abort during recovery returns promptly with the context's
		// cause instead of replaying to completion first.
		if err := context.Cause(j.runCtx); err != nil {
			return workerStat{}, err
		}
		rf.rejoin = f.stalled && u == f.lastDone
		r, err := j.replayStep(w, u, base, rf, res)
		if err != nil {
			return workerStat{}, err
		}
		if rf.rejoin {
			rej = r
		}
	}
	if f.lastDone > base {
		rf.rejoin = false
		rf.resetStep()
		win := openWindow(w.ct, rf.logCt)
		if err := j.injectLogged(w, f.lastDone, rf); err != nil {
			return workerStat{}, err
		}
		logical, phys := win.delta()
		_, net := rf.takeStep()
		j.chargeReplay(res, logical, phys, net, 0)
	}
	return rej, nil
}

// replayStep re-executes superstep u on the failed worker alone, behind
// the replay fabric. Messages the survivors pushed to it during u-1 are
// injected from their logs first (unless u-1 is the checkpoint step,
// whose deliveries the snapshot already parked).
func (j *job) replayStep(w *worker, u, base int, rf *replayFabric, res *metrics.JobResult) (workerStat, error) {
	rf.resetStep()
	own, logs := openWindow(w.ct), openWindow(rf.logCt)
	logBefore := w.logCt.Snapshot()
	survBefore := make([]diskio.Snapshot, len(j.workers))
	for i, sv := range j.workers {
		if i != w.id {
			survBefore[i] = sv.ct.Snapshot()
		}
	}
	w.resetStat()
	w.clearStepFlags(u)
	if u-1 > base {
		if err := j.injectLogged(w, u-1, rf); err != nil {
			return workerStat{}, err
		}
	}
	mode := j.engine
	if j.engine == Hybrid {
		mode = j.modes[u]
	}
	if err := j.stepWorker(w, u, j.engine, mode); err != nil {
		return workerStat{}, err
	}

	d, pd := own.delta()
	logD, lpd := logs.delta()
	if rf.rejoin {
		// The rejoin finishes the stalled superstep, whose stats the loop has
		// recorded: what it logs is that superstep's LogIO. Its physical
		// bytes are on the worker's twin, inside pd.
		st := &res.Steps[len(res.Steps)-1]
		st.LogIO = st.LogIO.Add(w.logCt.Snapshot().Sub(logBefore))
	}
	served, net := rf.takeStep()
	w.mu.Lock()
	stat := w.stat
	w.mu.Unlock()
	simSecs := j.chargeReplay(res, d.Add(logD), pd.Add(lpd), net, stat.cpu.Seconds(j.cfg.Profile))
	res.ReplayedSupersteps++
	j.jm.replayBytes.Add(d.Total() + logD.Total())
	j.jm.replaySteps.Inc()
	if j.trace != nil {
		j.trace.Emit(obs.ReplayStepEvent{Type: obs.EventReplayStep, Step: u,
			Worker: w.id, Rejoin: rf.rejoin, IO: d, LogBytes: logD.Total(),
			NetBytes: net, SimSecs: simSecs})
		for i, sv := range j.workers {
			if i == w.id {
				continue
			}
			// One line per survivor: the log bytes it served and its own
			// compute-counter delta — the "zero recompute I/O" assertion.
			j.trace.Emit(obs.ReplayServeEvent{Type: obs.EventReplayServe, Step: u,
				Worker: i, Bytes: served[i], IO: sv.ct.Snapshot().Sub(survBefore[i])})
		}
	}
	return stat, nil
}

// injectLogged parks the messages every survivor pushed to w during
// superstep step into w's inbox for step+1, reading them back from the
// survivors' logs. Log reads are charged to the replay fabric's counter;
// the re-delivered bytes count as replayed network traffic.
func (j *job) injectLogged(w *worker, step int, rf *replayFabric) error {
	for _, sv := range j.workers {
		if sv.id == w.id {
			continue
		}
		msgs, err := sv.mlog.PushTo(step, w.id, rf.logCt)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			continue
		}
		if err := w.DeliverMessages(&comm.Packet{From: sv.id, To: w.id, Step: step, Msgs: msgs}); err != nil {
			return err
		}
		wire := int64(len(msgs)) * comm.MsgWireSize
		rf.add(sv.id, wire, wire)
	}
	return nil
}

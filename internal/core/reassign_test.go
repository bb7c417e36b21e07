package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// TestReassignMatrix is the tentpole acceptance matrix: killing one worker
// permanently at a seeded superstep under the reassign policy must yield
// final values byte-identical to a fault-free run across the three core
// algorithms and the three loggable engines — the partition moved, the
// numbers did not. It also asserts the degradation bookkeeping: one
// adoption, migration bytes charged, the dead worker absent from every
// post-reassignment superstep, and the migration landing fields matching
// between the trace and the StepStats.
func TestReassignMatrix(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 71)
	const failStep, failWorker = 5, 1
	plan := faultplan.NewPlan(faultplan.PermanentCrash(failStep, failWorker))
	for name, prog := range map[string]algo.Program{
		"pagerank": algo.NewPageRank(0.85),
		"sssp":     algo.NewSSSP(0),
		"wcc":      algo.NewWCC(),
	} {
		for _, e := range []Engine{Push, BPull, Hybrid} {
			t.Run(name+"/"+string(e), func(t *testing.T) {
				base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 3}
				clean, err := Run(g, prog, base, e)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				cfg := base
				cfg.Recovery = "reassign"
				cfg.FaultPlan = plan
				cfg.TraceWriter = &buf
				res, err := Run(g, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				if res.Reassignments != 1 {
					t.Fatalf("Reassignments = %d, want 1", res.Reassignments)
				}
				if !res.Degraded {
					t.Fatal("Degraded = false after a permanent worker loss")
				}
				if res.MigrationIO.Total() <= 0 {
					t.Fatalf("MigrationIO = %d, want > 0", res.MigrationIO.Total())
				}
				if res.MigrationNetBytes <= 0 {
					t.Fatalf("MigrationNetBytes = %d, want > 0", res.MigrationNetBytes)
				}
				for v := range clean.Values {
					if res.Values[v] != clean.Values[v] {
						t.Fatalf("vertex %d = %g, fault-free run has %g",
							v, res.Values[v], clean.Values[v])
					}
				}
				if res.Supersteps() != clean.Supersteps() {
					t.Fatalf("%d supersteps, fault-free run took %d",
						res.Supersteps(), clean.Supersteps())
				}

				p := parseTrace(t, buf.Bytes())
				if len(p.reassigns) != 1 {
					t.Fatalf("reassign events = %d, want 1", len(p.reassigns))
				}
				re := p.reassigns[0]
				if re.Worker != failWorker || re.Host == failWorker ||
					re.Reason != "permanent-crash" || re.Epoch < 2 {
					t.Fatalf("reassign event = %+v", re)
				}
				if re.MigrationIOBytes != res.MigrationIO.Total() ||
					re.MigrationNetBytes != res.MigrationNetBytes {
					t.Fatalf("reassign event migration bytes %d/%d != result %d/%d",
						re.MigrationIOBytes, re.MigrationNetBytes,
						res.MigrationIO.Total(), res.MigrationNetBytes)
				}
				if len(p.adoptBlocks) == 0 {
					t.Fatal("no adopt_block events journaled")
				}
				covered := 0
				for _, ab := range p.adoptBlocks {
					if ab.From != failWorker || ab.To != re.Host || ab.Epoch != re.Epoch {
						t.Fatalf("adopt_block event = %+v", ab)
					}
					covered += ab.Vcount
				}
				if part := graph.RangePartition(g.NumVertices, 3)[failWorker]; covered != part.Len() {
					t.Fatalf("adopt_block events cover %d vertices, partition has %d",
						covered, part.Len())
				}

				// The dead worker never executes on its own machine again:
				// every post-reassignment step shows its unit hosted elsewhere
				// and no unit hosted by the dead machine.
				for _, ev := range p.workerSteps {
					if ev.Step < failStep {
						if ev.Host != ev.Worker {
							t.Fatalf("step %d worker %d hosted by %d before the failure",
								ev.Step, ev.Worker, ev.Host)
						}
						continue
					}
					if ev.Host == failWorker && ev.Worker != failWorker {
						t.Fatalf("step %d: unit %d hosted by the dead worker", ev.Step, ev.Worker)
					}
					if ev.Worker == failWorker && ev.Host != re.Host {
						t.Fatalf("step %d: dead worker's unit hosted by %d, want %d",
							ev.Step, ev.Host, re.Host)
					}
				}

				// Migration landing cross-check: per-step worker-event sums
				// reproduce the StepStats migration fields, and the step sums
				// reproduce the JobResult totals (the failure step itself ran
				// post-adoption, so the landing is on a recorded step).
				var lio diskio.Snapshot
				var lnet int64
				byStep := map[int][]int{}
				for i, ev := range p.workerSteps {
					byStep[ev.Step] = append(byStep[ev.Step], i)
				}
				for _, st := range res.Steps {
					var sio diskio.Snapshot
					var snet int64
					for _, i := range byStep[st.Step] {
						sio = sio.Add(p.workerSteps[i].MigrationIO)
						snet += p.workerSteps[i].MigrationNetBytes
					}
					if sio != st.MigrationIO || snet != st.MigrationNetBytes {
						t.Fatalf("step %d: worker migration sums %v/%d != stats %v/%d",
							st.Step, sio, snet, st.MigrationIO, st.MigrationNetBytes)
					}
					lio = lio.Add(st.MigrationIO)
					lnet += st.MigrationNetBytes
				}
				if lio != res.MigrationIO || lnet != res.MigrationNetBytes {
					t.Fatalf("step migration sums %v/%d != result %v/%d",
						lio, lnet, res.MigrationIO, res.MigrationNetBytes)
				}
			})
		}
	}
}

// TestReassignTCP runs the adoption over the loopback TCP fabric: the
// adopted unit keeps its own endpoint, so its traffic still crosses a real
// socket, and the values must match the fault-free run's.
func TestReassignTCP(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 72)
	for _, e := range []Engine{Push, BPull} {
		t.Run(string(e), func(t *testing.T) {
			base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 7, CheckpointEvery: 3, TCP: true}
			clean, err := Run(g, algo.NewPageRank(0.85), base, e)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Recovery = "reassign"
			cfg.FaultPlan = faultplan.NewPlan(faultplan.PermanentCrash(4, 2))
			res, err := Run(g, algo.NewPageRank(0.85), cfg, e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reassignments != 1 || !res.Degraded {
				t.Fatalf("Reassignments=%d Degraded=%v, want 1/true", res.Reassignments, res.Degraded)
			}
			for v := range clean.Values {
				if res.Values[v] != clean.Values[v] {
					t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
				}
			}
		})
	}
}

// TestReassignCrashLimitEscalation: a transient crash recovers in place
// (confined-style), and only when the same worker exceeds MaxRestarts is
// its partition handed away.
func TestReassignCrashLimitEscalation(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 73)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 9, CheckpointEvery: 3}
	clean, err := Run(g, algo.NewPageRank(0.85), base, Push)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := base
	cfg.Recovery = "reassign"
	cfg.MaxRestarts = 1
	cfg.FaultPlan = faultplan.NewPlan(
		faultplan.Crash{Step: 3, Worker: 1},
		faultplan.Crash{Step: 6, Worker: 1})
	cfg.TraceWriter = &buf
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2", res.Restarts)
	}
	if res.Reassignments != 1 {
		t.Fatalf("Reassignments = %d, want 1 (second failure exceeds MaxRestarts)", res.Reassignments)
	}
	p := parseTrace(t, buf.Bytes())
	if len(p.reassigns) != 1 || p.reassigns[0].Reason != "crash-limit" ||
		p.reassigns[0].Step != 6 || p.reassigns[0].Crashes != 2 {
		t.Fatalf("reassign events = %+v, want one crash-limit adoption at step 6", p.reassigns)
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
}

// TestReassignStallLimitEscalation: repeated stalls of the same worker
// count toward permanence like crashes do.
func TestReassignStallLimitEscalation(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 74)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 3}
	clean, err := Run(g, algo.NewSSSP(0), base, Push)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := base
	cfg.Recovery = "reassign"
	cfg.MaxRestarts = 1
	cfg.FaultPlan = faultplan.NewPlan().WithStalls(
		faultplan.Stall{Step: 3, Worker: 2},
		faultplan.Stall{Step: 5, Worker: 2})
	cfg.TraceWriter = &buf
	res, err := Run(g, algo.NewSSSP(0), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 2 || res.Reassignments != 1 {
		t.Fatalf("Stalls=%d Reassignments=%d, want 2/1", res.Stalls, res.Reassignments)
	}
	p := parseTrace(t, buf.Bytes())
	if len(p.reassigns) != 1 || p.reassigns[0].Reason != "stall-limit" ||
		p.reassigns[0].Stalls != 2 {
		t.Fatalf("reassign events = %+v, want one stall-limit adoption", p.reassigns)
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
}

// TestReassignChainedHostDeath: the host carrying an adopted partition
// dies too. Both its own unit and the orphaned one must re-home to the
// remaining survivor and the values still match bit for bit.
func TestReassignChainedHostDeath(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 75)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 9, CheckpointEvery: 3}
	clean, err := Run(g, algo.NewPageRank(0.85), base, Push)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := base
	cfg.Recovery = "reassign"
	// Worker 1 dies at 3 and is adopted by the least-loaded survivor
	// (worker 0, lowest id). Worker 0 — now carrying units 0 and 1 — dies
	// at 6, orphaning unit 1 again; both re-home to worker 2.
	cfg.FaultPlan = faultplan.NewPlan(
		faultplan.PermanentCrash(3, 1),
		faultplan.PermanentCrash(6, 0))
	cfg.TraceWriter = &buf
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassignments != 3 {
		t.Fatalf("Reassignments = %d, want 3 (worker 1, then worker 0 and orphaned 1)", res.Reassignments)
	}
	p := parseTrace(t, buf.Bytes())
	if len(p.reassigns) != 3 {
		t.Fatalf("reassign events = %d, want 3", len(p.reassigns))
	}
	if p.reassigns[0].Worker != 1 || p.reassigns[0].Host != 0 {
		t.Fatalf("first adoption = %+v, want worker 1 onto host 0", p.reassigns[0])
	}
	orphaned := false
	for _, re := range p.reassigns[1:] {
		if re.Host != 2 {
			t.Fatalf("post-chain adoption on host %d, want the last survivor 2", re.Host)
		}
		if re.Worker == 1 && re.Reason == "host-lost" {
			orphaned = true
		}
	}
	if !orphaned {
		t.Fatal("no host-lost re-adoption of the orphaned unit journaled")
	}
	for _, ev := range p.workerSteps {
		if ev.Step >= 6 && ev.Host != 2 {
			t.Fatalf("step %d: unit %d hosted by %d, want 2 after the chain", ev.Step, ev.Worker, ev.Host)
		}
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
}

// TestReassignLastSurvivorDies: losing the final live worker is a typed
// job failure, not a hang or a silent wrong answer.
func TestReassignLastSurvivorDies(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 76)
	cfg := Config{Workers: 2, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 3,
		Recovery: "reassign",
		FaultPlan: faultplan.NewPlan(
			faultplan.PermanentCrash(3, 0),
			faultplan.PermanentCrash(5, 1))}
	_, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err == nil {
		t.Fatal("job survived losing every worker")
	}
	if !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("error does not match ErrNoSurvivors: %v", err)
	}
}

// TestReassignResumeAfterAdoption: a checkpoint committed after an
// adoption records the ownership table; a resumed run (the daemon-restart
// path) must continue with the shrunken worker set and still produce the
// fault-free values.
func TestReassignResumeAfterAdoption(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 77)
	clean, err := Run(g, algo.NewPageRank(0.85),
		Config{Workers: 3, MsgBuf: 100, MaxSteps: 8}, Push)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first := Config{Workers: 3, MsgBuf: 100, MaxSteps: 4, CheckpointEvery: 3,
		Recovery: "reassign", WorkDir: dir, KeepFiles: true,
		FaultPlan: faultplan.NewPlan(faultplan.PermanentCrash(2, 1))}
	fres, err := Run(g, algo.NewPageRank(0.85), first, Push)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Reassignments != 1 {
		t.Fatalf("first run Reassignments = %d, want 1", fres.Reassignments)
	}
	// The daemon restarts: same WorkDir, no fault plan (the machine is
	// simply gone), resume from the committed checkpoint at step 3 — which
	// was taken after the adoption and carries the ownership table.
	second := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 3,
		Recovery: "reassign", WorkDir: dir, KeepFiles: true,
		ResumeFromCheckpoint: true}
	res, err := Run(g, algo.NewPageRank(0.85), second, Push)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", res.Restores)
	}
	if !res.Degraded {
		t.Fatal("resumed run not marked Degraded despite the recorded loss")
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
	if res.Supersteps() != clean.Supersteps()-3 {
		t.Fatalf("resumed run recorded %d supersteps, want %d (resume at 4)",
			res.Supersteps(), clean.Supersteps()-3)
	}
}

// TestReassignParallelCompute runs the adoption matrix leg at
// Parallelism=8: the sharded update scans on the host machine — its own
// unit plus the adopted one — must stay bit-exact (run under -race in CI).
func TestReassignParallelCompute(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 78)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 3, Parallelism: 1}
	clean, err := Run(g, algo.NewPageRank(0.85), base, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Parallelism = 8
	cfg.Recovery = "reassign"
	cfg.FaultPlan = faultplan.NewPlan(faultplan.PermanentCrash(4, 1))
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassignments != 1 {
		t.Fatalf("Reassignments = %d, want 1", res.Reassignments)
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, Parallelism=1 fault-free run has %g",
				v, res.Values[v], clean.Values[v])
		}
	}
}

// TestReassignDiskFaultSweep is the satellite contract: storage faults
// injected while an adoption is in flight (snapshot reads, store
// rebuilds, log replays) end in values byte-identical to the fault-free
// run or a typed disk-fault failure — never silent corruption.
func TestReassignDiskFaultSweep(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 79)
	clean, err := Run(g, algo.NewPageRank(0.85),
		Config{Workers: 3, MsgBuf: 80, MaxSteps: 6}, Push)
	if err != nil {
		t.Fatal(err)
	}
	completed, failed, faultsSeen := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 6,
			Recovery: "reassign", CheckpointEvery: 2,
			FaultPlan: faultplan.NewPlan(faultplan.PermanentCrash(4, 1)).
				WithDisk(diskio.FaultConfig{
					Seed:     seed,
					SyncFail: 0.10,
				})}
		res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
		if err != nil {
			if !errors.Is(err, diskio.ErrDiskFault) {
				t.Fatalf("seed %d: error is not a typed disk fault: %v", seed, err)
			}
			failed++
			continue
		}
		completed++
		faultsSeen += res.DiskFaults
		if res.Reassignments != 1 {
			t.Fatalf("seed %d: Reassignments = %d, want 1", seed, res.Reassignments)
		}
		for v := range clean.Values {
			if res.Values[v] != clean.Values[v] {
				t.Fatalf("seed %d: vertex %d = %g, fault-free run has %g (silent divergence)",
					seed, v, res.Values[v], clean.Values[v])
			}
		}
	}
	if completed == 0 {
		t.Fatal("every seed failed: the sweep never exercised the byte-identity half")
	}
	if failed == 0 && faultsSeen == 0 {
		t.Fatal("no seed injected a fault: the sweep has no teeth")
	}

	// Power cut during the run with an adoption in flight: typed failure.
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 6,
		Recovery: "reassign", CheckpointEvery: 2,
		FaultPlan: faultplan.NewPlan(faultplan.PermanentCrash(4, 1)).
			WithDisk(diskio.FaultConfig{Seed: 5, PowerCutAfter: 60})}
	_, err = Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err == nil {
		t.Fatal("job survived a simulated power cut")
	}
	if !errors.Is(err, diskio.ErrDiskFault) {
		t.Fatalf("power-cut error does not match ErrDiskFault: %v", err)
	}
}

// TestReassignRejects: configurations the policy cannot honour fail fast.
func TestReassignRejects(t *testing.T) {
	g := graph.GenUniform(100, 500, 80)
	cfg := Config{Workers: 2, MsgBuf: 50, MaxSteps: 4, Recovery: "reassign"}
	if _, err := Run(g, algo.NewPageRank(0.85), cfg, Pull); err == nil {
		t.Fatal("reassign + pull baseline should be rejected")
	}
	cfg.Async = true
	if _, err := Run(g, algo.NewSSSP(0), cfg, Push); err == nil {
		t.Fatal("reassign + async should be rejected")
	}
	cfg.Async = false
	cfg.Workers = 1
	if _, err := Run(g, algo.NewPageRank(0.85), cfg, Push); err == nil {
		t.Fatal("reassign with a single worker should be rejected")
	}
}

// TestReassignOnRecoveryHook: the scheduler-facing callback sees the
// in-place recovery and the adoption, in order, with the epoch attached.
func TestReassignOnRecoveryHook(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 81)
	var notices []RecoveryNotice
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 8, CheckpointEvery: 3,
		Recovery: "reassign", MaxRestarts: 1,
		FaultPlan: faultplan.NewPlan(
			faultplan.Crash{Step: 3, Worker: 1},
			faultplan.Crash{Step: 6, Worker: 1}),
		OnRecovery: func(n RecoveryNotice) { notices = append(notices, n) }}
	if _, err := Run(g, algo.NewPageRank(0.85), cfg, Push); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 3 {
		t.Fatalf("notices = %+v, want crash, crash, reassign", notices)
	}
	if notices[0].Kind != "crash" || notices[0].Worker != 1 || notices[0].Host != -1 {
		t.Fatalf("first notice = %+v", notices[0])
	}
	if notices[1].Kind != "crash" || notices[2].Kind != "reassign" {
		t.Fatalf("notices = %+v", notices)
	}
	if notices[2].Worker != 1 || notices[2].Host == 1 || notices[2].Epoch < 2 {
		t.Fatalf("reassign notice = %+v", notices[2])
	}
}

// inflightFabric counts the fabric calls in progress, so a test can read
// how many were in flight at any moment, and the calls made in all.
type inflightFabric struct {
	closeThrough
	n, calls *atomic.Int64
}

// enter counts one call in and returns its exit.
func (f inflightFabric) enter() func() {
	f.n.Add(1)
	f.calls.Add(1)
	return func() { f.n.Add(-1) }
}

func (f inflightFabric) Send(p *comm.Packet) error {
	defer f.enter()()
	return f.Fabric.Send(p)
}

func (f inflightFabric) PullRequest(from, to, block, step int) ([]comm.Msg, int64, error) {
	defer f.enter()()
	return f.Fabric.PullRequest(from, to, block, step)
}

func (f inflightFabric) Gather(from, to int, ids []graph.VertexID, step int) ([]comm.GatherResult, error) {
	defer f.enter()()
	return f.Fabric.Gather(from, to, ids, step)
}

func (f inflightFabric) Signal(from, to int, ids []graph.VertexID, step int) error {
	defer f.enter()()
	return f.Fabric.Signal(from, to, ids, step)
}

// TestReassignNothingInFlightAtRecovery pins the invariant the fabrics
// rely on to carry no routing protocol: ownership changes only between
// supersteps, so when the master recovers a crash or a stall, or hands a
// dead worker's partition to a survivor, no fabric call is in progress.
// Every recovery notice reads the in-flight count of a wrapped fabric,
// over Local and over a lossy, duplicating TCP link.
func TestReassignNothingInFlightAtRecovery(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 74)
	var inflight, calls atomic.Int64
	withFabricWrap(t, func(f comm.Fabric) comm.Fabric {
		return inflightFabric{closeThrough{f}, &inflight, &calls}
	})
	plans := []struct {
		recovery string
		plan     func() *faultplan.Plan
	}{
		{"confined", func() *faultplan.Plan {
			return faultplan.NewPlan(faultplan.Crash{Step: 3, Worker: 1}).
				WithStalls(faultplan.Stall{Step: 5, Worker: 2})
		}},
		{"reassign", func() *faultplan.Plan {
			return faultplan.NewPlan(faultplan.PermanentCrash(4, 1)).
				WithStalls(faultplan.Stall{Step: 6, Worker: 2})
		}},
	}
	kinds := map[string]int{}
	for _, tcp := range []bool{false, true} {
		for _, p := range plans {
			for _, e := range []Engine{Push, BPull, Hybrid} {
				name := p.recovery + "/" + string(e) + "/local"
				if tcp {
					name = p.recovery + "/" + string(e) + "/tcp"
				}
				t.Run(name, func(t *testing.T) {
					plan := p.plan()
					if tcp {
						plan.Net = &faultplan.TransportFaults{Seed: 9,
							DropRequest: 0.05, DropResponse: 0.05, Duplicate: 0.05}
					}
					var seen []int64
					cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, CheckpointEvery: 2,
						TCP: tcp, Recovery: p.recovery, FaultPlan: plan,
						OnRecovery: func(n RecoveryNotice) {
							kinds[n.Kind]++
							seen = append(seen, inflight.Load())
						}}
					if _, err := Run(g, algo.NewPageRank(0.85), cfg, e); err != nil {
						t.Fatal(err)
					}
					if len(seen) < 2 || calls.Load() == 0 {
						t.Fatalf("%d recovery notices over %d fabric calls, want a crash and a stall over traffic",
							len(seen), calls.Load())
					}
					for i, n := range seen {
						if n != 0 {
							t.Fatalf("notice %d saw %d fabric calls in flight, want 0", i, n)
						}
					}
				})
			}
		}
	}
	for _, k := range []string{"crash", "stall", "reassign"} {
		if kinds[k] == 0 {
			t.Errorf("no %q notice fired (notices by kind: %v)", k, kinds)
		}
	}
}

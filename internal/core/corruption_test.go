package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/checkpoint"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// flipByte corrupts one byte in the middle of a checkpoint file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	if err := flipMiddle(path); err != nil {
		t.Fatal(err)
	}
}

func flipMiddle(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}

// tearFabric flips one byte of each of paths the first time any worker
// sends or pulls during superstep step: the damage lands after the
// checkpoint was committed and before the crash that needs it.
type tearFabric struct {
	closeThrough
	t     *testing.T
	step  int
	paths []string
	once  *sync.Once
}

func (f tearFabric) tear(step int) {
	if step != f.step {
		return
	}
	f.once.Do(func() {
		for _, p := range f.paths {
			if err := flipMiddle(p); err != nil {
				f.t.Error(err)
			}
		}
	})
}

func (f tearFabric) Send(p *comm.Packet) error {
	f.tear(p.Step)
	return f.Fabric.Send(p)
}

func (f tearFabric) PullRequest(from, to, block, step int) ([]comm.Msg, int64, error) {
	f.tear(step)
	return f.Fabric.PullRequest(from, to, block, step)
}

// TestRestoreSurvivesCorruption drives crash recoveries through damaged
// checkpoints: the CRC must catch the damage, the aborted restore must be
// journaled as restore_failed, the bytes it read before giving up must be
// charged to RecoverySimSeconds, and recovery must fall back — to an older
// checkpoint, or to superstep 1 — with values exactly matching a
// fault-free run.
func TestRestoreSurvivesCorruption(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 71)
	prog := func() algo.Program { return algo.NewPageRank(0.85) }

	clean, err := Run(g, prog(), Config{Workers: 3, MsgBuf: 100, MaxSteps: 5}, Push)
	if err != nil {
		t.Fatal(err)
	}

	// seed writes a committed checkpoint at superstep 3 into dir.
	seed := func(t *testing.T, dir string) {
		cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 4, CheckpointEvery: 3,
			WorkDir: dir, KeepFiles: true}
		if _, err := Run(g, prog(), cfg, Push); err != nil {
			t.Fatal(err)
		}
		coord := checkpoint.Coordinator{Dir: dir}
		if step, ok := coord.LastCommitted(); !ok || step != 3 {
			t.Fatalf("seed run committed step %d (ok=%v), want 3", step, ok)
		}
	}

	// crash runs the same job with a crash at superstep 2 under the
	// checkpoint policy, so recovery attempts a restore from the (damaged)
	// directory, and returns the result plus the parsed trace.
	crash := func(t *testing.T, dir string) (*parsedTrace, float64, []float64) {
		var buf bytes.Buffer
		cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 5, Recovery: "checkpoint",
			CheckpointEvery: 10, WorkDir: dir, KeepFiles: true,
			FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 2, Worker: 1}), TraceWriter: &buf}
		res, err := Run(g, prog(), cfg, Push)
		if err != nil {
			t.Fatal(err)
		}
		return parseTrace(t, buf.Bytes()), res.RecoverySimSeconds, res.Values
	}

	// baseline: the same crash with no checkpoint directory at all — the
	// recovery-time difference against it is the aborted restore's reads.
	_, baseSecs, _ := crash(t, t.TempDir())

	check := func(t *testing.T, p *parsedTrace, secs float64, vals []float64, wantExtraSecs bool) {
		if len(p.restores) != 0 {
			t.Fatal("a corrupt checkpoint must not restore")
		}
		if len(p.restoreFailed) != 1 {
			t.Fatalf("restore_failed events = %d, want 1", len(p.restoreFailed))
		}
		if p.restoreFailed[0].Reason == "" {
			t.Fatal("restore_failed event carries no reason")
		}
		if len(p.recoveries) != 1 || p.recoveries[0].RestartStep != 1 {
			t.Fatalf("recovery = %+v, want scratch fallback restarting at 1", p.recoveries)
		}
		if wantExtraSecs && secs <= baseSecs {
			t.Fatalf("RecoverySimSeconds = %g, want > %g: the aborted restore read real bytes",
				secs, baseSecs)
		}
		for v := range clean.Values {
			if vals[v] != clean.Values[v] {
				t.Fatalf("vertex %d = %g after fallback, fault-free run has %g",
					v, vals[v], clean.Values[v])
			}
		}
	}

	t.Run("worker-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		seed(t, dir)
		flipByte(t, checkpoint.Coordinator{Dir: dir}.SnapshotPath(3, 1))
		p, secs, vals := crash(t, dir)
		check(t, p, secs, vals, true)
	})
	t.Run("master-record", func(t *testing.T) {
		dir := t.TempDir()
		seed(t, dir)
		flipByte(t, checkpoint.Coordinator{Dir: dir}.MasterPath(3))
		p, secs, vals := crash(t, dir)
		check(t, p, secs, vals, true)
	})
	t.Run("stale-commit-marker", func(t *testing.T) {
		// A commit marker promising a checkpoint whose files never made it:
		// the phantom candidate must be rejected (journaled restore_failed)
		// and the restore must fall back to the older, intact committed
		// checkpoint — not crash, not restore garbage, and not throw the
		// good checkpoint away with the bad one.
		dir := t.TempDir()
		seed(t, dir)
		if err := os.WriteFile(filepath.Join(dir, "ckpt-000009.commit"), []byte("9"), 0o644); err != nil {
			t.Fatal(err)
		}
		p, _, vals := crash(t, dir)
		if len(p.restoreFailed) != 1 || p.restoreFailed[0].Step != 9 {
			t.Fatalf("restore_failed = %+v, want exactly one at the phantom step 9", p.restoreFailed)
		}
		if len(p.restores) != 1 || p.restores[0].Step != 3 {
			t.Fatalf("restores = %+v, want the fallback restore of the intact checkpoint at 3", p.restores)
		}
		if len(p.recoveries) != 1 || p.recoveries[0].RestartStep != 4 || !p.recoveries[0].Restored {
			t.Fatalf("recovery = %+v, want a restored restart at superstep 4", p.recoveries)
		}
		// The phantom marker must be gone so it can never shadow again.
		if _, err := os.Stat(filepath.Join(dir, "ckpt-000009.commit")); !os.IsNotExist(err) {
			t.Fatalf("phantom commit marker still present after rejection (err=%v)", err)
		}
		for v := range clean.Values {
			if vals[v] != clean.Values[v] {
				t.Fatalf("vertex %d = %g after fallback restore, fault-free run has %g",
					v, vals[v], clean.Values[v])
			}
		}
	})

	// A failed worker under the log-replay policies: its newest snapshot is
	// torn while superstep 5 runs, after checkpoint 4 committed and the
	// survivors' logs were pruned through checkpoint 2. The worker must fall
	// back to checkpoint 2 and replay 3-5 from the logs; with both retained
	// snapshots torn no worker-local base is left that the logs still cover,
	// so recovery must widen to the whole job and recompute from superstep 1
	// — after which a second failure replays against logs that hold only the
	// recomputed supersteps.
	for _, policy := range []string{"confined", "reassign"} {
		for _, e := range []Engine{Push, BPull, Hybrid} {
			base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8}
			crash := faultplan.Crash{Step: 6, Worker: 1}
			want := runOne(t, g, prog(), base, e)
			torn := func(t *testing.T, crashes []faultplan.Crash, tornSteps ...int) *parsedTrace {
				dir := t.TempDir()
				coord := checkpoint.Coordinator{Dir: dir}
				var paths []string
				for _, s := range tornSteps {
					paths = append(paths, coord.SnapshotPath(s, crashes[0].Worker))
				}
				withFabricWrap(t, func(f comm.Fabric) comm.Fabric {
					return tearFabric{closeThrough{f}, t, 5, paths, &sync.Once{}}
				})
				var buf bytes.Buffer
				cfg := base
				cfg.Recovery, cfg.CheckpointEvery, cfg.WorkDir, cfg.TraceWriter = policy, 2, dir, &buf
				cfg.FaultPlan = faultplan.NewPlan(crashes...)
				res := runOne(t, g, prog(), cfg, e)
				differ := 0
				for v := range want.Values {
					if res.Values[v] != want.Values[v] {
						differ++
					}
				}
				if differ > 0 {
					t.Fatalf("%d of %d vertices differ from the fault-free run", differ, len(want.Values))
				}
				return parseTrace(t, buf.Bytes())
			}
			t.Run(policy+"/"+string(e)+"/newest-torn", func(t *testing.T) {
				p := torn(t, []faultplan.Crash{crash}, 4)
				if len(p.restoreFailed) != 1 || p.restoreFailed[0].Step != 4 {
					t.Fatalf("restore_failed = %+v, want exactly one at checkpoint 4", p.restoreFailed)
				}
				if len(p.restores) != 1 || p.restores[0].Step != 2 {
					t.Fatalf("restores = %+v, want one of checkpoint 2", p.restores)
				}
				var replayed []int
				for _, ev := range p.replaySteps {
					replayed = append(replayed, ev.Step)
				}
				if !slices.Equal(replayed, []int{3, 4, 5}) {
					t.Fatalf("replayed supersteps %v, want [3 4 5]", replayed)
				}
			})
			t.Run(policy+"/"+string(e)+"/both-torn", func(t *testing.T) {
				p := torn(t, []faultplan.Crash{crash}, 2, 4)
				var rejected []int
				for _, ev := range p.restoreFailed {
					rejected = append(rejected, ev.Step)
				}
				if !slices.Equal(rejected, []int{4, 2}) {
					t.Fatalf("restore_failed at %v, want [4 2]", rejected)
				}
				if len(p.restores) != 0 || len(p.replaySteps) != 0 {
					t.Fatalf("restores %+v, replay steps %+v: want neither once recovery widens",
						p.restores, p.replaySteps)
				}
				if len(p.recoveries) != 1 || p.recoveries[0].RestartStep != 1 {
					t.Fatalf("recovery = %+v, want one whole-job restart at superstep 1", p.recoveries)
				}
			})
			t.Run(policy+"/"+string(e)+"/widen-then-crash", func(t *testing.T) {
				p := torn(t, []faultplan.Crash{{Step: 6, Worker: 0}, crash}, 2, 4)
				if len(p.recoveries) != 2 || p.recoveries[0].RestartStep != 1 ||
					p.recoveries[1].RestartStep != 6 || !p.recoveries[1].Restored {
					t.Fatalf("recoveries = %+v, want a whole-job restart at 1, then a restored worker 1 resuming at 6",
						p.recoveries)
				}
			})
		}
	}
}

package core

import (
	"bytes"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// TestConfinedMatchesEveryPolicy is the acceptance matrix: for identical
// fault plans, the final values under scratch, checkpoint and confined
// recovery must be exactly — bit for bit — the values of a fault-free
// run, across the three core algorithms and the three loggable engines.
func TestConfinedMatchesEveryPolicy(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 61)
	plan := faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})
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
				for _, policy := range []string{"scratch", "checkpoint", "confined"} {
					cfg := base
					cfg.Recovery = policy
					cfg.FaultPlan = plan
					res, err := Run(g, prog, cfg, e)
					if err != nil {
						t.Fatalf("%s: %v", policy, err)
					}
					if res.Restarts != 1 {
						t.Fatalf("%s: Restarts = %d, want 1", policy, res.Restarts)
					}
					if policy == "confined" && res.ConfinedRecoveries != 1 {
						t.Fatalf("ConfinedRecoveries = %d, want 1", res.ConfinedRecoveries)
					}
					for v := range clean.Values {
						if res.Values[v] != clean.Values[v] {
							t.Fatalf("%s: vertex %d = %g, fault-free run has %g",
								policy, v, res.Values[v], clean.Values[v])
						}
					}
					if res.Supersteps() != clean.Supersteps() {
						t.Fatalf("%s: %d supersteps, fault-free run took %d",
							policy, res.Supersteps(), clean.Supersteps())
					}
				}
			})
		}
	}
}

// TestConfinedRestoresOnlyFailedWorker asserts, from the trace journal,
// the tentpole's defining properties for a single-worker crash: only the
// failed worker's snapshot is read back, the survivors serve replay with
// zero recompute I/O, and the replay bytes are strictly less than what
// the global checkpoint policy pays for the same fault plan.
func TestConfinedRestoresOnlyFailedWorker(t *testing.T) {
	g := graph.GenRMAT(600, 6000, 0.57, 0.19, 0.19, 62)
	plan := faultplan.NewPlan(faultplan.Crash{Step: 6, Worker: 2})
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 9, CheckpointEvery: 3, FaultPlan: plan}

	var buf bytes.Buffer
	cfg := base
	cfg.Recovery = "confined"
	cfg.TraceWriter = &buf
	conf, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	p := parseTrace(t, buf.Bytes())

	if len(p.restores) != 1 {
		t.Fatalf("restore events = %d, want 1", len(p.restores))
	}
	if p.restores[0].Workers != 1 {
		t.Fatalf("restore touched %d workers, confined must restore only the failed one", p.restores[0].Workers)
	}
	// Crash at 6 with a checkpoint at 3: replay supersteps 4 and 5.
	if len(p.replaySteps) != 2 {
		t.Fatalf("replay_step events = %d, want 2", len(p.replaySteps))
	}
	for _, ev := range p.replaySteps {
		if ev.Worker != 2 {
			t.Fatalf("replay_step on worker %d, want the failed worker 2", ev.Worker)
		}
		if ev.Rejoin {
			t.Fatal("crash replay must not have a rejoin step")
		}
	}
	if len(p.replayServes) == 0 {
		t.Fatal("no replay_serve events journaled")
	}
	for _, ev := range p.replayServes {
		if ev.Worker == 2 {
			t.Fatalf("replay_serve attributed to the failed worker")
		}
		if ev.IO.Total() != 0 {
			t.Fatalf("survivor %d paid %d bytes of recompute I/O at replay step %d, want 0",
				ev.Worker, ev.IO.Total(), ev.Step)
		}
	}
	if len(p.recoveries) != 1 || p.recoveries[0].Policy != "confined" {
		t.Fatalf("recovery events = %+v, want one confined recovery", p.recoveries)
	}
	if p.recoveries[0].Worker != 2 || p.recoveries[0].Replayed != 2 || p.recoveries[0].Discarded != 0 {
		t.Fatalf("recovery event = %+v, want worker 2, 2 replayed, 0 discarded", p.recoveries[0])
	}

	cfg = base
	cfg.Recovery = "checkpoint"
	ckpt, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if conf.ReplayIO.Total() <= 0 {
		t.Fatal("confined recovery should have replayed some bytes")
	}
	if ckpt.ReplayIO.Total() <= conf.ReplayIO.Total() {
		t.Fatalf("confined replayed %d bytes, global checkpoint %d — confined must be strictly cheaper",
			conf.ReplayIO.Total(), ckpt.ReplayIO.Total())
	}
	if conf.LogIO.Total() <= 0 {
		t.Fatal("confined runs must account their message-log writes")
	}
	if ckpt.LogIO.Total() != 0 {
		t.Fatalf("checkpoint policy logged %d bytes, logging is confined-only", ckpt.LogIO.Total())
	}
}

// TestConfinedStallRejoin drives stall detection at the barrier: a
// stalled worker is declared failed at a superstep the survivors
// completed, recovers confined, and rejoins with the final values exactly
// matching a fault-free run.
func TestConfinedStallRejoin(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 63)
	for name, prog := range map[string]algo.Program{
		"pagerank": algo.NewPageRank(0.85),
		"sssp":     algo.NewSSSP(0),
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
				cfg.Recovery = "confined"
				cfg.FaultPlan = faultplan.NewPlan().WithStalls(faultplan.Stall{Step: 4, Worker: 1})
				cfg.TraceWriter = &buf
				res, err := Run(g, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stalls != 1 {
					t.Fatalf("Stalls = %d, want 1", res.Stalls)
				}
				if res.ConfinedRecoveries != 1 {
					t.Fatalf("ConfinedRecoveries = %d, want 1", res.ConfinedRecoveries)
				}
				p := parseTrace(t, buf.Bytes())
				foundStall := false
				for _, f := range p.faults {
					if f.Kind == "stall" && f.Step == 4 && f.Worker == 1 {
						foundStall = true
					}
				}
				if !foundStall {
					t.Fatal("no stall fault journaled")
				}
				rejoins := 0
				for _, ev := range p.replaySteps {
					if ev.Rejoin {
						rejoins++
						if ev.Step != 4 {
							t.Fatalf("rejoin at step %d, want the stalled step 4", ev.Step)
						}
					}
				}
				if rejoins != 1 {
					t.Fatalf("rejoin steps = %d, want 1", rejoins)
				}
				for v := range clean.Values {
					if res.Values[v] != clean.Values[v] {
						t.Fatalf("vertex %d = %g after stall recovery, fault-free run has %g",
							v, res.Values[v], clean.Values[v])
					}
				}
				if res.Supersteps() != clean.Supersteps() {
					t.Fatalf("%d supersteps, fault-free run took %d",
						res.Supersteps(), clean.Supersteps())
				}
			})
		}
	}
}

// TestConfinedScratchReplayWithoutCheckpoint: a crash before the first
// checkpoint interval leaves no snapshot; the failed worker alone replays
// from superstep 1 against the survivors' logs.
func TestConfinedScratchReplayWithoutCheckpoint(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 64)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 7, CheckpointEvery: 100}
	clean, err := Run(g, algo.NewSSSP(0), base, Push)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := base
	cfg.Recovery = "confined"
	cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 4, Worker: 0})
	cfg.TraceWriter = &buf
	res, err := Run(g, algo.NewSSSP(0), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	p := parseTrace(t, buf.Bytes())
	if len(p.restores) != 0 {
		t.Fatalf("restore events = %d, want none without a committed checkpoint", len(p.restores))
	}
	if len(p.replaySteps) != 3 {
		t.Fatalf("replay_step events = %d, want 3 (supersteps 1-3)", len(p.replaySteps))
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
}

// TestConfinedCompoundFaults chains a crash and a later stall of another
// worker inside one confined run.
func TestConfinedCompoundFaults(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 65)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 9, CheckpointEvery: 3}
	clean, err := Run(g, algo.NewPageRank(0.85), base, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Recovery = "confined"
	cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 3, Worker: 0}).
		WithStalls(faultplan.Stall{Step: 6, Worker: 2})
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 || res.ConfinedRecoveries != 2 || res.Stalls != 1 {
		t.Fatalf("Restarts=%d ConfinedRecoveries=%d Stalls=%d, want 2/2/1",
			res.Restarts, res.ConfinedRecoveries, res.Stalls)
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g", v, res.Values[v], clean.Values[v])
		}
	}
}

// TestConfinedRejectsPullBaseline: gather/scatter exchanges cannot be
// replayed from a sender-side log.
func TestConfinedRejectsPullBaseline(t *testing.T) {
	g := graph.GenUniform(100, 500, 66)
	cfg := Config{Workers: 2, MsgBuf: 50, MaxSteps: 4, Recovery: "confined"}
	if _, err := Run(g, algo.NewPageRank(0.85), cfg, Pull); err == nil {
		t.Fatal("confined + pull baseline should be rejected")
	}
	cfg.Async = true
	if _, err := Run(g, algo.NewSSSP(0), cfg, Push); err == nil {
		t.Fatal("confined + async should be rejected")
	}
}

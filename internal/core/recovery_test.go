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

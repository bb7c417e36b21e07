package core

import (
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// TestResumeRecoveryCorrectAndCheaper exercises the lightweight
// fault-tolerance policy on self-correcting algorithms: after a crash,
// values survive and the restart re-announces them, so WCC resumes where
// it left off instead of re-flooding from scratch.
func TestResumeRecoveryCorrectAndCheaper(t *testing.T) {
	g := algo.Symmetrize(graph.GenChain(120, 0, 63))
	prog := algo.NewWCC()
	base := Config{Workers: 3, MsgBuf: 30, MaxSteps: 300}

	clean, err := Run(g, prog, base, BPull)
	if err != nil {
		t.Fatal(err)
	}

	failAt := clean.Supersteps() * 2 / 3
	scratch := base
	scratch.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: failAt})
	scratchRes, err := Run(g, prog, scratch, BPull)
	if err != nil {
		t.Fatal(err)
	}

	resume := scratch
	resume.Recovery = "resume"
	resumeRes, err := Run(g, prog, resume, BPull)
	if err != nil {
		t.Fatal(err)
	}

	for v := range clean.Values {
		if resumeRes.Values[v] != clean.Values[v] {
			t.Fatalf("resume recovery wrong at vertex %d: %g vs %g",
				v, resumeRes.Values[v], clean.Values[v])
		}
		if scratchRes.Values[v] != clean.Values[v] {
			t.Fatalf("scratch recovery wrong at vertex %d", v)
		}
	}
	// Resume restarts from two-thirds-propagated labels, so its second
	// attempt needs far fewer supersteps than recomputing from scratch.
	if resumeRes.Supersteps() >= scratchRes.Supersteps() {
		t.Fatalf("resume took %d supersteps, scratch %d; lightweight recovery should be cheaper",
			resumeRes.Supersteps(), scratchRes.Supersteps())
	}
	if resumeRes.Restarts != 1 || scratchRes.Restarts != 1 {
		t.Fatal("both runs should report one restart")
	}
}

// TestResumeRecoveryConvergingPageRank checks the paper's motivating
// case: PageRank converges to the same ranks from any starting state, so
// resuming from mid-run values is sound (and cheap).
func TestResumeRecoveryConvergingPageRank(t *testing.T) {
	g := graph.GenRMAT(500, 6000, 0.57, 0.19, 0.19, 64)
	prog := algo.NewConvergingPageRank(0.85, 1e-6)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 120}

	clean, err := Run(g, prog, base, Push)
	if err != nil {
		t.Fatal(err)
	}
	resume := base
	resume.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 6})
	resume.Recovery = "resume"
	res, err := Run(g, prog, resume, Push)
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Values {
		if d := res.Values[v] - clean.Values[v]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("vertex %d: resumed rank %g vs clean %g", v, res.Values[v], clean.Values[v])
		}
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// listProbe wraps a Program and records, per superstep, the most values
// one Update was handed and how many values its Updates were handed in
// all.
type listProbe struct {
	algo.Program
	mu           sync.Mutex
	most, values map[int]int
}

func newListProbe(p algo.Program) *listProbe {
	return &listProbe{Program: p, most: map[int]int{}, values: map[int]int{}}
}

func (p *listProbe) Update(ctx *algo.Context, v graph.VertexID, outdeg int, val float64, msgs []float64) (float64, bool) {
	p.mu.Lock()
	p.most[ctx.Step] = max(p.most[ctx.Step], len(msgs))
	p.values[ctx.Step] += len(msgs)
	p.mu.Unlock()
	return p.Program.Update(ctx, v, outdeg, val, msgs)
}

// TestPushUpdateSeesOneValue: under a combiner push's drain folds each
// vertex's values into one, so no Update of a push-consumed superstep is
// handed more than one value — under push and across hybrid's switches,
// on both fabrics, at any parallelism, with and without spilling, and
// when the inbox is rebuilt by a checkpoint restore or a confined replay.
// LPA, which has no combiner, is still handed every message it was sent.
func TestPushUpdateSeesOneValue(t *testing.T) {
	g := graph.GenRMAT(900, 8100, 0.57, 0.19, 0.19, 77)
	programs := []func() algo.Program{
		func() algo.Program { return algo.NewPageRank(0.85) },
		func() algo.Program { return algo.NewSSSP(0) },
	}
	type leg struct {
		engine   Engine
		recovery string
	}
	pushed := map[leg]int{} // values handed to push-consumed supersteps' Updates
	for _, mk := range programs {
		for _, e := range []Engine{Push, Hybrid} {
			for _, tcp := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					// Hybrid pushes from superstep 4 at buffer 0, and SSSP
					// from superstep 4 at 2400 too, spilling at the switch;
					// at 150 it pushes SSSP's last superstep only.
					for _, msgBuf := range []int{0, 150, 2400} {
						for _, recovery := range []string{"", "checkpoint", "confined"} {
							if recovery != "" && par != 4 {
								continue
							}
							cfg := Config{Workers: 3, MsgBuf: msgBuf, MaxSteps: 8, SendThreshold: 1200,
								TCP: tcp, Parallelism: par}
							if recovery != "" {
								cfg.Recovery, cfg.CheckpointEvery = recovery, 3
								cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 6, Worker: 1})
							}
							probe := newListProbe(mk())
							label := fmt.Sprintf("%s/%s tcp=%v p=%d buf=%d %s", probe.Name(), e, tcp, par, msgBuf, recovery)
							res := runOne(t, g, probe, cfg, e)
							if recovery != "" && res.Restarts != 1 {
								t.Fatalf("%s: %d restarts, want 1", label, res.Restarts)
							}
							for _, s := range res.Steps {
								if s.Step == 1 || s.Mode != string(Push) {
									continue
								}
								if probe.most[s.Step] > 1 {
									t.Fatalf("%s: an Update of push-consumed superstep %d was handed %d values",
										label, s.Step, probe.most[s.Step])
								}
								pushed[leg{e, recovery}] += probe.values[s.Step]
							}
						}
					}
				}
			}
		}
	}
	for _, e := range []Engine{Push, Hybrid} {
		for _, recovery := range []string{"", "checkpoint", "confined"} {
			if pushed[leg{e, recovery}] == 0 {
				t.Fatalf("%s %s: no push-consumed superstep was handed a message", e, recovery)
			}
		}
	}

	// Without a combiner every message still reaches Update: superstep t
	// is handed what t-1 sent.
	for _, tcp := range []bool{false, true} {
		probe := newListProbe(algo.NewLPA())
		res := runOne(t, g, probe, Config{Workers: 3, MsgBuf: 150, MaxSteps: 6, SendThreshold: 1200, TCP: tcp}, Push)
		most := 0
		for i, s := range res.Steps[1:] {
			if got, sent := probe.values[s.Step], res.Steps[i].Produced; int64(got) != sent {
				t.Fatalf("LPA tcp=%v: superstep %d was handed %d values, superstep %d sent %d",
					tcp, s.Step, got, s.Step-1, sent)
			}
			most = max(most, probe.most[s.Step])
		}
		if most < 2 {
			t.Fatalf("LPA tcp=%v: no Update was handed more than %d values", tcp, most)
		}
	}
}

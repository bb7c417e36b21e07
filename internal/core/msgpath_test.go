package core

import (
	"math"
	"testing"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// closeThrough lets a wrapped fabric still be closed by the job.
type closeThrough struct{ comm.Fabric }

func (c closeThrough) Close() error {
	if cl, ok := c.Fabric.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// scribbleFabric overwrites a packet's records with NaN records the
// moment Send returns. The worker's outbox does the same a little later
// when it refills the buffer; doing it at once, every time, turns any
// fabric, wrapper, log or inbox that kept p.Msgs instead of copying it
// into corrupted values.
type scribbleFabric struct{ closeThrough }

func (s scribbleFabric) Send(p *comm.Packet) error {
	err := s.Fabric.Send(p)
	for o := 0; o < len(p.Msgs); o += comm.MsgWireSize {
		comm.PutRecord(p.Msgs[o:], comm.Msg{Dst: math.MaxUint32, Val: math.NaN()})
	}
	return err
}

func withFabricWrap(t *testing.T, wrap func(comm.Fabric) comm.Fabric) {
	t.Helper()
	testWrapFabric = wrap
	t.Cleanup(func() { testWrapFabric = nil })
}

// TestBufferReuseIdentity proves what the outbox's buffer reuse assumes:
// Send is synchronous and nothing downstream of it — Local, TCP, the
// confined policy's send log, the replay fabric, the inbox — holds on to
// a packet's messages. Every run under the scribbling wrapper must equal
// the plain run bit for bit, replay accounting included.
func TestBufferReuseIdentity(t *testing.T) {
	g := graph.GenRMAT(600, 5400, 0.57, 0.19, 0.19, 31)
	scribble := func(f comm.Fabric) comm.Fabric { return scribbleFabric{closeThrough{f}} }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Workers: 3, MsgBuf: 90, MaxSteps: 7, SendThreshold: 600}},
		{"sender-combine", Config{Workers: 3, MsgBuf: 90, MaxSteps: 7, SendThreshold: 600, SenderCombine: true}},
		{"switching", Config{Workers: 3, MsgBuf: 2400, MaxSteps: 7, SendThreshold: 600, Parallelism: 4}},
		{"confined-crash", Config{Workers: 3, MsgBuf: 90, MaxSteps: 8, SendThreshold: 600,
			Recovery: "confined", CheckpointEvery: 3,
			FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 6, Worker: 1})}},
	}
	for _, tcp := range []bool{false, true} {
		for _, c := range cases {
			for _, e := range []Engine{Push, Hybrid} {
				name := c.name + "/" + string(e) + "/local"
				if tcp {
					name = c.name + "/" + string(e) + "/tcp"
				}
				t.Run(name, func(t *testing.T) {
					cfg := c.cfg
					cfg.TCP = tcp
					testWrapFabric = nil
					want := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
					withFabricWrap(t, scribble)
					got := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
					sameResults(t, name, want, got)
					if cfg.Recovery != "" {
						if got.ConfinedRecoveries != 1 || got.ReplayedSupersteps == 0 {
							t.Fatalf("the crash was not replayed: %d recoveries, %d supersteps", got.ConfinedRecoveries, got.ReplayedSupersteps)
						}
						if got.ReplayIO != want.ReplayIO || got.ReplayNetBytes != want.ReplayNetBytes || got.LogIO != want.LogIO {
							t.Fatalf("replay accounting moved: replay IO %+v vs %+v, net %d vs %d, log %+v vs %+v",
								got.ReplayIO, want.ReplayIO, got.ReplayNetBytes, want.ReplayNetBytes, got.LogIO, want.LogIO)
						}
					}
				})
			}
		}
	}
}

// The same under a lossy, duplicating, delaying TCP link: retries
// re-encode from the sender's buffer and duplicates are absorbed before
// the handler, so the scribbled run still equals a fault-free local one.
func TestBufferReuseIdentityOverFaultyTCP(t *testing.T) {
	g := graph.GenRMAT(300, 2400, 0.57, 0.19, 0.19, 78)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 5, SendThreshold: 600}
	for _, e := range []Engine{Push, Hybrid} {
		t.Run(string(e), func(t *testing.T) {
			want := runOne(t, g, algo.NewPageRank(0.85), base, e)
			faulty := base
			faulty.TCP = true
			faulty.FaultPlan = &faultplan.Plan{Net: &faultplan.TransportFaults{
				Seed: 7, DropRequest: 0.04, DropResponse: 0.03, Duplicate: 0.06,
				Delay: 0.05, MaxDelay: 2 * time.Millisecond,
			}}
			withFabricWrap(t, func(f comm.Fabric) comm.Fabric { return scribbleFabric{closeThrough{f}} })
			got := runOne(t, g, algo.NewPageRank(0.85), faulty, e)
			sameResults(t, string(e), want, got)
		})
	}
}

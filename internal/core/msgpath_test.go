package core

import (
	"fmt"
	"math"
	"sync"
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

// pullGuard checks what Pull-Respond's reuse of its respond buffer rests
// on: a requester never has two pulls from one responder in flight at
// once, so a response may lie in the responder's buffer for that
// requester until the requester's next pull from it. The guard counts
// overlapping pulls, and scribbles over a response as soon as the same
// requester pulls from the same responder again — where the responder is
// free to reuse it — so a consumer that held on to a response instead of
// copying it reads NaNs.
type pullGuard struct {
	closeThrough
	mu       sync.Mutex
	inFlight map[[2]int]int
	last     map[[2]int][]comm.Msg
	pulls    int
	overlaps int
}

func (g *pullGuard) PullRequest(from, to, block, step int) ([]comm.Msg, int64, error) {
	key := [2]int{from, to}
	g.mu.Lock()
	g.pulls++
	if g.inFlight[key] > 0 {
		g.overlaps++
	}
	g.inFlight[key]++
	fill(g.last[key], poisonMsg)
	delete(g.last, key)
	g.mu.Unlock()
	msgs, wire, err := g.Fabric.PullRequest(from, to, block, step)
	g.mu.Lock()
	g.inFlight[key]--
	g.last[key] = msgs
	g.mu.Unlock()
	return msgs, wire, err
}

// TestOnePullInFlightPerPair runs b-pull and hybrid under the guard over
// both fabrics, with pre-pulling on and off, at two parallelisms, clean
// and with one crash recovered by the confined and the reassign policies:
// no requester may overlap two pulls from one responder, and every run
// must equal the unguarded one bit for bit.
func TestOnePullInFlightPerPair(t *testing.T) {
	g := graph.GenRMAT(300, 2400, 0.57, 0.19, 0.19, 17)
	programs := map[string]func() algo.Program{
		"pagerank": func() algo.Program { return algo.NewPageRank(0.85) },
		"sssp":     func() algo.Program { return algo.NewSSSP(0) },
	}
	faults := []struct {
		name     string
		recovery string
		crash    faultplan.Crash
	}{
		{name: "clean"},
		{"confined", "confined", faultplan.Crash{Step: 4, Worker: 1}},
		{"reassign", "reassign", faultplan.PermanentCrash(4, 1)},
	}
	for pname, mk := range programs {
		for _, fault := range faults {
			for _, e := range []Engine{BPull, Hybrid} {
				for _, tcp := range []bool{false, true} {
					for _, prepull := range []bool{true, false} {
						for _, par := range []int{2, 4} {
							label := fmt.Sprintf("%s/%s/%s/tcp=%v/prepull=%v/p=%d", pname, fault.name, e, tcp, prepull, par)
							t.Run(label, func(t *testing.T) {
								cfg := Config{Workers: 3, MsgBuf: 600, MaxSteps: 7, BlocksPerWorker: 3,
									TCP: tcp, DisablePrepull: !prepull, Parallelism: par}
								if fault.recovery != "" {
									cfg.Recovery, cfg.CheckpointEvery = fault.recovery, 2
									cfg.FaultPlan = faultplan.NewPlan(fault.crash)
								}
								testWrapFabric = nil
								want := runOne(t, g, mk(), cfg, e)
								guard := &pullGuard{inFlight: map[[2]int]int{}, last: map[[2]int][]comm.Msg{}}
								withFabricWrap(t, func(f comm.Fabric) comm.Fabric {
									guard.closeThrough = closeThrough{f}
									return guard
								})
								got := runOne(t, g, mk(), cfg, e)
								sameResults(t, label, want, got)
								if fault.recovery != "" {
									adopted := 0
									if fault.crash.Permanent {
										adopted = 1
									}
									if got.ConfinedRecoveries != 1 || got.Reassignments != adopted {
										t.Fatalf("the crash was not recovered: %d confined recoveries, %d reassignments",
											got.ConfinedRecoveries, got.Reassignments)
									}
								}
								if guard.pulls == 0 {
									t.Fatal("no pull request crossed the fabric")
								}
								if guard.overlaps > 0 {
									t.Fatalf("%d of %d pulls overlapped an earlier pull between the same two workers", guard.overlaps, guard.pulls)
								}
							})
						}
					}
				}
			}
		}
	}
}

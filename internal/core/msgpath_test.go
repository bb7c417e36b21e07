package core

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// closeThrough lets a wrapped fabric still be closed by the job.
type closeThrough struct{ comm.Fabric }

func (c closeThrough) Close() error {
	if cl, ok := c.Fabric.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// scribbleFabric overwrites a packet's messages with garbage the moment
// Send returns. The worker's outbox does the same a little later when it
// refills the buffer; doing it at once, every time, turns any fabric,
// wrapper, log or inbox that kept p.Msgs instead of copying it into
// corrupted values.
type scribbleFabric struct{ closeThrough }

func (s scribbleFabric) Send(p *comm.Packet) error {
	err := s.Fabric.Send(p)
	for i := range p.Msgs {
		p.Msgs[i] = comm.Msg{Dst: math.MaxUint32, Val: math.NaN()}
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
	if testing.Short() {
		t.Skip("fault-injected TCP runs wait out many injected timeouts")
	}
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

// packetLog records, in Send order, what every packet carried.
type packetLog struct {
	closeThrough
	mu      sync.Mutex
	packets []uint64 // one hash per packet: step, destination, every message
}

func (l *packetLog) Send(p *comm.Packet) error {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(p.Step))
	put(uint64(p.To))
	for _, m := range p.Msgs {
		put(uint64(m.Dst))
		put(math.Float64bits(m.Val))
	}
	l.mu.Lock()
	l.packets = append(l.packets, h.Sum64())
	l.mu.Unlock()
	return l.Fabric.Send(p)
}

// TestAsyncPacketsDeterministic pins relaxAsync's Add order. It used to
// range over a Go map, so with a sending threshold of a few messages the
// packet boundaries — which messages travel together — changed run to
// run. One worker keeps the ping-pong itself free of goroutine timing, so
// the only freedom left was the iteration order.
func TestAsyncPacketsDeterministic(t *testing.T) {
	g := graph.GenRMAT(400, 3600, 0.57, 0.19, 0.19, 12)
	run := func() (*metrics.JobResult, []uint64, int64) {
		log := &packetLog{}
		withFabricWrap(t, func(f comm.Fabric) comm.Fabric { log.closeThrough = closeThrough{f}; return log })
		reg := obs.NewRegistry()
		cfg := Config{Workers: 1, MsgBuf: 50, MaxSteps: 40, Async: true, SendThreshold: 3 * comm.MsgWireSize, Metrics: reg}
		res := runOne(t, g, algo.NewSSSP(0), cfg, Push)
		return res, log.packets, reg.Snapshot()["comm.packets"]
	}
	a, aPackets, aCount := run()
	if len(aPackets) < 100 {
		t.Fatalf("only %d packets: the threshold did not split the batches", len(aPackets))
	}
	for i := 0; i < 3; i++ {
		b, bPackets, bCount := run()
		sameResults(t, "async", a, b)
		if aCount != bCount || len(aPackets) != len(bPackets) {
			t.Fatalf("run %d sent %d packets (%d logged), first run %d (%d logged)", i, bCount, len(bPackets), aCount, len(aPackets))
		}
		for k := range aPackets {
			if aPackets[k] != bPackets[k] {
				t.Fatalf("run %d: packet %d of %d carried different messages than in the first run", i, k, len(aPackets))
			}
		}
	}
}

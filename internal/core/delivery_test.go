package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// senderMajorPageRank is the value contract of push written out: update()
// sees a vertex's messages sender by sender in ascending worker id, one
// sender's in the order it emitted them — which, workers owning ascending
// vertex ranges and scanning them in order, is ascending source id with a
// source's parallel edges in adjacency order. Packets, buffers, spills,
// fabric and schedule may not show in the bits.
func senderMajorPageRank(g *graph.Graph, prog algo.Program, steps int) []float64 {
	n := g.NumVertices
	ctx := func(t int) *algo.Context { return &algo.Context{Step: t, NumVertices: n, MaxSteps: steps} }
	vals, bcast := make([]float64, n), make([]float64, n)
	for v := range vals {
		vals[v], _ = prog.Init(ctx(1), graph.VertexID(v), g.OutDegree(graph.VertexID(v)))
		bcast[v] = prog.Bcast(vals[v], g.OutDegree(graph.VertexID(v)))
	}
	for t := 2; t <= steps; t++ {
		lists := make([][]float64, n)
		for u := 0; u < n; u++ {
			for _, h := range g.OutEdges(graph.VertexID(u)) {
				lists[h.Dst] = append(lists[h.Dst], prog.MsgValue(bcast[u], h.Weight))
			}
		}
		for v := range vals {
			vals[v], _ = prog.Update(ctx(t), graph.VertexID(v), g.OutDegree(graph.VertexID(v)), vals[v], lists[v])
			bcast[v] = prog.Bcast(vals[v], g.OutDegree(graph.VertexID(v)))
		}
	}
	return vals
}

// TestDeliveryOrderIsSenderMajor pins push's PageRank bits to the
// reference above on both fabrics and at any parallelism, with a sending
// threshold small enough that every worker pair exchanges several packets
// a superstep and a message buffer small enough that most of them spill —
// and again when the job is interrupted mid-way and restored from a
// checkpoint (Pending, then re-added from one sender) or replayed from the
// survivors' logs (injected sender by sender).
func TestDeliveryOrderIsSenderMajor(t *testing.T) {
	g := graph.GenRMAT(300, 6000, 0.57, 0.19, 0.19, 17)
	const steps = 7
	want := senderMajorPageRank(g, algo.NewPageRank(0.85), steps)
	check := func(label string, cfg Config) {
		t.Helper()
		res := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
		if cfg.FaultPlan != nil && res.Restarts != 1 {
			t.Fatalf("%s: %d restarts, want 1", label, res.Restarts)
		}
		for v := range want {
			if math.Float64bits(res.Values[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: vertex %d = %x, sender-major delivery gives %x",
					label, v, math.Float64bits(res.Values[v]), math.Float64bits(want[v]))
			}
		}
	}
	for _, tcp := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			cfg := Config{Workers: 3, MsgBuf: 60, MaxSteps: steps, SendThreshold: 600, TCP: tcp, Parallelism: par}
			check(fmt.Sprintf("tcp=%v p=%d", tcp, par), cfg)
			cfg.CheckpointEvery = 3
			cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})
			for _, policy := range []string{"checkpoint", "confined"} {
				cfg.Recovery = policy
				check(fmt.Sprintf("tcp=%v p=%d %s", tcp, par, policy), cfg)
			}
		}
	}
}

// TestPushMRunToRunIdentity: identical pushM jobs produce identical bits.
// The hot vertices' accumulators used to fold in arrival order across
// senders, so every run of this job had its own value hash.
func TestPushMRunToRunIdentity(t *testing.T) {
	g := graph.GenRMAT(3000, 40000, 0.57, 0.19, 0.19, 9)
	cfg := Config{Workers: 4, MsgBuf: 300, MaxSteps: 6, SendThreshold: 1200}
	first := runOne(t, g, algo.NewPageRank(0.85), cfg, PushM)
	for run := 1; run < 10; run++ {
		cfg.Parallelism = 1 + run%3
		again := runOne(t, g, algo.NewPageRank(0.85), cfg, PushM)
		for v := range first.Values {
			if math.Float64bits(again.Values[v]) != math.Float64bits(first.Values[v]) {
				t.Fatalf("run %d: vertex %d = %x, first run %x", run, v,
					math.Float64bits(again.Values[v]), math.Float64bits(first.Values[v]))
			}
		}
	}
}

// TestFirstShardSendsWithoutStaging: shard 0 of the update scan adds to the
// outbox as it goes and only the later shards stage, yet the outbox sees
// the sequential Add sequence — so under sender-side combining, where
// packet contents depend on exactly which messages meet in a buffer, the
// packets sent, the wire bytes and the message-log bytes are those of the
// sequential scan, for push and across hybrid's b-pull→push switch.
func TestFirstShardSendsWithoutStaging(t *testing.T) {
	g := graph.GenRMAT(900, 8100, 0.57, 0.19, 0.19, 77)
	for _, e := range []Engine{Push, Hybrid} {
		run := func(par int) (packets, logged, net int64, logIO int64) {
			reg := obs.NewRegistry()
			cfg := Config{Workers: 3, MsgBuf: 4000, MaxSteps: 8, SendThreshold: 1200, SenderCombine: true,
				Recovery: "confined", Parallelism: par, Metrics: reg}
			res := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
			snap := reg.Snapshot()
			return snap["comm.packets"], snap["msglog.bytes_logged"], res.NetBytes, res.LogIO.Total()
		}
		p1, l1, n1, io1 := run(1)
		if p1 == 0 || l1 == 0 {
			t.Fatalf("%s: %d packets, %d bytes logged: the job pushed nothing", e, p1, l1)
		}
		p4, l4, n4, io4 := run(4)
		if p1 != p4 || l1 != l4 || n1 != n4 || io1 != io4 {
			t.Errorf("%s: p=1 sent %d packets, %d wire bytes, logged %d (%d charged); p=4 %d, %d, %d (%d)",
				e, p1, n1, l1, io1, p4, n4, l4, io4)
		}
	}
}

// repeatFabric counts the packets that carry one destination vertex more
// than once.
type repeatFabric struct {
	closeThrough
	repeats *atomic.Int64
}

func (f repeatFabric) Send(p *comm.Packet) error {
	seen := make(map[graph.VertexID]bool, p.Msgs.Len())
	for i := 0; i < p.Msgs.Len(); i++ {
		d := p.Msgs.At(i).Dst
		if seen[d] {
			f.repeats.Add(1)
			break
		}
		seen[d] = true
	}
	return f.Fabric.Send(p)
}

// TestSenderCombineOnSwitchSuperstep: under SenderCombine every superstep
// that pushes combines its packets, hybrid's b-pull→push switch superstep
// included, so no packet carries a destination twice.
func TestSenderCombineOnSwitchSuperstep(t *testing.T) {
	g := graph.GenRMAT(900, 8100, 0.57, 0.19, 0.19, 77)
	var repeats atomic.Int64
	withFabricWrap(t, func(f comm.Fabric) comm.Fabric { return repeatFabric{closeThrough{f}, &repeats} })
	cfg := Config{Workers: 3, MsgBuf: 4000, MaxSteps: 8, SendThreshold: 1200, SenderCombine: true}
	res := runOne(t, g, algo.NewPageRank(0.85), cfg, Hybrid)
	switched := false
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i-1].Mode == string(BPull) && res.Steps[i].Mode == string(Push) {
			switched = true
		}
	}
	if !switched {
		t.Fatal("hybrid never switched from b-pull to push: the test needs a switch superstep")
	}
	if n := repeats.Load(); n != 0 {
		t.Fatalf("%d packets repeat a destination under SenderCombine", n)
	}
}

package core

import (
	"testing"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// TestEnginesOverTCP runs the engines with all worker communication over
// real loopback TCP sockets and checks the results and byte accounting
// match the in-process fabric.
func TestEnginesOverTCP(t *testing.T) {
	g := graph.GenRMAT(400, 3200, 0.57, 0.19, 0.19, 77)
	cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 6, VertexCache: 50}
	for name, prog := range map[string]algo.Program{
		"pagerank": algo.NewPageRank(0.85),
		"sssp":     algo.NewSSSP(0),
	} {
		for _, e := range []Engine{Push, BPull, Hybrid} {
			t.Run(name+"/"+string(e), func(t *testing.T) {
				local, err := Run(g, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				tcpCfg := cfg
				tcpCfg.TCP = true
				tcp, err := Run(g, prog, tcpCfg, e)
				if err != nil {
					t.Fatal(err)
				}
				if tcp.Supersteps() != local.Supersteps() {
					t.Fatalf("supersteps %d over TCP vs %d local", tcp.Supersteps(), local.Supersteps())
				}
				for v := range local.Values {
					if !almostEqual(tcp.Values[v], local.Values[v]) {
						t.Fatalf("vertex %d = %g over TCP, %g local", v, tcp.Values[v], local.Values[v])
					}
				}
				if tcp.NetBytes != local.NetBytes {
					t.Fatalf("net bytes %d over TCP vs %d local (accounting must be transport-independent)",
						tcp.NetBytes, local.NetBytes)
				}
			})
		}
	}
}

// TestEnginesOverFaultyTCP runs the engines over a TCP fabric with a
// seeded fault plan dropping, delaying and duplicating well over 5% of
// RPCs. The resilient fabric must absorb every fault via retries over a
// fresh connection and serving-side dedup: results, superstep counts and
// byte accounting must be identical to a fault-free in-process run.
func TestEnginesOverFaultyTCP(t *testing.T) {
	g := graph.GenRMAT(300, 2400, 0.57, 0.19, 0.19, 78)
	base := Config{Workers: 3, MsgBuf: 100, MaxSteps: 5}
	prog := algo.NewPageRank(0.85)
	for _, e := range []Engine{Push, BPull, Hybrid} {
		t.Run(string(e), func(t *testing.T) {
			local, err := Run(g, prog, base, e)
			if err != nil {
				t.Fatal(err)
			}
			faulty := base
			faulty.TCP = true
			faulty.FaultPlan = &faultplan.Plan{Net: &faultplan.TransportFaults{
				Seed:         101,
				DropRequest:  0.04,
				DropResponse: 0.02,
				Duplicate:    0.05,
				Delay:        0.05,
				MaxDelay:     2 * time.Millisecond,
			}}
			res, err := Run(g, prog, faulty, e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Supersteps() != local.Supersteps() {
				t.Fatalf("supersteps %d over faulty TCP vs %d local", res.Supersteps(), local.Supersteps())
			}
			for v := range local.Values {
				if !almostEqual(res.Values[v], local.Values[v]) {
					t.Fatalf("vertex %d = %g over faulty TCP, %g local", v, res.Values[v], local.Values[v])
				}
			}
			if res.NetBytes != local.NetBytes {
				t.Fatalf("net bytes %d over faulty TCP vs %d local (retries must not leak into accounting)",
					res.NetBytes, local.NetBytes)
			}
		})
	}
}

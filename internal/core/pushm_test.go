package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// pushChargeLines renders every charge one push-family job makes: the
// value bits, and per superstep the mode, the class-tagged disk bytes, ops
// and device bytes, the simulated seconds, peak memory, wire bytes, the
// Eq. (7)/(8) parts, the messages produced, the concatenation and
// combining savings in id units (McoBytes/MsgIDSize), and the Q^t bits.
func pushChargeLines(label string, res *metrics.JobResult) []string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	out := []string{fmt.Sprintf("%s values=%016x steps=%d", label, h.Sum64(), len(res.Steps))}
	for _, s := range res.Steps {
		out = append(out, fmt.Sprintf("%s step=%d mode=%s bytes=%v ops=%v dev=%v sim=%016x mem=%d net=%d parts=%v produced=%d combined=%d qt=%016x",
			label, s.Step, s.Mode, s.IO.Bytes, s.IO.Ops, s.IO.Dev, math.Float64bits(s.SimSeconds),
			s.MemBytes, s.NetBytes, s.Parts, s.Produced, s.McoBytes/comm.MsgIDSize, math.Float64bits(s.Qt)))
	}
	return out
}

// TestPushMChargesPinned pins pushM and sender-side combining to a file
// generated before push and b-pull shared one superstep function (go test
// ./internal/core -run TestPushMChargesPinned -update-golden) and
// committed unmodified: PageRank and SSSP under pushM with and without
// SenderCombine and under push with it, with a message buffer below the
// partition size so pushM's hot set is a strict subset, and one pushM job
// that checkpoints and loses a worker, whose checkpoint bytes pin the
// master record.
func TestPushMChargesPinned(t *testing.T) {
	g := graph.GenRMAT(1500, 15000, 0.57, 0.19, 0.19, 4242)
	programs := []struct {
		name string
		mk   func() algo.Program
	}{
		{"pagerank", func() algo.Program { return algo.NewPageRank(0.85) }},
		{"sssp", func() algo.Program { return algo.NewSSSP(0) }},
	}
	legs := []struct {
		engine  Engine
		combine bool
	}{{PushM, false}, {PushM, true}, {Push, true}}
	var lines []string
	for _, p := range programs {
		for _, l := range legs {
			cfg := Config{Workers: 3, MsgBuf: 150, MaxSteps: 9, SendThreshold: 1200,
				Parallelism: 2, SenderCombine: l.combine}
			label := fmt.Sprintf("%s/%s/combine=%v", p.name, l.engine, l.combine)
			lines = append(lines, pushChargeLines(label, runOne(t, g, p.mk(), cfg, l.engine))...)
		}
	}
	var journal bytes.Buffer
	cfg := Config{Workers: 3, MsgBuf: 150, MaxSteps: 9, SendThreshold: 1200, Parallelism: 2,
		Recovery: "checkpoint", CheckpointEvery: 2, TraceWriter: &journal,
		FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 6, Worker: 1})}
	res := runOne(t, g, algo.NewPageRank(0.85), cfg, PushM)
	if res.Checkpoints == 0 || res.Restores != 1 {
		t.Fatalf("%d checkpoints, %d restores: the crash leg needs both", res.Checkpoints, res.Restores)
	}
	lines = append(lines, goldenRecoveryLine("pagerank/pushM/checkpoint/crash", res, recoveryEvents(t, journal.Bytes())))
	checkGolden(t, "golden_pushm.txt", lines)
}

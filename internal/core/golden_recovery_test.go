package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// recoveryEvents lists the recovery-side journal events of one run in
// emission order, each tagged with the superstep it names.
func recoveryEvents(t *testing.T, journal []byte) string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(journal))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type        string `json:"type"`
			Step        int    `json:"step"`
			RestartStep int    `json:"restart_step"`
			Worker      int    `json:"worker"`
			Host        int    `json:"host"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "recovery":
			out = append(out, fmt.Sprintf("recovery@%d", ev.RestartStep))
		case "restore", "restore_failed":
			out = append(out, fmt.Sprintf("%s@%d", ev.Type, ev.Step))
		case "replay_step":
			out = append(out, fmt.Sprintf("replay_step@%d/w%d", ev.Step, ev.Worker))
		case "reassign":
			out = append(out, fmt.Sprintf("reassign@%d/w%d>%d", ev.Step, ev.Worker, ev.Host))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(out, ",")
}

// goldenRecoveryLine renders one recovered run's values hash and its whole
// recovery accounting.
func goldenRecoveryLine(label string, res *metrics.JobResult, events string) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s values=%016x steps=%d restarts=%d restores=%d replayed=%d confined=%d "+
		"reassign=%d stalls=%d ckpts=%d degraded=%v replay_io=%v replay_net=%d ckpt_io=%v "+
		"mig_io=%v mig_net=%d recovery_sim=%016x events=[%s]",
		label, h.Sum64(), len(res.Steps), res.Restarts, res.Restores, res.ReplayedSupersteps,
		res.ConfinedRecoveries, res.Reassignments, res.Stalls, res.Checkpoints, res.Degraded,
		res.ReplayIO, res.ReplayNetBytes, res.CheckpointIO, res.MigrationIO, res.MigrationNetBytes,
		math.Float64bits(res.RecoverySimSeconds), events)
}

// TestGoldenRecovery pins the exact recovery accounting of every policy to
// a file generated before the recovery paths were merged (go test
// ./internal/core -run TestGoldenRecovery -update-golden) and committed
// unmodified: every policy × {push, b-pull, hybrid} (plus the pull baseline
// for the policies that support it) × {one crash; a crash then a stall},
// and under reassign a permanent crash too. Each line holds the value
// bits, the recovery counters and byte tallies, the bits of
// RecoverySimSeconds and the ordered recovery journal events.
func TestGoldenRecovery(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 71)
	plans := []struct {
		name string
		plan *faultplan.Plan
	}{
		{"crash", faultplan.NewPlan(faultplan.Crash{Step: 6, Worker: 1})},
		{"crash+stall", faultplan.NewPlan(faultplan.Crash{Step: 2, Worker: 0}).
			WithStalls(faultplan.Stall{Step: 5, Worker: 2})},
		{"permanent", faultplan.NewPlan(faultplan.PermanentCrash(6, 1))},
	}
	var lines []string
	for _, policy := range []string{"scratch", "resume", "checkpoint", "confined", "reassign"} {
		engines := []Engine{Push, BPull, Hybrid}
		if policy == "scratch" || policy == "resume" || policy == "checkpoint" {
			engines = append(engines, Pull)
		}
		for _, e := range engines {
			for _, p := range plans {
				if p.name == "permanent" && policy != "reassign" {
					continue
				}
				var journal bytes.Buffer
				cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, Parallelism: 2,
					Recovery: policy, FaultPlan: p.plan,
					TraceWriter: &journal}
				if policy != "scratch" && policy != "resume" {
					cfg.CheckpointEvery = 2
				}
				label := fmt.Sprintf("%s/%s/%s", policy, e, p.name)
				res := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
				lines = append(lines, goldenRecoveryLine(label, res, recoveryEvents(t, journal.Bytes())))
			}
		}
	}
	checkGolden(t, "golden_recovery.txt", lines)
}

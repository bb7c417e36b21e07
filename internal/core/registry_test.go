package core

import (
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// TestRegistryMirrorsResult pins every instrument a job reports to its
// metrics registry against the JobResult it returns, in three scenarios
// that between them fire each of them: a clean hybrid job that spills and
// switches, a confined job with checkpoints, one crash and one stall, and
// a reassign job with a permanent crash. Where the result holds an exact
// counterpart the instrument must equal it; where it holds none the
// instrument must be non-zero in the scenario that fires it.
func TestRegistryMirrorsResult(t *testing.T) {
	g := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 21)
	for _, sc := range []struct {
		name    string
		prog    algo.Program
		cfg     Config
		nonZero []string
	}{
		{name: "hybrid", prog: algo.NewSSSP(0),
			cfg: Config{Workers: 3, MsgBuf: 50, MaxSteps: 12}},
		{name: "confined", prog: algo.NewPageRank(0.85),
			cfg: Config{Workers: 3, MsgBuf: 150, MaxSteps: 9, CheckpointEvery: 3,
				Recovery: "confined",
				FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 4, Worker: 0}).
					WithStalls(faultplan.Stall{Step: 8, Worker: 2})},
			nonZero: []string{"core.injected_faults", "core.recoveries",
				"core.stalled_workers", "core.confined_recoveries", "replay.supersteps",
				"replay.bytes", "checkpoint.commits", "checkpoint.bytes",
				"checkpoint.restores", "msglog.bytes_logged", "msglog.segments_pruned"}},
		{name: "reassign", prog: algo.NewPageRank(0.85),
			cfg: Config{Workers: 3, MsgBuf: 150, MaxSteps: 9, CheckpointEvery: 3,
				Recovery:  "reassign",
				FaultPlan: faultplan.NewPlan(faultplan.PermanentCrash(5, 1))},
			nonZero: []string{"core.injected_faults", "core.recoveries",
				"core.reassignments", "migration.io_bytes", "migration.net_bytes",
				"core.workers_degraded", "checkpoint.commits", "checkpoint.bytes"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := sc.cfg
			cfg.Metrics = reg
			res, err := Run(g, sc.prog, cfg, Hybrid)
			if err != nil {
				t.Fatal(err)
			}
			var updated, produced, spilled int64
			switches := 0
			for _, st := range res.Steps {
				updated += st.Updated
				produced += st.Produced
				spilled += st.Spilled
				if st.SwitchedFrom != "" {
					switches++
				}
			}
			degraded := int64(0)
			if res.Degraded {
				degraded = 1
			}
			want := map[string]int64{
				"core.recoveries":              int64(res.Restarts),
				"core.stalled_workers":         int64(res.Stalls),
				"core.confined_recoveries":     int64(res.ConfinedRecoveries),
				"replay.supersteps":            int64(res.ReplayedSupersteps),
				"checkpoint.commits":           int64(res.Checkpoints),
				"checkpoint.restores":          int64(res.Restores),
				"checkpoint.write_failures":    int64(res.CheckpointWriteFailures),
				"core.disk_faults":             int64(res.DiskFaults),
				"core.reassignments":           int64(res.Reassignments),
				"migration.io_bytes":           res.MigrationIO.Total(),
				"migration.net_bytes":          res.MigrationNetBytes,
				"core.workers_degraded":        degraded,
				"core.compression_ratio_milli": int64(res.CompressionRatio * 1000),
				"core.mem_bytes_peak":          res.MaxMemBytes,
				// Only storage faults fail a restore or a prune, and none
				// of the scenarios injects one.
				"checkpoint.restore_failures": 0,
				"checkpoint.prune_failures":   0,
			}
			if res.Restarts == 0 {
				// Without a recovery no superstep is discarded or revised,
				// so the per-superstep instruments sum the recorded steps.
				for name, v := range map[string]int64{
					"core.supersteps":       int64(len(res.Steps)),
					"core.superstep":        int64(res.Steps[len(res.Steps)-1].Step),
					"core.updated_vertices": updated,
					"core.produced_msgs":    produced,
					"core.spilled_msgs":     spilled,
					"core.net_bytes":        res.NetBytes,
					"core.io_bytes":         res.IO.Total(),
					"core.phys_bytes":       res.PhysIO.Total(),
					"msglog.bytes_logged":   res.LogIO.Total(),
					"core.mode_switches":    int64(switches),
				} {
					want[name] = v
				}
				if spilled == 0 || switches == 0 {
					t.Fatalf("spilled=%d switches=%d: the clean job must spill and switch", spilled, switches)
				}
			} else {
				sc.nonZero = append(sc.nonZero, "core.supersteps", "core.superstep",
					"core.updated_vertices", "core.produced_msgs", "core.net_bytes",
					"core.io_bytes", "core.phys_bytes")
			}
			snap := reg.Snapshot()
			for name, v := range want {
				if snap[name] != v {
					t.Errorf("%s = %d, result has %d", name, snap[name], v)
				}
			}
			for _, name := range sc.nonZero {
				if snap[name] == 0 {
					t.Errorf("%s = 0, want non-zero", name)
				}
			}
		})
	}
}

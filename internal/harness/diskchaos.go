package harness

import (
	"errors"
	"fmt"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// DiskChaos runs the seeded storage-fault campaign: deterministic disk
// faults (failed fsyncs, ENOSPC, torn writes, simulated power cuts)
// layered under the crash/stall schedules of the chaos campaign, over
// every loggable engine. The gate is the durability contract: every run
// either completes with final vertex values byte-identical to a
// fault-free run of the same configuration, or fails with a typed error
// matching diskio.ErrDiskFault — anything else (an untyped failure, or a
// completed run with diverged values) is an error, not a table row.
//
// Three fault legs per (engine, seed, policy) cell:
//
//   - syncfail: every fsync may fail. Checkpoint attempts are abandoned,
//     never trusted; the job must still complete byte-identical while
//     crashes and stalls force recovery from whatever did commit.
//   - writefault: seeded ENOSPC and torn writes on the data path. The
//     write that faults fails its superstep, so the job must surface a
//     typed error (or, if the stream spares it, finish identical).
//   - powercut: the machine loses power on a deterministic mutating op.
//     The job must fail, typed, and diskio.IsPowerCut must see it.
func DiskChaos(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ds, err := graph.DatasetByName("livej")
	if err != nil {
		return nil, err
	}
	g := ds.GenerateCached(o.Scale)

	seeds := []int64{o.ChaosSeed, o.ChaosSeed + 1, o.ChaosSeed + 2}
	engines := []core.Engine{core.Push, core.BPull, core.Hybrid}
	policies := []string{"checkpoint", "confined"}
	if o.Quick {
		seeds = seeds[:2]
		engines = []core.Engine{core.Push, core.Hybrid}
		policies = []string{"checkpoint"}
	}
	if o.Recovery != "" {
		policies = []string{o.Recovery}
	}

	tb := &Table{ID: "diskchaos",
		Title: "Disk-fault chaos: seeded storage faults under crash+stall plans, values vs fault-free run",
		Header: []string{"seed", "engine", "policy", "leg", "crashes", "stalls",
			"disk-faults", "ckpt-abandoned", "restarts", "outcome"}}

	base := core.Config{Workers: o.Workers, MsgBuf: 64, MaxSteps: 8,
		Profile: o.Profile, CheckpointEvery: 2, Codec: o.Codec, TraceDir: o.TraceDir, Metrics: o.Metrics}

	identical, typed, faultsSeen := 0, 0, 0
	for _, e := range engines {
		clean, err := core.Run(g, algo.NewPageRank(0.85), base, e)
		if err != nil {
			return nil, err
		}
		for _, seed := range seeds {
			for _, policy := range policies {
				type leg struct {
					name string
					disk diskio.FaultConfig
					plan bool // layer the crash+stall schedule under the disk faults
				}
				legs := []leg{
					{"syncfail", diskio.FaultConfig{Seed: seed, SyncFail: 0.2}, true},
					{"writefault", diskio.FaultConfig{Seed: seed, WriteENOSPC: 2e-4, TornWrite: 2e-4}, false},
					{"powercut", diskio.FaultConfig{Seed: seed, PowerCutAfter: 40 + 20*seed}, false},
				}
				for _, l := range legs {
					cfg := base
					cfg.Recovery = policy
					plan := faultplan.NewPlan()
					if l.plan {
						plan = faultplan.NewPlan(faultplan.RandomCrashes(seed, 2, 6, o.Workers)...).
							WithStalls(faultplan.RandomStalls(seed+9973, 1, 6, o.Workers)...)
					}
					cfg.FaultPlan = plan.WithDisk(l.disk)

					res, err := core.Run(g, algo.NewPageRank(0.85), cfg, e)
					row := []string{fmt.Sprintf("%d", seed), string(e), policy, l.name,
						fmt.Sprintf("%d", len(plan.Crashes)), fmt.Sprintf("%d", len(plan.Stalls))}
					switch {
					case err == nil:
						if l.name == "powercut" {
							return nil, fmt.Errorf("disk chaos seed %d %s/%s: power cut at op %d never fired",
								seed, e, policy, l.disk.PowerCutAfter)
						}
						for v := range clean.Values {
							if res.Values[v] != clean.Values[v] {
								return nil, fmt.Errorf("disk chaos seed %d %s/%s/%s: vertex %d = %g, fault-free run has %g",
									seed, e, policy, l.name, v, res.Values[v], clean.Values[v])
							}
						}
						identical++
						faultsSeen += res.DiskFaults
						row = append(row, fmt.Sprintf("%d", res.DiskFaults),
							fmt.Sprintf("%d", res.CheckpointWriteFailures),
							fmt.Sprintf("%d", res.Restarts), "identical")
					case errors.Is(err, diskio.ErrDiskFault):
						if l.name == "powercut" && !diskio.IsPowerCut(err) {
							return nil, fmt.Errorf("disk chaos seed %d %s/%s: power-cut leg failed with a different fault: %v",
								seed, e, policy, err)
						}
						typed++
						faultsSeen++
						row = append(row, "-", "-", "-", "typed-fault")
					default:
						return nil, fmt.Errorf("disk chaos seed %d %s/%s/%s: untyped failure: %w",
							seed, e, policy, l.name, err)
					}
					tb.Rows = append(tb.Rows, row)
				}
			}
		}
	}
	// The campaign must exercise both halves of the contract, or the rates
	// are mistuned and the gate is vacuous.
	if identical == 0 {
		return nil, fmt.Errorf("disk chaos: no run completed; the byte-identity half never ran")
	}
	if typed == 0 {
		return nil, fmt.Errorf("disk chaos: no run failed typed; the fault path never ran")
	}
	if faultsSeen == 0 {
		return nil, fmt.Errorf("disk chaos: no disk fault was ever injected")
	}
	return []*Table{tb}, nil
}

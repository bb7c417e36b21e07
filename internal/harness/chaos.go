package harness

import (
	"errors"
	"fmt"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/core"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// Chaos runs the seeded chaos campaign: deterministic multi-crash ×
// stall × transport-fault schedules over every loggable engine, asserting
// after each run that the final vertex values are byte-identical to a
// fault-free run of the same configuration. A mismatch is an error, not a
// table row — the campaign is a correctness gate first and a report
// second.
func Chaos(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ds, err := graph.DatasetByName("livej")
	if err != nil {
		return nil, err
	}
	g := ds.GenerateCached(o.Scale)

	seeds := []int64{o.ChaosSeed, o.ChaosSeed + 1, o.ChaosSeed + 2, o.ChaosSeed + 3}
	policies := []string{"confined", "checkpoint", "scratch"}
	if o.Quick {
		seeds = seeds[:2]
		policies = []string{"confined", "checkpoint"}
	}
	if o.Recovery != "" {
		policies = []string{o.Recovery}
	}
	progs := map[string]func() algo.Program{
		"pagerank": func() algo.Program { return algo.NewPageRank(0.85) },
		"sssp":     func() algo.Program { return algo.NewSSSP(0) },
	}
	algs := []string{"pagerank", "sssp"}
	if o.Quick {
		algs = algs[:1]
	}

	tb := &Table{ID: "chaos", Title: "Chaos campaign: seeded crash+stall+transport faults, values vs fault-free run",
		Header: []string{"seed", "algo", "engine", "policy", "tcp", "crashes", "stalls",
			"restarts", "replayed", "recovery(sim s)", "replay(B)", "values"}}

	base := core.Config{Workers: o.Workers, MsgBuf: 64, MaxSteps: 8,
		Profile: o.Profile, CheckpointEvery: 3, Codec: o.Codec, TraceDir: o.TraceDir, Metrics: o.Metrics}

	for _, alg := range algs {
		for _, e := range []core.Engine{core.Push, core.BPull, core.Hybrid} {
			clean, err := core.Run(g, progs[alg](), base, e)
			if err != nil {
				return nil, err
			}
			for _, seed := range seeds {
				plan := faultplan.NewPlan(faultplan.RandomCrashes(seed, 2, 6, o.Workers)...).
					WithStalls(faultplan.RandomStalls(seed+9973, 1, 6, o.Workers)...)
				// One TCP leg per seed exercises the resilient fabric's
				// retry/dedup under the same crash+stall schedule.
				tcp := seed == seeds[0]
				if tcp {
					plan.Net = &faultplan.TransportFaults{Seed: seed,
						DropRequest: 0.02, DropResponse: 0.02, Duplicate: 0.02}
				}
				for _, policy := range policies {
					cfg := base
					cfg.Recovery = policy
					cfg.FaultPlan = plan
					cfg.TCP = tcp
					res, err := core.Run(g, progs[alg](), cfg, e)
					if err != nil {
						return nil, fmt.Errorf("chaos seed %d %s/%s/%s: %w", seed, alg, e, policy, err)
					}
					for v := range clean.Values {
						if res.Values[v] != clean.Values[v] {
							return nil, fmt.Errorf("chaos seed %d %s/%s/%s: vertex %d = %g, fault-free run has %g",
								seed, alg, e, policy, v, res.Values[v], clean.Values[v])
						}
					}
					tb.Rows = append(tb.Rows, []string{
						fmt.Sprintf("%d", seed), alg, string(e), policy,
						fmt.Sprintf("%v", tcp),
						fmt.Sprintf("%d", len(plan.Crashes)), fmt.Sprintf("%d", res.Stalls),
						fmt.Sprintf("%d", res.Restarts), fmt.Sprintf("%d", res.ReplayedSupersteps),
						fmtSeconds(res.RecoverySimSeconds), fmtBytes(res.ReplayIO.Total()),
						"identical"})
				}
			}
		}
	}
	return []*Table{tb}, nil
}

// ReassignChaos runs the permanent-loss campaign: seeded permanent
// crashes (plus a stall and transport faults on some legs) under the
// reassign policy, over every loggable engine. Each run must finish with
// values byte-identical to a fault-free run, with the dead workers'
// partitions adopted by survivors and migration bytes charged — or fail
// with the typed no-survivors error when a schedule kills every machine.
func ReassignChaos(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ds, err := graph.DatasetByName("livej")
	if err != nil {
		return nil, err
	}
	g := ds.GenerateCached(o.Scale)

	seeds := []int64{o.ChaosSeed, o.ChaosSeed + 1, o.ChaosSeed + 2, o.ChaosSeed + 3}
	if o.Quick {
		seeds = seeds[:2]
	}
	progs := map[string]func() algo.Program{
		"pagerank": func() algo.Program { return algo.NewPageRank(0.85) },
		"sssp":     func() algo.Program { return algo.NewSSSP(0) },
	}
	algs := []string{"pagerank", "sssp"}
	if o.Quick {
		algs = algs[:1]
	}

	tb := &Table{ID: "reassignchaos", Title: "Reassign campaign: seeded permanent crashes, partitions adopted, values vs fault-free run",
		Header: []string{"seed", "algo", "engine", "tcp", "perm-crashes", "stalls",
			"reassigns", "migration(B)", "net-migration(B)", "values"}}

	base := core.Config{Workers: o.Workers, MsgBuf: 64, MaxSteps: 8,
		Profile: o.Profile, CheckpointEvery: 3, Recovery: "reassign",
		MaxRestarts: 1, Codec: o.Codec, TraceDir: o.TraceDir, Metrics: o.Metrics}

	for _, alg := range algs {
		for _, e := range []core.Engine{core.Push, core.BPull, core.Hybrid} {
			cleanCfg := base
			cleanCfg.Recovery = ""
			clean, err := core.Run(g, progs[alg](), cleanCfg, e)
			if err != nil {
				return nil, err
			}
			for _, seed := range seeds {
				// Up to two permanent losses out of o.Workers machines: the
				// cluster shrinks but survives. One seeded stall leg layers a
				// repeated-stall escalation on top.
				plan := faultplan.NewPlan(faultplan.RandomPermanentCrashes(seed, 2, 6, o.Workers)...).
					WithStalls(faultplan.RandomStalls(seed+9973, 1, 6, o.Workers)...)
				tcp := seed == seeds[0]
				if tcp {
					plan.Net = &faultplan.TransportFaults{Seed: seed,
						DropRequest: 0.02, DropResponse: 0.02, Duplicate: 0.02}
				}
				cfg := base
				cfg.FaultPlan = plan
				cfg.TCP = tcp
				res, err := core.Run(g, progs[alg](), cfg, e)
				if err != nil {
					if errors.Is(err, core.ErrNoSurvivors) {
						tb.Rows = append(tb.Rows, []string{
							fmt.Sprintf("%d", seed), alg, string(e), fmt.Sprintf("%v", tcp),
							fmt.Sprintf("%d", len(plan.Crashes)), "-", "-", "-", "-",
							"no-survivors"})
						continue
					}
					return nil, fmt.Errorf("reassign chaos seed %d %s/%s: %w", seed, alg, e, err)
				}
				if res.Reassignments < 1 {
					return nil, fmt.Errorf("reassign chaos seed %d %s/%s: no reassignment despite permanent crashes", seed, alg, e)
				}
				if res.MigrationIO.Total() <= 0 || !res.Degraded {
					return nil, fmt.Errorf("reassign chaos seed %d %s/%s: migration accounting empty (io=%d degraded=%v)",
						seed, alg, e, res.MigrationIO.Total(), res.Degraded)
				}
				for v := range clean.Values {
					if res.Values[v] != clean.Values[v] {
						return nil, fmt.Errorf("reassign chaos seed %d %s/%s: vertex %d = %g, fault-free run has %g",
							seed, alg, e, v, res.Values[v], clean.Values[v])
					}
				}
				tb.Rows = append(tb.Rows, []string{
					fmt.Sprintf("%d", seed), alg, string(e), fmt.Sprintf("%v", tcp),
					fmt.Sprintf("%d", len(plan.Crashes)), fmt.Sprintf("%d", res.Stalls),
					fmt.Sprintf("%d", res.Reassignments),
					fmtBytes(res.MigrationIO.Total()), fmtBytes(res.MigrationNetBytes),
					"identical"})
			}
		}
	}
	return []*Table{tb}, nil
}

// RecoveryCost compares the four recovery policies on an identical fault
// plan: what each pays during normal execution (checkpoints, message
// logging) and at recovery time (restores, discarded or replayed work).
// Confined's claim is the replay column: recovery cost proportional to
// one worker's partition, not the cluster's.
func RecoveryCost(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ds, err := graph.DatasetByName("livej")
	if err != nil {
		return nil, err
	}
	g := ds.GenerateCached(o.Scale)

	plan := faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})
	engines := []core.Engine{core.Push, core.BPull, core.Hybrid}
	if o.Quick {
		engines = engines[:1]
	}
	policies := []string{"scratch", "resume", "checkpoint", "confined"}
	if o.Recovery != "" {
		policies = []string{o.Recovery}
	}

	tb := &Table{ID: "recovery", Title: "Recovery cost by policy (SSSP, crash at superstep 5)",
		Header: []string{"engine", "policy", "total(sim s)", "recovery(sim s)",
			"replayed", "replay(B)", "ckpt(B)", "log(B)"}}
	for _, e := range engines {
		for _, policy := range policies {
			cfg := core.Config{Workers: o.Workers, MsgBuf: 64, MaxSteps: 30,
				Profile: o.Profile, CheckpointEvery: 3, Recovery: policy,
				FaultPlan: plan, Codec: o.Codec, TraceDir: o.TraceDir, Metrics: o.Metrics}
			res, err := core.Run(g, algo.NewSSSP(0), cfg, e)
			if err != nil {
				return nil, err
			}
			tb.Rows = append(tb.Rows, []string{string(e), policy,
				fmtSeconds(res.SimSeconds), fmtSeconds(res.RecoverySimSeconds),
				fmt.Sprintf("%d", res.ReplayedSupersteps),
				fmtBytes(res.ReplayIO.Total()), fmtBytes(res.CheckpointIO.Total()),
				fmtBytes(res.LogIO.Total())})
		}
	}
	return []*Table{tb}, nil
}

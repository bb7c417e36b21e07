// Command hybridgraph runs iterative graph jobs: either one synchronous
// job from flags (the legacy mode), or against a long-running graph
// service daemon via subcommands.
//
// One-shot mode:
//
//	hybridgraph -graph wiki -algo pagerank -engine hybrid -buffer 1000 -v
//	hybridgraph -file edges.txt -algo sssp -source 0 -engine b-pull
//
// Service mode:
//
//	hybridgraph serve -addr :8080 -data /var/lib/hybridgraph
//	hybridgraph ingest -server http://localhost:8080 -name web1 -gen web -vertices 10000 -edges 80000
//	hybridgraph submit -server http://localhost:8080 -graph web1 -algo pagerank -engine hybrid -wait
//	hybridgraph status job-000001 | result job-000001 | cancel job-000001 | ls | workers
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hybridgraph"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve", "ingest", "submit", "status", "result", "cancel", "ls", "workers":
			if err := runService(os.Args[1], os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	runLegacy()
}

func runLegacy() {
	var (
		dataset   = flag.String("graph", "wiki", "synthetic dataset name (livej, wiki, orkut, twi, fri, uk)")
		file      = flag.String("file", "", "edge-list file to load instead of a synthetic dataset")
		scale     = flag.Float64("scale", 0.25, "synthetic dataset scale factor")
		algoName  = flag.String("algo", "pagerank", "algorithm: pagerank, sssp, lpa, sa, multiphase")
		engine    = flag.String("engine", "hybrid", "engine: push, pushM, pull, b-pull, hybrid")
		workers   = flag.Int("workers", 5, "number of computational nodes")
		buffer    = flag.Int("buffer", 0, "message buffer B_i per worker in messages (0 = unlimited)")
		steps     = flag.Int("steps", 0, "maximum supersteps (0 = algorithm default)")
		source    = flag.Uint("source", 0, "source vertex for sssp")
		inMemory  = flag.Bool("inmemory", false, "sufficient-memory scenario (no disk)")
		ssd       = flag.Bool("ssd", false, "use the SSD (amazon) cost model instead of HDD")
		blocks    = flag.Int("blocks", 0, "Vblocks per worker (0 = Eq. 5/6 automatic)")
		cache     = flag.Int("cache", 0, "pull baseline vertex cache per worker (0 = unbounded)")
		threshold = flag.Int64("threshold", 0, "sending threshold in bytes (0 = 4MB default)")
		par       = flag.Int("parallelism", 0, "per-worker compute goroutines (0 = NumCPU/workers); results are identical at any value")
		verbose   = flag.Bool("v", false, "print per-superstep statistics")
		trace     = flag.String("trace", "", "write a JSONL superstep trace journal to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		metrics   = flag.Bool("metrics", false, "print the metrics registry after the run (implied by -debug-addr)")

		recovery  = flag.String("recovery", "", "recovery policy: scratch, resume, checkpoint, confined, reassign")
		maxRest   = flag.Int("max-restarts", 0, "with -recovery reassign: per-worker failure budget before its partition is adopted by a survivor (0 = default)")
		crashes   = flag.String("crashes", "", "inject worker crashes, comma-separated step:worker pairs (e.g. 4:1,7:0)")
		diskSpec  = flag.String("disk-faults", "", "inject seeded storage faults, comma-separated k=v spec: seed=1,enospc=0.01,torn=0.01,syncfail=0.05,bitflip=0.001,cut=500,max=3")
		stalls    = flag.String("stalls", "", "inject worker stalls, comma-separated step:worker pairs")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N supersteps (0 = policy default)")
		tcp       = flag.Bool("tcp", false, "run worker communication over loopback TCP")
		codecName = flag.String("codec", "", "block codec for on-disk stores: none, delta, lz (default none)")
		chargePhy = flag.Bool("charge-physical", false, "cost model charges physical (post-codec) bytes instead of logical bytes")
		netSeed   = flag.Int64("net-seed", 0, "transport fault seed (with -tcp)")
		netDrop   = flag.Float64("net-drop", 0, "probability that a request or response is lost to a broken connection (with -tcp)")
		netDup    = flag.Float64("net-dup", 0, "transport duplicate probability (with -tcp)")
	)
	flag.Parse()

	var g *hybridgraph.Graph
	var name string
	if *file != "" {
		var err error
		g, err = hybridgraph.LoadEdgeList(*file)
		if err != nil {
			fatal(err)
		}
		name = *file
	} else {
		ds, err := hybridgraph.DatasetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = ds.Generate(*scale)
		name = ds.Name
	}

	prog, ok := hybridgraph.AlgorithmByName(*algoName, hybridgraph.VertexID(*source))
	if !ok {
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	maxSteps := *steps
	if maxSteps == 0 {
		if *algoName == "pagerank" || *algoName == "lpa" {
			maxSteps = 5
		} else {
			maxSteps = 100
		}
	}
	profile := hybridgraph.HDDLocal
	if *ssd {
		profile = hybridgraph.SSDAmazon
	}
	cfg := hybridgraph.Config{
		Workers:         *workers,
		MsgBuf:          *buffer,
		InMemory:        *inMemory,
		MaxSteps:        maxSteps,
		Profile:         profile,
		BlocksPerWorker: *blocks,
		VertexCache:     *cache,
		SendThreshold:   *threshold,
		Parallelism:     *par,
		TracePath:       *trace,
		Recovery:        *recovery,
		MaxRestarts:     *maxRest,
		CheckpointEvery: *ckptEvery,
		TCP:             *tcp,
		Codec:           *codecName,
		ChargePhysical:  *chargePhy,
	}
	if *crashes != "" || *stalls != "" || *netDrop > 0 || *netDup > 0 || *diskSpec != "" {
		plan := hybridgraph.NewFaultPlan()
		for _, p := range parsePairs(*crashes) {
			plan.Crashes = append(plan.Crashes, hybridgraph.Crash{Step: p[0], Worker: p[1]})
		}
		var sts []hybridgraph.Stall
		for _, p := range parsePairs(*stalls) {
			sts = append(sts, hybridgraph.Stall{Step: p[0], Worker: p[1]})
		}
		plan.WithStalls(sts...)
		if *netDrop > 0 || *netDup > 0 {
			plan.Net = &hybridgraph.TransportFaults{Seed: *netSeed,
				DropRequest: *netDrop, DropResponse: *netDrop, Duplicate: *netDup}
		}
		if *diskSpec != "" {
			dc, err := parseDiskFaults(*diskSpec)
			if err != nil {
				fatal(err)
			}
			plan.WithDisk(dc)
		}
		cfg.FaultPlan = plan
	}
	var reg *hybridgraph.Metrics
	if *metrics || *debugAddr != "" {
		reg = hybridgraph.NewMetrics()
		cfg.Metrics = reg
	}
	if *debugAddr != "" {
		srv, err := hybridgraph.StartDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug    : http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr)
	}

	res, err := hybridgraph.Run(g, prog, cfg, hybridgraph.Engine(*engine))
	if err != nil {
		fatal(err)
	}
	res.Dataset = name

	fmt.Printf("job      : %s / %s / %s  (%d vertices, %d edges, %d workers, %s)\n",
		name, prog.Name(), *engine, g.NumVertices, g.NumEdges(), *workers, profile.Name)
	fmt.Printf("supersteps: %d\n", res.Supersteps())
	fmt.Printf("runtime  : %.4f s simulated (%.4f s wall)\n", res.SimSeconds, res.WallSeconds)
	fmt.Printf("disk     : %s (device total %d B)\n", res.IO.String(), res.IO.DevTotal())
	fmt.Printf("network  : %d B\n", res.NetBytes)
	fmt.Printf("memory   : %d B peak buffers\n", res.MaxMemBytes)
	fmt.Printf("loading  : %.4f s simulated, %d B written\n", res.LoadSimSeconds, res.LoadIO.Total())
	if *codecName != "" && *codecName != "none" {
		phys := res.PhysIO.Total() + res.LoadPhysIO.Total() + res.CheckpointPhysIO.Total() +
			res.ReplayPhysIO.Total() + res.MigrationPhysIO.Total()
		fmt.Printf("codec    : %s, %d B physical (%.2fx compression)\n",
			*codecName, phys, res.CompressionRatio)
	}
	if res.Restarts > 0 {
		fmt.Printf("recovery : %d restarts (%d stalls, %d confined), %d supersteps replayed, %.4f s simulated, %d B replayed, %d B logged\n",
			res.Restarts, res.Stalls, res.ConfinedRecoveries, res.ReplayedSupersteps,
			res.RecoverySimSeconds, res.ReplayIO.Total(), res.LogIO.Total())
	}

	if res.Reassignments > 0 {
		fmt.Printf("reassign : %d partitions adopted by survivors (degraded run), %d B migrated, %d B over the network\n",
			res.Reassignments, res.MigrationIO.Total(), res.MigrationNetBytes)
	}

	if res.DiskFaults > 0 || res.CheckpointWriteFailures > 0 {
		fmt.Printf("storage  : %d disk faults injected, %d checkpoint attempts abandoned\n",
			res.DiskFaults, res.CheckpointWriteFailures)
	}

	if *trace != "" {
		fmt.Printf("trace    : %s\n", *trace)
	}

	if *verbose {
		fmt.Println("\nstep  mode    updated  respond  produced  spilled  net-bytes  io-bytes   Qt")
		for _, s := range res.Steps {
			fmt.Printf("%4d  %-6s %8d %8d %9d %8d %10d %9d  %+.3g\n",
				s.Step, s.Mode, s.Updated, s.Responding, s.Produced, s.Spilled,
				s.NetBytes, s.IO.DevTotal(), s.Qt)
		}
	}

	if reg != nil {
		fmt.Println("\nmetrics:")
		reg.WriteTo(os.Stdout)
	}
}

// parseDiskFaults decodes the -disk-faults "k=v,k=v" spec into a seeded
// storage-fault description.
func parseDiskFaults(spec string) (hybridgraph.DiskFaults, error) {
	var cfg hybridgraph.DiskFaults
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("bad disk-fault field %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "enospc":
			cfg.WriteENOSPC, err = strconv.ParseFloat(v, 64)
		case "torn":
			cfg.TornWrite, err = strconv.ParseFloat(v, 64)
		case "syncfail":
			cfg.SyncFail, err = strconv.ParseFloat(v, 64)
		case "bitflip":
			cfg.ReadBitFlip, err = strconv.ParseFloat(v, 64)
		case "cut":
			cfg.PowerCutAfter, err = strconv.ParseInt(v, 10, 64)
		case "max":
			cfg.MaxFaults, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("unknown disk-fault key %q (want seed, enospc, torn, syncfail, bitflip, cut or max)", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("bad disk-fault value %q: %v", part, err)
		}
	}
	return cfg, nil
}

// parsePairs decodes "step:worker,step:worker" fault specs.
func parsePairs(spec string) [][2]int {
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var step, worker int
		if _, err := fmt.Sscanf(part, "%d:%d", &step, &worker); err != nil {
			fatal(fmt.Errorf("bad fault spec %q (want step:worker)", part))
		}
		out = append(out, [2]int{step, worker})
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridgraph:", err)
	os.Exit(1)
}

// Command experiments regenerates the paper's evaluation: every table and
// figure of Section 6 and the appendices, printed as text tables.
//
//	experiments -list
//	experiments -run fig8
//	experiments -all -scale 0.25 > results.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/harness"
	"hybridgraph/internal/obs"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "", "experiment to run (fig2, fig7..fig26, table4, table5)")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0.25, "dataset scale factor")
		workers = flag.Int("workers", 5, "small-graph worker count")
		largeW  = flag.Int("large-workers", 10, "large-graph worker count")
		quick   = flag.Bool("quick", false, "trimmed datasets and sweeps")
		ssd     = flag.Bool("ssd", false, "default to the SSD cost model")
		csvDir  = flag.String("csv", "", "also write each table as <dir>/<id>.csv")
		trace   = flag.String("trace", "", "export one JSONL superstep trace journal per job into this directory")
		dbgAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run")
		par     = flag.Int("parallelism", 0, "per-worker compute goroutines (0 = NumCPU/workers)")
		chaos   = flag.Int64("chaos-seed", 0, "base seed of the chaos campaign's fault schedules (0 = default 1)")
		policy  = flag.String("recovery", "", "restrict the chaos/recovery experiments to one policy: scratch, resume, checkpoint, confined, reassign")
		codecNm = flag.String("codec", "", "block codec every disk-backed job runs with: none, delta, lz (results identical; physical bytes shrink)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file once the experiments end")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-8s %s\n", e.Name, e.What)
		}
		return
	}
	opts := harness.Options{Scale: *scale, Workers: *workers, LargeWorkers: *largeW, Quick: *quick,
		Parallelism: *par, TraceDir: *trace, ChaosSeed: *chaos, Recovery: *policy,
		Codec: *codecNm}
	if *ssd {
		opts.Profile = diskio.SSDAmazon
	}
	if *dbgAddr != "" {
		opts.Metrics = obs.NewRegistry()
		srv, err := obs.StartDebug(*dbgAddr, opts.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: debug server at http://%s/metrics\n", srv.Addr)
	}

	var names []string
	switch {
	case *all:
		for _, e := range harness.Experiments {
			names = append(names, e.Name)
		}
	case *run != "":
		names = []string{*run}
	default:
		fmt.Fprintln(os.Stderr, "experiments: pass -run <name>, -all or -list")
		os.Exit(2)
	}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for _, name := range names {
		exp, ok := harness.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", name)
			os.Exit(1)
		}
		start := time.Now()
		tables, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s — %s (took %.1fs)\n\n", exp.Name, exp.What, time.Since(start).Seconds())
		for _, tb := range tables {
			tb.Fprint(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, tb); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func writeCSV(dir string, tb *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tb.ID+".csv"))
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

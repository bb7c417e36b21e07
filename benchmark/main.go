// Command benchmark is the repository's performance benchmark for the
// job path: four named workloads run through the public facade
// (hybridgraph.Run over a catalog entry) as a closed loop of one job at
// a time, ten end-to-end metrics per workload measured with tracing off,
// and a separate traced pass that times calls into each internal/ layer
// from outside. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                                  all workloads, both passes
//	go run ./benchmark -workload pr-spill -seed 11      one workload
//	go run ./benchmark -compare a.json b.json           two result files
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: it ends standard output with one JSON
// object holding the workload's end-to-end (trace 0) or per-layer
// (trace 1) medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	seed       int64
	workloads  []string
	rounds     int     // 0: each workload's own default
	seconds    float64 // > 0: timed rounds run for this long instead
	trace      string  // "0" end-to-end only, "1" traced pass only, "both"
	out        string
	cpuProfile string
	memProfile string
	size       sizing
}

// traceOnlyRounds is how many untraced rounds a -trace 1 run makes: the
// traced pass needs an untraced median to set its overhead and the
// hybrid-vs-best ratios against, not a tight one.
const traceOnlyRounds = 2

// header describes the run so two result files can be told apart.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	Trace      string  `json:"trace"`
	Started    string  `json:"started"`
}

// workloadResult is one workload's part of the results file.
type workloadResult struct {
	Name          string             `json:"name"`
	Vertices      int                `json:"vertices"`
	Edges         int                `json:"edges"`
	SSSPSource    *int               `json:"sssp_source,omitempty"`
	HybridModes   string             `json:"hybrid_modes"`
	Rounds        int                `json:"rounds"`
	JobsAttempted int                `json:"jobs_attempted"`
	JobsFailed    int                `json:"jobs_failed"`
	Failures      []string           `json:"failures,omitempty"`
	EndToEnd      map[string]summary `json:"end_to_end,omitempty"`
	PerLayer      map[string]summary `json:"per_layer,omitempty"`
}

type results struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	opt := options{size: fullSize}
	var workloadList string
	var compare, spec bool
	fs.Int64Var(&opt.seed, "seed", 7, "graph seed")
	fs.StringVar(&workloadList, "workload", "", "comma-separated workload names (default: all four)")
	fs.IntVar(&opt.rounds, "rounds", 0, "timed rounds per workload (default 11; pr-lz 9)")
	fs.Float64Var(&opt.seconds, "seconds", 0, "run timed rounds for this many seconds instead of a fixed count")
	fs.StringVar(&opt.trace, "trace", "both", "0: end-to-end metrics only; 1: traced pass only; both")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_out", "results.json"),
		"results file; span files and the scratch directory live beside it")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "CPU profile of each workload's timed rounds (relative paths land in the system temp directory)")
	fs.StringVar(&opt.memProfile, "memprofile", "", "allocation profile taken after each workload's timed rounds (likewise)")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&spec, "spec", false, "print BENCHMARK.json as this program defines it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case spec:
		fmt.Println(benchmarkJSON())
		return 0
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if opt.trace != "0" && opt.trace != "1" && opt.trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q (want 0, 1 or both)\n", opt.trace)
		return 2
	}
	for _, name := range strings.Split(workloadList, ",") {
		if name == "" {
			continue
		}
		if workloadByName(name) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		opt.workloads = append(opt.workloads, name)
	}
	if len(opt.workloads) == 0 {
		for _, wl := range workloads {
			opt.workloads = append(opt.workloads, wl.name)
		}
	}
	res, err := run(&opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResults(os.Stdout, res)
	failed := 0
	for _, w := range res.Workloads {
		failed += w.JobsFailed
	}
	if len(res.Workloads) == 1 {
		fmt.Println(driverLine(&res.Workloads[0]))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// run executes the selected workloads and writes the results file and,
// when tracing, one span file per workload beside it. Every other file
// the run creates lives under one scratch directory that is removed on
// the way out, failed or not. TMPDIR points there meanwhile, so the
// job's own default work directories land inside it too.
func run(opt *options) (*results, error) {
	outDir := filepath.Dir(opt.out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if scratch, err = filepath.Abs(scratch); err != nil {
		return nil, err
	}
	// An interrupted run removes its scratch directory too.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	defer close(interrupted) // after Stop, so no signal is sent on a closed channel
	defer signal.Stop(interrupted)
	go func() {
		if _, ok := <-interrupted; ok {
			os.RemoveAll(scratch)
			os.Exit(130)
		}
	}()
	oldTmp, hadTmp := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", scratch)
	defer func() {
		if hadTmp {
			os.Setenv("TMPDIR", oldTmp)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()

	res := &results{Header: header{Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: opt.seed,
		Rounds: opt.rounds, Seconds: opt.seconds, Trace: opt.trace,
		Started: time.Now().UTC().Format(time.RFC3339)}}
	for _, name := range opt.workloads {
		wr, err := runWorkload(opt, workloadByName(name), filepath.Join(scratch, name), outDir)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(opt.out, data, 0o644)
}

func runWorkload(opt *options, wl *workload, dir, outDir string) (*workloadResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	endToEnd, traced := opt.trace != "1", opt.trace != "0"
	r := &runner{opt: opt, wl: wl, dir: dir, e2e: series{}, lay: series{},
		firstHash: map[string]uint64{}, last: map[string]jobSample{}}
	if traced {
		r.rec = newRecorder(wl.name)
		r.root = r.rec.begin("wl/"+wl.name, 0)
	}
	setups := 1
	if endToEnd {
		setups = opt.size.setupRepeats
	}
	if err := r.setUpAll(setups); err != nil {
		return nil, err
	}
	r.round(false) // warm-up, discarded

	rounds, seconds := opt.rounds, opt.seconds
	if rounds <= 0 {
		rounds = wl.rounds
	}
	if !endToEnd {
		rounds, seconds = min(rounds, traceOnlyRounds), 0
	}
	stopProfile, err := startCPUProfile(opt.cpuProfile, wl.name)
	if err != nil {
		return nil, err
	}
	r.timedRounds(rounds, seconds)
	stopProfile()
	if err := writeAllocProfile(opt.memProfile, wl.name); err != nil {
		return nil, err
	}

	wr := &workloadResult{Name: wl.name, Vertices: r.in.g.NumVertices, Edges: r.in.g.NumEdges(),
		HybridModes: r.last["hybrid"].modes, Rounds: len(r.e2e["hybrid_wall_s"])}
	if wl.sssp {
		wr.SSSPSource = &r.in.source
	}
	if traced {
		r.coreCounts()
		r.tracedJobs()
		p, err := newProber(r)
		if err != nil {
			return nil, err
		}
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		r.rec.end(r.root)
		if err := r.rec.write(filepath.Join(outDir, "trace-"+wl.name+".json"), opt.seed); err != nil {
			return nil, err
		}
	}
	wr.JobsAttempted, wr.JobsFailed, wr.Failures = r.attempted, r.failed, r.failures
	if r.failed > 0 {
		// A failed job leaves holes in the series; report the failures
		// rather than medians over what is left.
		return wr, nil
	}
	if endToEnd {
		if wr.EndToEnd, err = r.e2e.summarise(endToEndSpecs()); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	if traced {
		if wr.PerLayer, err = r.lay.summarise(perLayerSpecs()); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	return wr, os.RemoveAll(dir)
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// profilePath puts the workload's name into the file name and keeps a
// relative path out of the repository.
func profilePath(path, workload string) string {
	ext := filepath.Ext(path)
	path = strings.TrimSuffix(path, ext) + "-" + workload + ext
	if !filepath.IsAbs(path) {
		path = filepath.Join(os.TempDir(), path)
	}
	return path
}

func startCPUProfile(path, workload string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(profilePath(path, workload))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		fmt.Fprintln(os.Stderr, "cpu profile:", f.Name())
	}, nil
}

func writeAllocProfile(path, workload string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(profilePath(path, workload))
	if err != nil {
		return err
	}
	runtime.GC() // the allocs profile is complete as of the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "alloc profile:", f.Name())
	return f.Close()
}

func printResults(w io.Writer, res *results) {
	h := res.Header
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS %d  nproc %d  seed %d  trace %s\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Seed, h.Trace)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n== %s  |V| %d  |E| %d", wr.Name, wr.Vertices, wr.Edges)
		if wr.SSSPSource != nil {
			fmt.Fprintf(w, "  sssp source %d", *wr.SSSPSource)
		}
		fmt.Fprintf(w, "  rounds %d  hybrid modes %s\n", wr.Rounds, wr.HybridModes)
		fmt.Fprintf(w, "jobs_attempted %d  jobs_failed %d\n", wr.JobsAttempted, wr.JobsFailed)
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "FAILED", f)
		}
		for _, set := range []map[string]summary{wr.EndToEnd, wr.PerLayer} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				s := set[name]
				fmt.Fprintf(w, "%-34s %16.6g %-13s q1 %.6g  q3 %.6g  n %d\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
}

// driverLine is the one-object summary the driver reads from the last
// line of standard output.
func driverLine(wr *workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.JobsFailed == 0, wr.JobsAttempted, wr.JobsFailed, map[string]value{}}
	for _, set := range []map[string]summary{wr.EndToEnd, wr.PerLayer} {
		for name, s := range set {
			line.Metrics[name] = value{s.Median, s.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() string {
	type wlEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wlEntry    `json:"workloads"`
		EndToEnd   []e2eEntry   `json:"end_to_end"`
		PerLayer   []layerEntry `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: driverRunSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, wlEntry{wl.name, wl.why})
	}
	for _, m := range endToEndSpecs() {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerSpecs() {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}

// driverRunSeconds is the -seconds the driver passes: about five rounds
// of the slowest workload on the 2-vCPU sandbox the baseline was taken on.
const driverRunSeconds = 18

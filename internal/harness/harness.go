// Package harness regenerates every table and figure of the paper's
// evaluation (Section 6 and the appendices) on the synthetic stand-in
// datasets, printing the same rows and series the paper plots. Absolute
// numbers are simulated seconds under the Table 3 cost model; the shapes —
// which engine wins, by what factor, where the crossovers sit — are the
// reproduction target (see DESIGN.md and EXPERIMENTS.md).
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies every dataset's vertex count (default 0.25; tests
	// use less).
	Scale float64
	// Workers is the small-graph cluster size (default 5, as the paper).
	Workers int
	// LargeWorkers is the large-graph cluster size (default 10; the paper
	// used 30 physical nodes).
	LargeWorkers int
	// Profile is the hardware model (default HDD local cluster).
	Profile diskio.Profile
	// Parallelism is the per-worker compute parallelism every job runs
	// with (0 = core's NumCPU/Workers default). Results are identical at
	// any setting; only wall-clock changes.
	Parallelism int
	// Quick trims dataset lists and sweeps so the full suite runs in
	// seconds (used by the package's tests and CI).
	Quick bool
	// TraceDir, when set, exports one JSONL superstep trace journal per job
	// the experiments run, auto-named <algorithm>_<engine>_<seq>.jsonl (see
	// core.Config.TraceDir). Empty disables tracing.
	TraceDir string
	// Metrics, when non-nil, receives live counters from every job the
	// experiments run (see core.Config.Metrics).
	Metrics *obs.Registry
	// ChaosSeed is the base seed of the chaos campaign's deterministic
	// fault schedules (default 1); consecutive seeds derive from it.
	ChaosSeed int64
	// Recovery, when set, restricts the recovery-policy sweeps of the
	// chaos and recovery experiments to one policy ("scratch", "resume",
	// "checkpoint", "confined" or "reassign"). Empty runs each
	// experiment's full list.
	Recovery string
	// Codec names the block codec every disk-backed job runs with ("",
	// "none", "delta", "lz"). Results and every logical byte statistic are
	// identical whatever the codec; only physical bytes change. The chaos
	// and disk-chaos campaigns honour it, which is how CI runs their
	// compression legs.
	Codec string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Workers <= 0 {
		o.Workers = 5
	}
	if o.LargeWorkers <= 0 {
		o.LargeWorkers = 10
	}
	if o.Profile.SNet == 0 {
		o.Profile = diskio.HDDLocal
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = 1
	}
	return o
}

// Table is one printable experiment result.
type Table struct {
	ID     string // e.g. "fig8a"
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as RFC-4180 CSV, one header row then data.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	Name string // "fig2", "table5", ...
	What string
	Run  func(Options) ([]*Table, error)
}

// Experiments lists every regenerable artefact in paper order.
var Experiments = []Experiment{
	{"fig2", "Motivation: push runtime and %messages on disk vs buffer (wiki)", Fig2},
	{"table4", "Dataset inventory (synthetic stand-ins for Table 4)", Table4},
	{"fig7", "Runtime with sufficient memory (4 algorithms x 4 graphs x 5 engines)", Fig7},
	{"fig8", "Runtime with limited memory on the HDD cluster", Fig8},
	{"fig9", "Runtime with limited memory on the SSD cluster", Fig9},
	{"fig10", "I/O bytes with limited memory", Fig10},
	{"fig11", "Prediction accuracy of Mco (SSSP, SA)", Fig11},
	{"fig12", "Prediction accuracy of Cio(push) (SSSP, SA)", Fig12},
	{"fig13", "Prediction accuracy of Cio(b-pull) (SSSP, SA)", Fig13},
	{"fig14", "Hybrid per-superstep trace: Qt, I/O, network, memory (SSSP over twi)", Fig14},
	{"fig15", "Scalability: pushM vs hybrid, PageRank, varying workers", Fig15},
	{"fig16", "Graph loading cost: adj vs VE-BLOCK vs adj+VE-BLOCK", Fig16},
	{"fig17", "Blocking time per superstep: push vs pushM vs b-pull (PageRank)", Fig17},
	{"fig18", "Network traffic per superstep: push vs b-pull, combining off", Fig18},
	{"fig23", "Vblock count sweep over livej: memory and I/O", Fig23},
	{"fig24", "Vblock count sweep over wiki: memory and I/O", Fig24},
	{"fig25", "Vblock count sweep: runtime (livej, wiki)", Fig25},
	{"fig26", "Combining effectiveness vs sending threshold (PageRank over orkut)", Fig26},
	{"table5", "Modified-pull scenarios (original/ext-mem/ext-edge/v3/v2.5)", Table5},
	{"recovery", "Recovery cost by policy: scratch/resume/checkpoint/confined", RecoveryCost},
	{"chaos", "Chaos campaign: seeded crash+stall+transport faults, values must match fault-free", Chaos},
	{"reassignchaos", "Reassign chaos: seeded permanent crashes, partitions adopted by survivors, values must match fault-free", ReassignChaos},
	{"diskchaos", "Disk-fault chaos: seeded storage faults under crash+stall plans, identical or typed failure", DiskChaos},
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// bufferRatio reproduces the paper's per-dataset message-buffer settings
// (B_i = 0.5M/1M/2M messages) as a fraction of each dataset's vertex
// count, so the spill pressure matches at our scales.
var bufferRatio = map[string]float64{
	"livej": 0.104, // 0.5M / 4.8M
	"wiki":  0.088, // 0.5M / 5.7M
	"orkut": 0.161, // 0.5M / 3.1M
	"twi":   0.024, // 1M / 41.7M
	"fri":   0.030, // 2M / 65.6M
	"uk":    0.019, // 2M / 105.9M
}

// steps per algorithm: the paper runs PageRank and LPA for 5 supersteps
// and reports per-superstep averages; SSSP and SA run to convergence.
func maxStepsFor(alg string) int {
	switch alg {
	case "pagerank", "lpa":
		return 5
	default:
		return 60
	}
}

func perStep(alg string) bool { return alg == "pagerank" || alg == "lpa" }

func (o Options) workersFor(ds string) int {
	for _, n := range graph.LargeDatasets() {
		if n == ds {
			return o.LargeWorkers
		}
	}
	return o.Workers
}

// limitedCfg builds the paper's limited-memory configuration for one
// dataset: graph and message data disk-resident, buffer scaled per
// bufferRatio, pull's vertex cache at the paper's ">70% of vertices
// resident" setting.
func (o Options) limitedCfg(ds graph.Dataset, g *graph.Graph, alg string) core.Config {
	t := o.workersFor(ds.Name)
	buf := int(bufferRatio[ds.Name] * float64(g.NumVertices))
	if buf < 16 {
		buf = 16
	}
	partition := (g.NumVertices + t - 1) / t
	return core.Config{
		Workers:     t,
		MsgBuf:      buf,
		MaxSteps:    maxStepsFor(alg),
		Profile:     o.Profile,
		Parallelism: o.Parallelism,
		VertexCache: int(0.7 * float64(partition)), // ">70% of vertices reside in memory"
		TraceDir:    o.TraceDir,
		Metrics:     o.Metrics,
	}
}

// sufficientCfg is the all-in-memory configuration of Fig. 7.
func (o Options) sufficientCfg(ds graph.Dataset, alg string) core.Config {
	return core.Config{
		Workers:     o.workersFor(ds.Name),
		InMemory:    true,
		MaxSteps:    maxStepsFor(alg),
		Profile:     o.Profile,
		Parallelism: o.Parallelism,
		TraceDir:    o.TraceDir,
		Metrics:     o.Metrics,
	}
}

func (o Options) datasets(all bool) []graph.Dataset {
	names := graph.SmallDatasets()
	if all {
		names = append(names, graph.LargeDatasets()...)
	} else {
		names = append(names, "twi")
	}
	if o.Quick {
		names = []string{"livej", "wiki"}
	}
	out := make([]graph.Dataset, 0, len(names))
	for _, n := range names {
		d, err := graph.DatasetByName(n)
		if err == nil {
			out = append(out, d)
		}
	}
	return out
}

func (o Options) algorithms() []algo.Program {
	return []algo.Program{
		algo.NewPageRank(0.85),
		algo.NewSSSP(0),
		algo.NewLPA(),
		algo.NewSA(64, 16, 55),
	}
}

func enginesFor(prog algo.Program, withPull bool) []core.Engine {
	es := []core.Engine{core.Push}
	if prog.Combiner() != nil {
		es = append(es, core.PushM)
	}
	if withPull {
		es = append(es, core.Pull)
	}
	return append(es, core.BPull, core.Hybrid)
}

func fmtSeconds(s float64) string { return fmt.Sprintf("%.4f", s) }

func fmtBytes(b int64) string { return fmt.Sprintf("%d", b) }

// runtimeOf reports the figure's runtime metric: per-superstep average for
// constant-workload algorithms, total otherwise.
func runtimeOf(r *metrics.JobResult, alg string) float64 {
	if perStep(alg) && len(r.Steps) > 0 {
		return r.SimSeconds / float64(len(r.Steps))
	}
	return r.SimSeconds
}

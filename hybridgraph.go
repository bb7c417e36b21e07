// Package hybridgraph is a from-scratch Go implementation of HybridGraph
// (Wang et al., "Hybrid Pulling/Pushing for I/O-Efficient Distributed and
// Iterative Graph Computing", SIGMOD 2016): a Pregel-style vertex-centric
// BSP graph engine whose graph and message data are disk-resident, with
// five interchangeable message-handling engines —
//
//   - Push: Giraph-style pushing with buffer-bounded receivers that spill
//     messages to disk (random writes) under memory pressure;
//   - PushM: MOCgraph-style message online computing onto a hot vertex set;
//   - Pull: a disk-extended PowerGraph-style vertex-cut gather baseline;
//   - BPull: the paper's block-centric pulling over the VE-BLOCK layout
//     (range-partitioned Vblocks, per-destination-block Eblocks whose edges
//     cluster into per-source fragments);
//   - Hybrid: adaptive switching between Push and BPull driven by the
//     performance metric Q^t of Eq. (11) and Theorem 2's initial-mode rule.
//
// The package is a facade over the internal packages: it re-exports the
// job runner, configuration, the four benchmark vertex programs
// (PageRank, SSSP, LPA, SA), the synthetic dataset generators standing in
// for the paper's six graphs, and the Table 3 hardware cost models.
//
// Quick start:
//
//	g := hybridgraph.GenRMAT(10_000, 140_000, 0.57, 0.19, 0.19, 1)
//	res, err := hybridgraph.Run(g, hybridgraph.PageRank(0.85),
//	    hybridgraph.Config{Workers: 5, MsgBuf: 1000}, hybridgraph.Hybrid)
//	if err != nil { ... }
//	fmt.Println(res.SimSeconds, res.Supersteps())
package hybridgraph

import (
	"bytes"
	"context"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// Engine selects a message-handling approach.
type Engine = core.Engine

// The five engines of the paper's evaluation.
const (
	Push   = core.Push
	PushM  = core.PushM
	Pull   = core.Pull
	BPull  = core.BPull
	Hybrid = core.Hybrid
)

// Engines lists all engines in the paper's plotting order.
var Engines = core.Engines

// Config parameterises one job; zero values select the paper's defaults
// (5 workers, unlimited buffer, HDD cost model, per-worker compute
// parallelism of NumCPU/Workers). Parallelism never changes results:
// vertex values, I/O totals, wire bytes and trace events are byte-
// identical at any setting. See core.Config for every knob.
type Config = core.Config

// Result carries per-superstep statistics, aggregate simulated/wall time,
// byte counters and the final vertex values.
type Result = metrics.JobResult

// StepStats is one superstep's aggregated statistics.
type StepStats = metrics.StepStats

// Program is a vertex program in the decoupled update/pullRes form the
// hybrid engine requires (Section 5.2 of the paper).
type Program = algo.Program

// Graph is the staged in-memory directed graph used to build the
// per-worker disk stores.
type Graph = graph.Graph

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Profile is a hardware cost model (device and network throughputs).
type Profile = diskio.Profile

// The paper's Table 3 cluster profiles.
var (
	HDDLocal  = diskio.HDDLocal
	SSDAmazon = diskio.SSDAmazon
)

// FaultPlan is a deterministic schedule of injected faults: worker
// crashes and stalls at (superstep, worker) points and, over TCP, seeded
// transport faults. Assign one to Config.FaultPlan and pick a
// Config.Recovery policy ("scratch", "resume", "checkpoint", "confined"
// or "reassign").
type FaultPlan = faultplan.Plan

// Crash is one scheduled worker failure.
type Crash = faultplan.Crash

// Stall is one scheduled worker hang, detected by the master at the
// superstep's barrier instead of at superstep start — the survivors
// complete the superstep the stalled worker misses.
type Stall = faultplan.Stall

// TransportFaults seeds the resilient TCP fabric's fault injector with
// drop/delay/duplicate probabilities; a drop breaks the connection.
type TransportFaults = faultplan.TransportFaults

// DiskFaults seeds the storage-fault injector installed over the job's
// working directory: ENOSPC, torn writes, failed fsyncs, bit-flip reads
// and a simulated power cut, all drawn from a deterministic stream.
// Attach one to a plan with FaultPlan.WithDisk.
type DiskFaults = diskio.FaultConfig

// ErrDiskFault matches (via errors.Is) every injected storage fault. A
// job that fails under disk-fault injection fails with an error wrapping
// this sentinel; real I/O errors annotated by the layer do not match.
var ErrDiskFault = diskio.ErrDiskFault

// IsPowerCut reports whether err is (or wraps) a simulated power cut —
// the one storage fault no in-process retry survives.
func IsPowerCut(err error) bool { return diskio.IsPowerCut(err) }

// NewFaultPlan builds a crash schedule (sorted by superstep). Chain
// WithStalls to add worker hangs.
func NewFaultPlan(crashes ...Crash) *FaultPlan { return faultplan.NewPlan(crashes...) }

// RandomCrashes derives a deterministic schedule of n distinct-superstep
// crashes from a seed.
func RandomCrashes(seed int64, n, maxStep, workers int) []Crash {
	return faultplan.RandomCrashes(seed, n, maxStep, workers)
}

// RandomStalls derives a deterministic schedule of n distinct-superstep
// worker hangs from a seed.
func RandomStalls(seed int64, n, maxStep, workers int) []Stall {
	return faultplan.RandomStalls(seed, n, maxStep, workers)
}

// PermanentCrash schedules a crash the machine never returns from:
// under Config.Recovery "reassign" a survivor adopts the dead worker's
// partition instead of restoring it.
func PermanentCrash(step, worker int) Crash {
	return faultplan.PermanentCrash(step, worker)
}

// RandomPermanentCrashes derives a deterministic schedule of n
// distinct-superstep permanent machine losses from a seed.
func RandomPermanentCrashes(seed int64, n, maxStep, workers int) []Crash {
	return faultplan.RandomPermanentCrashes(seed, n, maxStep, workers)
}

// RecoveryNotice is the event Config.OnRecovery receives after each
// recovery action: Kind "crash", "stall" or "reassign" (for a reassign,
// Host is the surviving worker that adopted the dead partition and
// Epoch the new ownership epoch).
type RecoveryNotice = core.RecoveryNotice

// ErrInjectedFailure matches (via errors.Is) the typed error a scheduled
// crash raises inside the engines; recovery normally absorbs it.
var ErrInjectedFailure = core.ErrInjectedFailure

// ErrStalledWorker matches (via errors.Is) the typed error the master
// raises for a worker that stalled at the barrier; recovery normally
// absorbs it.
var ErrStalledWorker = core.ErrStalledWorker

// ErrNoSurvivors matches (via errors.Is) the typed failure a
// reassignment raises when every worker is permanently dead, so no
// survivor can adopt the failed partition.
var ErrNoSurvivors = core.ErrNoSurvivors

// ErrCodecCorrupt matches (via errors.Is) every decode failure of a
// compressed block (Config.Codec): bad frame magic, truncation, CRC
// mismatch, or a payload that does not decode to its declared length. A
// bit flip in a compressed store surfaces as this or as ErrDiskFault,
// never as silently wrong values.
var ErrCodecCorrupt = codec.ErrCorrupt

// ErrUnknownCodec matches (via errors.Is) the validation failure for a
// Config.Codec name that is not registered (have: none, delta, lz).
var ErrUnknownCodec = codec.ErrUnknown

// Run executes prog over g with the given engine and returns the result.
func Run(g *Graph, prog Program, cfg Config, engine Engine) (*Result, error) {
	return core.Run(g, prog, cfg, engine)
}

// RunContext is Run under a context: cancelling ctx (or exceeding its
// deadline) aborts the job promptly — the master checks it at every
// superstep barrier and both comm fabrics fail in-flight exchanges fast —
// returning an error matching ctx's cause via errors.Is.
func RunContext(ctx context.Context, g *Graph, prog Program, cfg Config, engine Engine) (*Result, error) {
	return core.RunContext(ctx, g, prog, cfg, engine)
}

// StoreSource supplies pre-built read-only edge stores to a job (set
// Config.Stores); a catalog Entry implements it. See internal/catalog and
// internal/service for the persistent catalog and the service daemon.
type StoreSource = core.StoreSource

// Metrics is a live counter/gauge registry. Assign one to Config.Metrics
// and every subsystem under the job — engines, comm fabrics, message
// stores, pull caches, checkpointing — reports into it; snapshot it any
// time or serve it via StartDebug. The zero registry cannot be used; call
// NewMetrics.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DebugServer is a running observability HTTP server (see StartDebug).
type DebugServer = obs.DebugServer

// StartDebug serves plain-text metrics at /metrics, expvar at /debug/vars
// and pprof at /debug/pprof/ on addr (e.g. "localhost:6060"). reg may be
// nil to serve pprof/expvar only.
func StartDebug(addr string, reg *Metrics) (*DebugServer, error) {
	return obs.StartDebug(addr, reg)
}

// PageRank returns the paper's Fig. 3 PageRank program (Always-Active).
func PageRank(damping float64) Program { return algo.NewPageRank(damping) }

// SSSP returns single-source shortest paths from source (Traversal).
func SSSP(source VertexID) Program { return algo.NewSSSP(source) }

// LPA returns label-propagation community detection (Always-Active,
// non-combinable messages).
func LPA() Program { return algo.NewLPA() }

// SA returns the social-advertisement simulation from Mizan (Traversal,
// non-combinable messages). Every sourceEvery-th vertex advertises one of
// numAds ads; interestPct is the forwarding probability in percent.
func SA(sourceEvery, numAds int, interestPct uint32) Program {
	return algo.NewSA(sourceEvery, numAds, interestPct)
}

// AlgorithmByName resolves "pagerank", "sssp", "lpa", "sa" or
// "multiphase" with default parameters.
func AlgorithmByName(name string, source VertexID) (Program, bool) {
	return algo.ByName(name, source)
}

// GenRMAT generates a skewed power-law directed graph (social networks).
func GenRMAT(n, m int, a, b, c float64, seed int64) *Graph {
	return graph.GenRMAT(n, m, a, b, c, seed)
}

// GenWeb generates a host-clustered web graph with strong locality.
func GenWeb(n, m, hostSize int, intraProb float64, seed int64) *Graph {
	return graph.GenWeb(n, m, hostSize, intraProb, seed)
}

// GenUniform generates an Erdős–Rényi style directed graph.
func GenUniform(n, m int, seed int64) *Graph { return graph.GenUniform(n, m, seed) }

// Dataset is a synthetic stand-in for one of the paper's Table 4 graphs.
type Dataset = graph.Dataset

// Datasets mirrors the paper's Table 4 (livej, wiki, orkut, twi, fri, uk).
var Datasets = graph.Datasets

// DatasetByName looks a Table 4 dataset up by name.
func DatasetByName(name string) (Dataset, error) { return graph.DatasetByName(name) }

// WCC returns weakly-connected-components by min-label propagation; run
// it on a Symmetrize'd graph.
func WCC() Program { return algo.NewWCC() }

// ConvergingPageRank is PageRank with an aggregator-driven halt: the job
// stops once the global L1 rank change drops below epsilon.
func ConvergingPageRank(damping, epsilon float64) Program {
	return algo.NewConvergingPageRank(damping, epsilon)
}

// Matching returns Pregel-style bipartite maximal matching (Multi-Phase-
// Style; run on a GenBipartite graph).
func Matching(maxAttempts int) Program { return algo.NewMatching(maxAttempts) }

// GenBipartite builds a bipartite graph (even ids left, odd ids right)
// with edges stored in both directions.
func GenBipartite(n, m int, seed int64) *Graph { return algo.GenBipartite(n, m, seed) }

// Symmetrize returns g plus the reverse of every edge.
func Symmetrize(g *Graph) *Graph { return algo.Symmetrize(g) }

// Relabel renames every vertex v to perm[v]; combined with BFSOrder or
// DegreeOrder it expresses arbitrary partitioning strategies over the
// range-partitioned stores (the paper's footnote 1).
func Relabel(g *Graph, perm []VertexID) *Graph { return graph.Relabel(g, perm) }

// BFSOrder returns a locality-improving renumbering (fewer VE-BLOCK
// fragments on clustered graphs).
func BFSOrder(g *Graph) []VertexID { return graph.BFSOrder(g) }

// DegreeOrder returns a hubs-first renumbering.
func DegreeOrder(g *Graph) []VertexID { return graph.DegreeOrder(g) }

// LoadEdgeList reads a graph from a "src dst [weight]" text file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// ParseEdgeList reads a graph from in-memory edge-list text.
func ParseEdgeList(data []byte) (*Graph, error) {
	return graph.ReadEdgeList(bytes.NewReader(data))
}

// SaveEdgeList writes a graph to a text edge-list file.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeList(path, g) }

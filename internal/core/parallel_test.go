package core

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// Intra-worker parallel compute must be invisible in everything but wall
// clock: vertex values bit for bit, the class-tagged disk snapshots
// (bytes, device bytes AND op counts), wire bytes, the Eq. (7)/(8)
// breakdowns feeding Q^t, and peak memory. These tests pin that contract
// for every engine across Parallelism 1, 2 and 8, under -race in CI.

func parallelPrograms() map[string]func() algo.Program {
	return map[string]func() algo.Program{
		"pagerank": func() algo.Program { return algo.NewPageRank(0.85) },
		"sssp":     func() algo.Program { return algo.NewSSSP(0) },
	}
}

// sameSteps compares every deterministic per-superstep field; wall clock
// is the only StepStats field allowed to differ.
func sameSteps(t *testing.T, label string, a, b []metrics.StepStats) {
	t.Helper()
	sameStepsEx(t, label, a, b, true)
}

// sameStepsEx is sameSteps with the physical dimension optional: two runs
// under the same codec must agree on PhysIO too, while a cross-codec
// comparison (the codec-identity suite) checks only the logical fields.
func sameStepsEx(t *testing.T, label string, a, b []metrics.StepStats, comparePhys bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d supersteps vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Mode != y.Mode {
			t.Errorf("%s step %d: mode %q vs %q", label, x.Step, x.Mode, y.Mode)
		}
		if x.Produced != y.Produced || x.Combined != y.Combined ||
			x.NetBytes != y.NetBytes || x.NetMsgs != y.NetMsgs ||
			x.Requests != y.Requests || x.Responding != y.Responding ||
			x.Updated != y.Updated || x.Spilled != y.Spilled {
			t.Errorf("%s step %d: counters differ: %+v vs %+v", label, x.Step, x, y)
		}
		if x.IO != y.IO {
			t.Errorf("%s step %d: IO snapshot differs: %+v vs %+v", label, x.Step, x.IO, y.IO)
		}
		if x.LogIO != y.LogIO {
			t.Errorf("%s step %d: LogIO snapshot differs", label, x.Step)
		}
		if comparePhys && x.PhysIO != y.PhysIO {
			t.Errorf("%s step %d: PhysIO snapshot differs: %+v vs %+v", label, x.Step, x.PhysIO, y.PhysIO)
		}
		if x.Parts != y.Parts {
			t.Errorf("%s step %d: Eq.(7)/(8) parts differ: %+v vs %+v", label, x.Step, x.Parts, y.Parts)
		}
		if x.MemBytes != y.MemBytes {
			t.Errorf("%s step %d: MemBytes %d vs %d", label, x.Step, x.MemBytes, y.MemBytes)
		}
		if math.Float64bits(x.Qt) != math.Float64bits(y.Qt) {
			t.Errorf("%s step %d: Qt %g vs %g", label, x.Step, x.Qt, y.Qt)
		}
	}
}

func sameResults(t *testing.T, label string, a, b *metrics.JobResult) {
	t.Helper()
	sameResultsEx(t, label, a, b, true)
}

func sameResultsEx(t *testing.T, label string, a, b *metrics.JobResult, comparePhys bool) {
	t.Helper()
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d values vs %d", label, len(a.Values), len(b.Values))
	}
	for v := range a.Values {
		if math.Float64bits(a.Values[v]) != math.Float64bits(b.Values[v]) {
			t.Fatalf("%s: vertex %d = %x, want %x (values not byte-identical)",
				label, v, math.Float64bits(b.Values[v]), math.Float64bits(a.Values[v]))
		}
	}
	if a.IO != b.IO {
		t.Errorf("%s: job IO snapshot differs: %+v vs %+v", label, a.IO, b.IO)
	}
	if a.NetBytes != b.NetBytes {
		t.Errorf("%s: NetBytes %d vs %d", label, a.NetBytes, b.NetBytes)
	}
	if a.MaxMemBytes != b.MaxMemBytes {
		t.Errorf("%s: MaxMemBytes %d vs %d", label, a.MaxMemBytes, b.MaxMemBytes)
	}
	sameStepsEx(t, label, a.Steps, b.Steps, comparePhys)
}

func TestParallelismByteIdentical(t *testing.T) {
	// The web input is the sparse-frontier shape the dense R-MAT legs never
	// reach: two workers with large partitions and SSSP run to convergence
	// over a locality-rich graph, so in most supersteps most shards send
	// little or nothing through their reused buffers.
	inputs := []struct {
		prefix    string
		g         *graph.Graph
		cfg       Config
		ssspSteps int // SSSP's MaxSteps; PageRank runs cfg.MaxSteps
	}{
		{"", graph.GenRMAT(900, 8100, 0.57, 0.19, 0.19, 77),
			Config{Workers: 3, MsgBuf: 120, MaxSteps: 8, SenderCombine: true}, 8},
		{"web/", graph.GenWeb(6000, 48000, 64, 0.8, 7),
			Config{Workers: 2, MsgBuf: 600, MaxSteps: 5}, 60},
	}
	engines := []Engine{Push, BPull, Hybrid}
	for _, in := range inputs {
		for name, mk := range parallelPrograms() {
			for _, e := range engines {
				t.Run(in.prefix+name+"/"+string(e), func(t *testing.T) {
					cfg := in.cfg
					if name == "sssp" {
						cfg.MaxSteps = in.ssspSteps
					}
					cfg.Parallelism = 1
					base := runOne(t, in.g, mk(), cfg, e)
					for _, p := range []int{2, 8} {
						cfg.Parallelism = p
						got := runOne(t, in.g, mk(), cfg, e)
						sameResults(t, string(e)+"/p="+itoa(p), base, got)
					}
				})
			}
		}
	}
}

// Sender-side staging partitions the 4 MB threshold across shards; with a
// tiny threshold and combining on, any drift in the replay order would
// change packet boundaries, combine batches and hence wire bytes.
func TestParallelismPacketInvariance(t *testing.T) {
	g := graph.GenRMAT(700, 6300, 0.57, 0.19, 0.19, 78)
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 5,
		SenderCombine: true, SendThreshold: 40 * 12} // a few dozen messages per packet
	cfg.Parallelism = 1
	base := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
	for _, p := range []int{2, 8} {
		cfg.Parallelism = p
		got := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
		sameResults(t, "push-tiny-threshold/p="+itoa(p), base, got)
	}
}

// The b-pull block-fetch pipeline must not change accounting at any depth.
func TestPrefetchDepthByteIdentical(t *testing.T) {
	g := graph.GenRMAT(800, 7200, 0.57, 0.19, 0.19, 79)
	cfg := Config{Workers: 2, MsgBuf: 100, MaxSteps: 8, Parallelism: 4}
	cfg.PrefetchDepth = 1
	base := runOne(t, g, algo.NewSSSP(0), cfg, BPull)
	for _, d := range []int{2, 3} {
		cfg.PrefetchDepth = d
		got := runOne(t, g, algo.NewSSSP(0), cfg, BPull)
		if len(got.Values) != len(base.Values) {
			t.Fatalf("depth %d: value count differs", d)
		}
		for v := range base.Values {
			if math.Float64bits(base.Values[v]) != math.Float64bits(got.Values[v]) {
				t.Fatalf("depth %d: vertex %d differs", d, v)
			}
		}
		// A deeper pipeline holds more receive buffers, so MemBytes may
		// legitimately grow; everything else must match.
		if base.NetBytes != got.NetBytes || base.IO != got.IO {
			t.Fatalf("depth %d: I/O accounting drifted", d)
		}
	}
}

// Crash + confined recovery under parallel compute: the replayed run must
// converge to the same values as a fault-free sequential run.
func TestParallelismConfinedRecovery(t *testing.T) {
	g := graph.GenRMAT(600, 4800, 0.57, 0.19, 0.19, 80)
	clean := Config{Workers: 3, MsgBuf: 80, MaxSteps: 8, Parallelism: 1}
	want := runOne(t, g, algo.NewPageRank(0.85), clean, Push)
	cfg := clean
	cfg.Parallelism = 8
	cfg.Recovery = "confined"
	cfg.FaultPlan = faultplan.NewPlan(faultplan.Crash{Step: 4, Worker: 1})
	got := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
	if got.Restarts == 0 {
		t.Fatal("crash did not trigger a recovery")
	}
	for v := range want.Values {
		if math.Float64bits(want.Values[v]) != math.Float64bits(got.Values[v]) {
			t.Fatalf("vertex %d: recovered value %g != fault-free %g", v, got.Values[v], want.Values[v])
		}
	}
}

// A failed pull must deterministically drain its in-flight prefetches:
// after a fault-injected run, no goroutine may still be charging reads to
// the job's counters (the leak the depth-1 prepull had). The gate is
// tolerant of where the fault lands: either the run failed with a typed
// disk fault or it succeeded with byte-identical values.
func TestPrefetchDrainUnderDiskFaults(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 81)
	clean := Config{Workers: 2, MsgBuf: 60, MaxSteps: 6, Parallelism: 4, PrefetchDepth: 3}
	want := runOne(t, g, algo.NewSSSP(0), clean, BPull)
	for seed := int64(1); seed <= 6; seed++ {
		cfg := clean
		cfg.FaultPlan = faultplan.NewPlan().WithDisk(diskio.FaultConfig{
			Seed: seed, WriteENOSPC: 0.001, TornWrite: 0.001, MaxFaults: 2,
		})
		res, err := Run(g, algo.NewSSSP(0), cfg, BPull)
		if err != nil {
			if !errors.Is(err, diskio.ErrDiskFault) {
				t.Fatalf("seed %d: error is not a typed disk fault: %v", seed, err)
			}
			continue
		}
		for v := range want.Values {
			if math.Float64bits(want.Values[v]) != math.Float64bits(res.Values[v]) {
				t.Fatalf("seed %d: surviving run diverged at vertex %d", seed, v)
			}
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/catalog"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

// The codec contract, pinned end to end: a block codec may shrink the
// bytes that physically hit the disk, but the logical dimension — vertex
// values, every class-tagged byte counter, the Eq. (7)/(8) breakdowns,
// Q^t — must be byte-identical to a codec-none run. These tests exercise
// the contract across engines, parallelism settings, every recovery
// path that rereads compressed state, and the storage-fault layer.

func physTotal(r *metrics.JobResult) int64 {
	return r.PhysIO.Total() + r.LoadPhysIO.Total() + r.CheckpointPhysIO.Total() +
		r.ReplayPhysIO.Total() + r.MigrationPhysIO.Total()
}

func logTotal(r *metrics.JobResult) int64 {
	return r.IO.Total() + r.LogIO.Total() + r.LoadIO.Total() +
		r.CheckpointIO.Total() + r.ReplayIO.Total() + r.MigrationIO.Total()
}

// TestCodecLogicalIdentity: for every engine, a delta- or lz-coded run
// must reproduce the codec-none run's values and complete per-superstep
// statistics, and must put strictly fewer physical bytes on disk than its
// logical charge.
func TestCodecLogicalIdentity(t *testing.T) {
	g := graph.GenRMAT(800, 7200, 0.57, 0.19, 0.19, 91)
	for _, e := range []Engine{Push, BPull, Hybrid} {
		t.Run(string(e), func(t *testing.T) {
			cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 6}
			base := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
			if base.Codec != "none" {
				t.Fatalf("default run Codec = %q, want none", base.Codec)
			}
			// Under codec none the physical twin mirrors the logical
			// counters charge for charge: the ratio is exactly 1.
			if base.CompressionRatio != 1.0 {
				t.Fatalf("codec none CompressionRatio = %v, want exactly 1", base.CompressionRatio)
			}
			if physTotal(base) != logTotal(base) {
				t.Fatalf("codec none physical %d != logical %d", physTotal(base), logTotal(base))
			}
			for _, cn := range []string{"delta", "lz"} {
				cfg.Codec = cn
				got := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
				sameResultsEx(t, string(e)+"/"+cn, base, got, false)
				if got.Codec != cn {
					t.Errorf("%s: JobResult.Codec = %q, want %q", e, got.Codec, cn)
				}
				if physTotal(got) >= logTotal(got) {
					t.Errorf("%s/%s: physical %d !< logical %d (nothing compressed)",
						e, cn, physTotal(got), logTotal(got))
				}
				if got.CompressionRatio <= 1.0 {
					t.Errorf("%s/%s: CompressionRatio = %v, want > 1", e, cn, got.CompressionRatio)
				}
			}
		})
	}
}

// TestNoneMirrorsPhysical: under codec none every store holds its logical
// bytes, so the physical twins must mirror the logical counters in every
// field — bytes, device bytes and ops, per class — on every path that
// moves bytes: supersteps, message logs, loading, checkpoints, restores,
// log replay, a stalled worker's rejoin and a partition migration.
func TestNoneMirrorsPhysical(t *testing.T) {
	g := graph.GenRMAT(400, 3000, 0.57, 0.19, 0.19, 98)
	runs := []struct {
		name   string
		policy string
		plan   *faultplan.Plan
	}{
		{"checkpoint/crash", "checkpoint", faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})},
		{"confined/crash", "confined", faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})},
		{"reassign/crash", "reassign", faultplan.NewPlan(faultplan.PermanentCrash(5, 1))},
		{"confined/stall", "confined", faultplan.NewPlan().WithStalls(faultplan.Stall{Step: 5, Worker: 2})},
	}
	for _, e := range []Engine{Push, BPull, Hybrid} {
		for _, r := range runs {
			label := string(e) + "/" + r.name
			cfg := Config{Workers: 3, MsgBuf: 100, MaxSteps: 8, Recovery: r.policy,
				CheckpointEvery: 2, FaultPlan: r.plan, BarrierDeadline: 50 * time.Millisecond}
			res := runOne(t, g, algo.NewPageRank(0.85), cfg, e)
			if res.Restarts == 0 {
				t.Fatalf("%s: the fault did not trigger recovery", label)
			}
			logical := res.IO.Add(res.LogIO).Add(res.LoadIO).Add(res.CheckpointIO).
				Add(res.ReplayIO).Add(res.MigrationIO)
			phys := res.PhysIO.Add(res.LoadPhysIO).Add(res.CheckpointPhysIO).
				Add(res.ReplayPhysIO).Add(res.MigrationPhysIO)
			if logical != phys {
				t.Errorf("%s: physical %+v != logical %+v", label, phys, logical)
			}
		}
	}
}

// TestCodecParallelismIdentity: the parallelism-invariance contract must
// hold under a non-trivial codec too — values, logical bytes and op
// counts for every engine. Physical bytes are invariant only where
// records reach the store in sender order (adjacency, Eblocks, message
// logs, snapshots): a receive-side spill is framed in arrival order, and
// a frame's compressed size depends on the order of its records. So the
// physical dimension is asserted for b-pull, for the loading phase, and
// for every push/hybrid superstep that neither writes nor drains a spill.
// (b-pull's physical reads hold at any store size — TestDecodeAmplification
// checks one three times the chunk cache; a sparse push frontier's jumps
// still share the cache, which this graph's stores fit.)
func TestCodecParallelismIdentity(t *testing.T) {
	g := graph.GenRMAT(700, 5600, 0.57, 0.19, 0.19, 92)
	for _, e := range []Engine{Push, BPull, Hybrid} {
		cfg := Config{Workers: 3, MsgBuf: 90, MaxSteps: 6, Codec: "lz", Parallelism: 1}
		base := runOne(t, g, algo.NewSSSP(0), cfg, e)
		for _, p := range []int{2, 8} {
			cfg.Parallelism = p
			got := runOne(t, g, algo.NewSSSP(0), cfg, e)
			label := string(e) + "/lz/p=" + itoa(p)
			sameResultsEx(t, label, base, got, e == BPull)
			if base.LoadPhysIO != got.LoadPhysIO {
				t.Errorf("%s: LoadPhysIO differs: %+v vs %+v", label, base.LoadPhysIO, got.LoadPhysIO)
			}
			for i := range base.Steps {
				x, y := base.Steps[i], got.Steps[i]
				spillFree := x.Spilled == 0 && (i == 0 || base.Steps[i-1].Spilled == 0)
				if spillFree && x.PhysIO != y.PhysIO {
					t.Errorf("%s step %d (no spill written or drained): PhysIO differs: %+v vs %+v",
						label, x.Step, x.PhysIO, y.PhysIO)
				}
			}
		}
	}
}

// TestCodecRecoveryIdentity: checkpoint restore and confined log replay
// both reread codec-framed files (snapshots, message-log segments); the
// recovered run must still match the fault-free codec-none run exactly.
func TestCodecRecoveryIdentity(t *testing.T) {
	g := graph.GenRMAT(600, 4800, 0.57, 0.19, 0.19, 93)
	clean := runOne(t, g, algo.NewPageRank(0.85),
		Config{Workers: 3, MsgBuf: 80, MaxSteps: 8}, Push)
	for _, policy := range []string{"checkpoint", "confined"} {
		for _, cn := range []string{"delta", "lz"} {
			cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 8, Codec: cn,
				Recovery: policy, CheckpointEvery: 2,
				FaultPlan: faultplan.NewPlan(faultplan.Crash{Step: 5, Worker: 1})}
			res := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
			if res.Restarts == 0 {
				t.Fatalf("%s/%s: crash did not trigger recovery", policy, cn)
			}
			if policy == "checkpoint" && res.Restores == 0 {
				t.Fatalf("%s/%s: no snapshot restore happened", policy, cn)
			}
			for v := range clean.Values {
				if math.Float64bits(clean.Values[v]) != math.Float64bits(res.Values[v]) {
					t.Fatalf("%s/%s: vertex %d = %g, fault-free %g",
						policy, cn, v, res.Values[v], clean.Values[v])
				}
			}
			if res.ReplayIO.Total() > 0 && res.ReplayPhysIO.Total() == 0 {
				t.Errorf("%s/%s: replay charged %d logical bytes but no physical bytes",
					policy, cn, res.ReplayIO.Total())
			}
		}
	}
}

// TestCodecReassignFromCompressedCatalog: a permanent loss makes the
// adopting survivor rebuild the dead partition from the shared catalog —
// here one ingested with a codec — and replay from codec-framed logs.
func TestCodecReassignFromCompressedCatalog(t *testing.T) {
	g := graph.GenRMAT(500, 4000, 0.57, 0.19, 0.19, 94)
	clean := runOne(t, g, algo.NewPageRank(0.85),
		Config{Workers: 3, MsgBuf: 80, MaxSteps: 8}, Push)

	cat, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := cat.Ingest("g", g, 3, 1, "lz")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Codec() != "lz" {
		t.Fatalf("entry.Codec() = %q, want lz", entry.Codec())
	}
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 8, Stores: entry, Codec: "lz",
		Recovery: "reassign", CheckpointEvery: 2,
		FaultPlan: faultplan.NewPlan(faultplan.PermanentCrash(5, 1))}
	res := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
	if res.Reassignments == 0 || !res.Degraded {
		t.Fatalf("reassignments = %d, degraded = %v; want an adoption",
			res.Reassignments, res.Degraded)
	}
	for v := range clean.Values {
		if math.Float64bits(clean.Values[v]) != math.Float64bits(res.Values[v]) {
			t.Fatalf("vertex %d = %g, fault-free %g", v, res.Values[v], clean.Values[v])
		}
	}
	if res.MigrationIO.Total() > 0 && res.MigrationPhysIO.Total() == 0 {
		t.Errorf("migration charged %d logical bytes but no physical bytes",
			res.MigrationIO.Total())
	}

	// A job whose codec disagrees with the catalog's ingest codec must be
	// rejected up front, not silently re-encoded.
	bad := cfg
	bad.Codec = "none"
	bad.FaultPlan = nil
	if _, err := Run(g, algo.NewPageRank(0.85), bad, Push); err == nil {
		t.Fatal("Config.Codec none over an lz catalog did not fail validation")
	}
}

// TestCodecBitFlipSweep: seeded read bit-flips over compressed stores.
// Every frame carries a CRC over header and payload, so a flipped bit
// must surface as a typed failure (the fault layer's ErrDiskFault or the
// codec's ErrCorrupt) — never as silently wrong values.
func TestCodecBitFlipSweep(t *testing.T) {
	g := graph.GenRMAT(400, 3200, 0.57, 0.19, 0.19, 95)
	clean := runOne(t, g, algo.NewPageRank(0.85),
		Config{Workers: 3, MsgBuf: 70, MaxSteps: 5}, Push)
	completed, failed := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		cfg := Config{Workers: 3, MsgBuf: 70, MaxSteps: 5, Codec: "lz",
			FaultPlan: faultplan.NewPlan().WithDisk(diskio.FaultConfig{
				Seed: seed, ReadBitFlip: 0.01, MaxFaults: 2})}
		res, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
		if err != nil {
			if !errors.Is(err, diskio.ErrDiskFault) && !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("seed %d: error is neither a disk fault nor codec corruption: %v", seed, err)
			}
			failed++
			continue
		}
		completed++
		for v := range clean.Values {
			if clean.Values[v] != res.Values[v] {
				t.Fatalf("seed %d: vertex %d = %g, fault-free %g (silent divergence)",
					seed, v, res.Values[v], clean.Values[v])
			}
		}
	}
	if completed == 0 {
		t.Fatal("every seed failed: the byte-identity half was never exercised")
	}
	if failed == 0 {
		t.Log("no seed corrupted a read; CRC path exercised by codec package tests")
	}
}

// TestCodecChargePhysical: the ChargePhysical toggle switches only the
// DiskSeconds dimension of the cost model onto physical bytes — values
// and logical statistics stay put, simulated time drops with the bytes.
func TestCodecChargePhysical(t *testing.T) {
	g := graph.GenRMAT(700, 6300, 0.57, 0.19, 0.19, 96)
	cfg := Config{Workers: 3, MsgBuf: 90, MaxSteps: 5, Codec: "lz"}
	logical := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
	cfg.ChargePhysical = true
	physical := runOne(t, g, algo.NewPageRank(0.85), cfg, Push)
	for v := range logical.Values {
		if math.Float64bits(logical.Values[v]) != math.Float64bits(physical.Values[v]) {
			t.Fatalf("vertex %d differs under ChargePhysical", v)
		}
	}
	if logical.IO != physical.IO {
		t.Fatalf("ChargePhysical changed the logical IO snapshot: %+v vs %+v",
			logical.IO, physical.IO)
	}
	if physical.SimSeconds >= logical.SimSeconds {
		t.Fatalf("ChargePhysical SimSeconds %g >= logical-charge %g (compression bought nothing)",
			physical.SimSeconds, logical.SimSeconds)
	}
}

// TestCodecTraceEvents: the journal must carry the physical dimension —
// per-worker PhysIO snapshots summing to the step's PhysIO, and
// compress/decompress events describing each superstep's codec work.
func TestCodecTraceEvents(t *testing.T) {
	g := graph.GenRMAT(600, 4200, 0.57, 0.19, 0.19, 97)
	var buf bytes.Buffer
	cfg := Config{Workers: 3, MsgBuf: 90, MaxSteps: 6, Codec: "lz", TraceWriter: &buf}
	res := runOne(t, g, algo.NewPageRank(0.85), cfg, Hybrid)
	p := parseTrace(t, buf.Bytes())

	byStep := map[int]diskio.Snapshot{}
	for _, ev := range p.workerSteps {
		byStep[ev.Step] = byStep[ev.Step].Add(ev.PhysIO)
	}
	shrunk := false
	for _, st := range res.Steps {
		if got := byStep[st.Step]; got != st.PhysIO {
			t.Fatalf("step %d: worker PhysIO sum %+v != StepStats.PhysIO %+v", st.Step, got, st.PhysIO)
		}
		if st.PhysIO.Total() < st.IO.Total()+st.LogIO.Total() {
			shrunk = true
		}
	}
	if !shrunk {
		t.Error("no superstep's physical bytes were below its logical bytes")
	}
	if len(p.codecs) == 0 {
		t.Fatal("no compress/decompress events in the journal")
	}
	sawCompress, sawDecompress := false, false
	for _, ev := range p.codecs {
		if ev.Codec != "lz" || ev.Logical <= 0 || ev.Physical <= 0 {
			t.Fatalf("codec event = %+v", ev)
		}
		switch ev.Type {
		case obs.EventCompress:
			sawCompress = true
		case obs.EventDecompress:
			sawDecompress = true
		}
	}
	if !sawCompress || !sawDecompress {
		t.Fatalf("compress=%v decompress=%v, want both", sawCompress, sawDecompress)
	}
}
